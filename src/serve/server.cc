#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <map>
#include <utility>

#include "adapt/controller.h"
#include "obs/obs.h"
#include "serve/protocol.h"
#include "util/logging.h"

namespace birnn::serve {
namespace {

/// NOT_FOUND for a request whose "model" resolves to no hosted model.
Status UnresolvedModel(const std::string& model) {
  return Status::NotFound(
      model.empty() ? "no \"model\" given and more than one model is hosted"
                    : "unknown model: " + model);
}

}  // namespace

Server::Server(ModelRegistry* registry, ServerOptions options)
    : registry_(registry), options_(std::move(options)) {
  options_.reactor_threads = std::max(1, options_.reactor_threads);
  options_.max_connections = std::max(1, options_.max_connections);
  options_.backlog = std::max(1, options_.backlog);
  options_.max_line_bytes = std::max(1024, options_.max_line_bytes);
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  const std::vector<std::string> names = registry_->Names();
  if (names.empty()) {
    return Status::FailedPrecondition("registry has no models to serve");
  }
  for (const std::string& name : names) {
    std::shared_ptr<const LoadedDetector> detector = registry_->Get(name);
    if (detector == nullptr) continue;  // unloaded between Names() and here
    auto entry = std::make_unique<ModelEntry>();
    entry->name = name;
    entry->current = std::make_shared<ServingModel>();
    entry->current->detector = std::move(detector);
    entry->current->batcher = std::make_unique<MicroBatcher>(
        *entry->current->detector, options_.batcher);
    models_.emplace(name, std::move(entry));
  }
  if (models_.empty()) {
    return Status::FailedPrecondition("registry has no models to serve");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad host address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind " + options_.host + ":" +
                            std::to_string(options_.port) + ": " + err);
  }
  if (::listen(listen_fd_, options_.backlog) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen: " + err);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  ReactorOptions reactor_options;
  reactor_options.threads = options_.reactor_threads;
  reactor_options.max_connections = options_.max_connections;
  reactor_options.max_line_bytes = options_.max_line_bytes;
  reactor_options.max_output_backlog = options_.max_output_backlog;
  reactor_options.drain_timeout_ms = options_.drain_timeout_ms;
  reactor_options.overload_line =
      ErrorResponse("", Status::Overloaded("connection limit reached"));
  reactor_options.oversize_line =
      ErrorResponse("", Status::InvalidArgument("request line too long"));
  reactor_ = std::make_unique<Reactor>(this, reactor_options);
  const Status status = reactor_->Start(listen_fd_);
  if (!status.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    reactor_.reset();
    return status;
  }
  // The reactor owns the listener from here (closes it on Shutdown).

  started_ = true;
  BIRNN_LOG(Info) << "serve: listening on " << options_.host << ":" << port_
                  << " (" << models_.size() << " model(s), "
                  << options_.reactor_threads << " reactor loop(s))";
  return Status::OK();
}

void Server::Shutdown() {
  // Serialize concurrent Shutdown() calls; the loser waits for the full
  // drain instead of returning early.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_ || shutting_down_) return;
    shutting_down_ = true;
  }

  // Drain: stop accepting and reading, flush every response for already-
  // admitted requests (which waits out the batcher callbacks), close.
  reactor_->Shutdown();
  listen_fd_ = -1;  // the reactor closed it

  // Then drain the batchers: every admitted request is answered before
  // Stop returns. Taking admin_mu first waits out any in-flight reload.
  for (auto& [name, entry] : models_) {
    std::lock_guard<std::mutex> admin(entry->admin_mu);
    std::shared_ptr<ServingModel> current;
    {
      std::lock_guard<std::mutex> lock(entry->mu);
      current = entry->current;
    }
    current->batcher->Stop();
  }
}

void Server::OnLine(const Reactor::ConnRef& conn, uint64_t seq,
                    std::string line) {
  StatusOr<Request> request = ParseRequest(line);
  if (!request.ok()) {
    reactor_->Respond(conn, seq, ErrorResponse("", request.status()));
    return;
  }
  if (request->op == "quit") {
    // No response bytes; the empty line advances the sequence and the
    // close flag tears the connection down once earlier responses flush.
    reactor_->Respond(conn, seq, "", /*close_after=*/true);
    return;
  }
  if (request->op != "detect") {
    // Every other op is answered synchronously (reload and adapt are rare
    // admin ops; they briefly stall this loop's connections but drain
    // through the batcher threads, so they cannot deadlock).
    reactor_->Respond(conn, seq, HandleRequest(*request));
    return;
  }

  // Async detect: acquire the model (pinning it across any concurrent
  // reload), enqueue into its batcher, answer from the batcher callback.
  OBS_SPAN("serve/request");
  OBS_COUNTER_ADD("serve/requests", 1);
  std::string resolved;
  std::shared_ptr<ServingModel> sm = AcquireModel(request->model, &resolved);
  if (sm == nullptr) {
    reactor_->Respond(
        conn, seq, ErrorResponse(request->id, UnresolvedModel(request->model)));
    return;
  }
  std::string id = request->id;
  sm->batcher->Submit(
      request->cells,
      [this, conn, seq, id = std::move(id), sm](
          const Status& status, const std::vector<CellVerdict>& verdicts) {
        std::string response = status.ok() ? OkDetectResponse(id, verdicts)
                                           : ErrorResponse(id, status);
        reactor_->Respond(conn, seq, std::move(response));
        // Release *after* Respond: once a reload's drain-wait returns, every
        // old-model response has been handed to the reactor.
        ReleaseModel(sm);
      });
}

Server::ModelEntry* Server::ResolveEntry(const std::string& model,
                                         std::string* resolved) {
  // models_ has a fixed key set after Start(), so lookups need no lock.
  if (model.empty()) {
    if (models_.size() != 1) return nullptr;
    *resolved = models_.begin()->first;
    return models_.begin()->second.get();
  }
  const auto it = models_.find(model);
  if (it == models_.end()) return nullptr;
  *resolved = it->first;
  return it->second.get();
}

std::shared_ptr<Server::ServingModel> Server::AcquireModel(
    const std::string& model, std::string* resolved) {
  ModelEntry* entry = ResolveEntry(model, resolved);
  if (entry == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(entry->mu);
  std::shared_ptr<ServingModel> sm = entry->current;
  sm->active.fetch_add(1, std::memory_order_acq_rel);
  return sm;
}

void Server::ReleaseModel(const std::shared_ptr<ServingModel>& sm) {
  if (sm->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last user out — a reload drain may be waiting on exactly this.
    { std::lock_guard<std::mutex> lock(sm->drain_mu); }
    sm->drain_cv.notify_all();
  }
}

Status Server::SwapIn(ModelEntry* entry, std::shared_ptr<ServingModel> next) {
  std::shared_ptr<ServingModel> old;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    old = std::move(entry->current);
    entry->current = next;
    entry->previous = old->detector;
    ++entry->generation;
  }
  // From here every new acquire sees the new model. Mirror it into the
  // registry so out-of-band Get() callers agree with the serve plane.
  registry_->Put(entry->name, next->detector);

  // Drain: wait until every request that acquired the old model has been
  // answered (responses handed to the transport), then stop its batcher.
  // active is monotonically nonincreasing now — old is unreachable.
  {
    std::unique_lock<std::mutex> lock(old->drain_mu);
    old->drain_cv.wait(lock, [&] {
      return old->active.load(std::memory_order_acquire) == 0;
    });
  }
  old->batcher->Stop();
  return Status::OK();
}

Status Server::ReloadModel(const std::string& name, const std::string& dir) {
  std::string resolved;
  ModelEntry* entry = ResolveEntry(name, &resolved);
  if (entry == nullptr) {
    return Status::NotFound(name.empty() ? "no single model to reload"
                                         : "unknown model: " + name);
  }
  std::lock_guard<std::mutex> admin(entry->admin_mu);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      return Status::FailedPrecondition("server shutting down");
    }
  }
  BIRNN_ASSIGN_OR_RETURN(LoadedDetector detector, LoadDetectorBundle(dir));
  auto next = std::make_shared<ServingModel>();
  next->detector =
      std::make_shared<const LoadedDetector>(std::move(detector));
  next->batcher =
      std::make_unique<MicroBatcher>(*next->detector, options_.batcher);
  BIRNN_RETURN_IF_ERROR(SwapIn(entry, std::move(next)));
  BIRNN_LOG(Info) << "serve: reloaded model \"" << resolved << "\" from "
                  << dir << " (generation " << ModelGeneration(resolved)
                  << ")";
  return Status::OK();
}

Status Server::RollbackModel(const std::string& name) {
  std::string resolved;
  ModelEntry* entry = ResolveEntry(name, &resolved);
  if (entry == nullptr) {
    return Status::NotFound(name.empty() ? "no single model to roll back"
                                         : "unknown model: " + name);
  }
  std::lock_guard<std::mutex> admin(entry->admin_mu);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      return Status::FailedPrecondition("server shutting down");
    }
  }
  std::shared_ptr<const LoadedDetector> previous;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    previous = entry->previous;
  }
  if (previous == nullptr) {
    return Status::FailedPrecondition(
        "no previously-served bundle to roll back to");
  }
  auto next = std::make_shared<ServingModel>();
  next->detector = std::move(previous);
  next->batcher =
      std::make_unique<MicroBatcher>(*next->detector, options_.batcher);
  BIRNN_RETURN_IF_ERROR(SwapIn(entry, std::move(next)));
  BIRNN_LOG(Info) << "serve: rolled back model \"" << resolved
                  << "\" (generation " << ModelGeneration(resolved) << ")";
  return Status::OK();
}

int64_t Server::ModelGeneration(const std::string& name) const {
  const auto it = models_.find(name);
  if (it == models_.end()) return 0;
  std::lock_guard<std::mutex> lock(it->second->mu);
  return it->second->generation;
}

std::string Server::HandleRequest(const Request& request) {
  OBS_SPAN("serve/request");
  OBS_COUNTER_ADD("serve/requests", 1);
  if (request.op == "ping") return PongResponse(request.id);
  if (request.op == "models") {
    std::vector<std::string> names;
    names.reserve(models_.size());
    for (const auto& [name, entry] : models_) names.push_back(name);
    return ModelsResponse(request.id, names);
  }

  std::string resolved;
  if (request.op == "reload" || request.op == "rollback") {
    if (request.op == "reload" && request.dir.empty()) {
      return ErrorResponse(
          request.id,
          Status::InvalidArgument("reload request needs a \"dir\""));
    }
    const Status status = request.op == "reload"
                              ? ReloadModel(request.model, request.dir)
                              : RollbackModel(request.model);
    if (!status.ok()) return ErrorResponse(request.id, status);
    ResolveEntry(request.model, &resolved);
    return ReloadResponse(request.id, resolved, ModelGeneration(resolved));
  }
  if (request.op == "adapt") return HandleAdapt(request);

  std::shared_ptr<ServingModel> sm = AcquireModel(request.model, &resolved);
  if (sm == nullptr) {
    return ErrorResponse(request.id, UnresolvedModel(request.model));
  }

  std::string response;
  if (request.op == "stats") {
    // Include the table-session counters when the model has streamed.
    stream::SessionStats stream_stats;
    bool has_session = false;
    {
      std::lock_guard<std::mutex> session_lock(sm->session_mu);
      if (sm->session != nullptr) {
        stream_stats = sm->session->stats();
        has_session = true;
      }
    }
    int64_t generation = 0;
    AdaptLineage lineage;
    {
      ModelEntry* entry = ResolveEntry(request.model, &resolved);
      std::lock_guard<std::mutex> lock(entry->mu);
      generation = entry->generation;
      lineage = entry->adapt;
    }
    response = StatsResponse(request.id, resolved, sm->batcher->stats(),
                             generation,
                             has_session ? &stream_stats : nullptr, &lineage);
  } else {  // "delta"
    response = HandleDelta(request, sm);
  }
  ReleaseModel(sm);
  return response;
}

std::string Server::HandleDelta(const Request& request,
                                const std::shared_ptr<ServingModel>& sm) {
  OBS_SPAN("serve/delta");
  OBS_COUNTER_ADD("serve/deltas", static_cast<int64_t>(request.deltas.size()));
  stream::TableSession* session = nullptr;
  {
    std::lock_guard<std::mutex> session_lock(sm->session_mu);
    if (sm->session == nullptr) {
      auto created = stream::TableSession::Create(sm->detector,
                                                  options_.stream_session);
      if (!created.ok()) return ErrorResponse(request.id, created.status());
      sm->session = std::move(*created);
    }
    session = sm->session.get();
  }
  // The session is internally synchronized; deltas of one request apply in
  // order, interleaving atomically with other connections' deltas.
  std::vector<DeltaCellVerdict> verdicts;
  std::vector<std::pair<int, stream::CellVerdict>> affected;
  int64_t applied = 0;
  for (const stream::Delta& delta : request.deltas) {
    const Status status = session->Apply(delta, &affected);
    if (!status.ok()) {
      return ErrorResponse(
          request.id,
          Status(status.code(), status.message() + " (after " +
                                    std::to_string(applied) +
                                    " applied delta(s))"));
    }
    ++applied;
    for (const auto& [attr, verdict] : affected) {
      DeltaCellVerdict v;
      v.row_id = delta.row_id;
      v.attr = attr;
      v.verdict = verdict;
      verdicts.push_back(v);
    }
  }
  return DeltaResponse(request.id, applied, verdicts,
                       session->stats().drift_alarms);
}

namespace {

/// Wraps an "adapt" request's explicit label list into a LabelFn; cells
/// without an entry report -1 (fall back to their stored verdicts).
adapt::LabelFn MakeLabelOracle(const std::vector<AdaptLabel>& labels) {
  if (labels.empty()) return nullptr;
  auto map = std::make_shared<std::map<std::pair<int64_t, int>, int>>();
  for (const AdaptLabel& label : labels) {
    (*map)[{label.row_id, label.attr}] = label.label;
  }
  return [map](int64_t row_id, int attr) {
    const auto it = map->find({row_id, attr});
    return it == map->end() ? -1 : it->second;
  };
}

}  // namespace

std::string Server::HandleAdapt(const Request& request) {
  OBS_SPAN("serve/adapt");
  std::string resolved;
  ModelEntry* entry = ResolveEntry(request.model, &resolved);
  if (entry == nullptr) {
    return ErrorResponse(request.id, UnresolvedModel(request.model));
  }
  // Adaptation is an admin op: admin_mu serializes it against
  // reload/rollback/shutdown and pins entry->current, so no refcount is
  // taken here — taking one would deadlock our own promotion drain.
  std::lock_guard<std::mutex> admin(entry->admin_mu);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      return ErrorResponse(request.id,
                           Status::FailedPrecondition("server shutting down"));
    }
  }
  std::shared_ptr<ServingModel> sm;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    sm = entry->current;
  }
  stream::TableSession* session = nullptr;
  {
    std::lock_guard<std::mutex> session_lock(sm->session_mu);
    session = sm->session.get();
  }
  if (session == nullptr) {
    return ErrorResponse(
        request.id, Status::FailedPrecondition(
                        "no table session: stream \"delta\" records first so "
                        "the reservoir has tuples to adapt on"));
  }

  adapt::ControllerOptions copts = options_.adapt;
  if (request.adapt_bn_only >= 0) copts.bn_only = request.adapt_bn_only != 0;
  // Candidate bundles land in a per-attempt directory so a promotion never
  // overwrites the bundle a previous generation was loaded from.
  static std::atomic<uint64_t> adapt_counter{0};
  const std::string attempt_tag =
      resolved + "-adapt-" + std::to_string(::getpid()) + "-" +
      std::to_string(adapt_counter.fetch_add(1) + 1);
  const std::filesystem::path base =
      options_.adapt_bundle_dir.empty()
          ? std::filesystem::temp_directory_path()
          : std::filesystem::path(options_.adapt_bundle_dir);
  std::error_code ec;
  std::filesystem::create_directories(base, ec);
  if (ec) {
    return ErrorResponse(
        request.id, Status::Internal("cannot create adapt bundle dir " +
                                     base.string() + ": " + ec.message()));
  }
  copts.candidate_dir = (base / attempt_tag).string();

  adapt::Controller controller(sm->detector, copts);
  StatusOr<adapt::AdaptReport> report = controller.TriggerAdaptation(
      session, MakeLabelOracle(request.labels),
      request.has_gate_labels ? MakeLabelOracle(request.gate_labels)
                              : adapt::LabelFn());
  if (!report.ok()) return ErrorResponse(request.id, report.status());

  if (report->outcome == adapt::AdaptOutcome::kPromoted) {
    // Promote through the reload path: load the saved candidate bundle
    // back (so serving always runs exactly what was persisted) and swap it
    // in with the standard drain — zero dropped in-flight requests. The
    // fresh ServingModel starts with no table session: the streamed table
    // and its drift baselines re-arm under the new generation.
    StatusOr<LoadedDetector> loaded = LoadDetectorBundle(report->candidate_dir);
    if (!loaded.ok()) return ErrorResponse(request.id, loaded.status());
    auto next = std::make_shared<ServingModel>();
    next->detector =
        std::make_shared<const LoadedDetector>(std::move(*loaded));
    next->batcher =
        std::make_unique<MicroBatcher>(*next->detector, options_.batcher);
    const Status status = SwapIn(entry, std::move(next));
    if (!status.ok()) return ErrorResponse(request.id, status);
  }

  AdaptResponseFields fields;
  fields.outcome = adapt::AdaptOutcomeName(report->outcome);
  fields.promoted = report->outcome == adapt::AdaptOutcome::kPromoted;
  fields.incumbent_f1 = report->incumbent_f1;
  fields.candidate_f1 = report->candidate_f1;
  fields.train_cells = report->train_cells;
  fields.validation_cells = report->validation_cells;
  fields.reservoir_rows = report->reservoir_rows;
  fields.deterministic_eval = report->deterministic_eval;
  fields.reason = report->reason;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (report->outcome != adapt::AdaptOutcome::kSkipped) {
      ++entry->adapt.attempts;
    }
    if (report->outcome == adapt::AdaptOutcome::kPromoted) {
      ++entry->adapt.promotions;
    } else if (report->outcome == adapt::AdaptOutcome::kRejected) {
      ++entry->adapt.rejections;
    }
    fields.generation = entry->generation;
  }
  if (fields.promoted) {
    BIRNN_LOG(Info) << "serve: adapted model \"" << resolved
                    << "\" promoted (generation " << fields.generation
                    << ", F1 " << fields.incumbent_f1 << " -> "
                    << fields.candidate_f1 << ", bundle "
                    << report->candidate_dir << ")";
  }
  return AdaptResponse(request.id, resolved, fields);
}

StatusOr<BatcherStats> Server::ModelStats(const std::string& name) const {
  const auto it = models_.find(name);
  if (it == models_.end()) {
    return Status::NotFound("unknown model: " + name);
  }
  std::shared_ptr<ServingModel> sm;
  {
    std::lock_guard<std::mutex> lock(it->second->mu);
    sm = it->second->current;
  }
  return sm->batcher->stats();
}

}  // namespace birnn::serve
