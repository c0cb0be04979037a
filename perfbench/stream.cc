// stream_fresh: delta -> verdict in-process on the beers table. Set-up
// loads the bundle and replays the dirty table as inserts; the measured
// phase is a closed-loop CDC feed (updates, inserts, deletes, interleaved
// verdict reads) in which a fixed share of written cells is fresh.
#include <memory>

#include "core/inference.h"
#include "inputs.h"
#include "serve/bundle.h"
#include "stream/session.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace bs = birnn::stream;
namespace sv = birnn::serve;


/// Peak RSS is read once the feed has applied this many deltas (or at its
/// end, if it applies fewer): the memo keeps every fresh cell, so memory
/// grows with the deltas applied, and reading it at a fixed count keeps a
/// faster program from reporting more memory.
constexpr size_t kRssDeltas = 100000;

struct Session {
  std::shared_ptr<const sv::LoadedDetector> detector;
  std::unique_ptr<bs::TableSession> session;
};

/// Bundle load + replay of the dirty table as inserts.
double StartSession(const std::string& bundle, const birnn::data::Table& dirty,
                    Session* s, double* replay_s) {
  const Clock::time_point t0 = Clock::now();
  auto loaded = sv::LoadDetectorBundle(bundle);
  if (!loaded.ok()) Die("bundle load failed: " + loaded.status().ToString());
  s->detector = std::make_shared<const sv::LoadedDetector>(std::move(*loaded));
  auto session = bs::TableSession::Create(s->detector);
  if (!session.ok()) {
    Die("session create failed: " + session.status().ToString());
  }
  s->session = std::move(*session);
  const Clock::time_point t1 = Clock::now();
  for (int r = 0; r < dirty.num_rows(); ++r) {
    const birnn::Status st = s->session->Insert(r, dirty.row(r));
    if (!st.ok()) Die("replay insert failed: " + st.ToString());
  }
  const Clock::time_point t2 = Clock::now();
  *replay_s = SecondsBetween(t1, t2);
  return SecondsBetween(t0, t2);
}

}  // namespace

int RunStreamFresh(const Args& args) {
  Result result;
  const birnn::datagen::DatasetPair table = StreamTable(args.smoke);

  // Set-up five times (once in the traced run); the last session stays.
  // Replay cost is page faults as much as forward passes, so single
  // set-ups move with the host; the median of five holds still.
  std::vector<double> setup_s, replay_s;
  Session s;
  for (int i = 0; i < (args.trace ? 1 : 5); ++i) {
    s = Session{};
    double replay = 0.0;
    setup_s.push_back(StartSession(args.dir, table.dirty, &s, &replay));
    replay_s.push_back(replay);
  }
  bs::TableSession& session = *s.session;

  FeedStream feed(args.seed, table.dirty, kStreamFreshShare);
  Tracer tracer(args.trace);
  std::vector<double> delta_s, insert_s, update_s, delete_s, read_s;
  // Traced run only: what the layer re-runs below replay.
  std::vector<Cell> written;
  std::vector<std::vector<Cell>> fresh_groups;

  const bs::SessionStats stats_before = session.stats();
  const RegistryView reg_before = RegistryView::Take();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  int64_t failed_deltas = 0;
  double peak_rss = 0.0;
  while (Clock::now() < end) {
    const FeedOp op = feed.Next();
    if (op.is_read) {
      const Clock::time_point t0 = Clock::now();
      const bool ok = session.GetVerdict(op.read_row, op.read_attr).ok();
      read_s.push_back(SecondsBetween(t0, Clock::now()));
      result.Check(ok, "verdict read of a live row");
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    const birnn::Status st = session.Apply(op.delta);
    const Clock::time_point t1 = Clock::now();
    const double dt = SecondsBetween(t0, t1);
    result.Attempt(1);
    if (!st.ok()) {
      // Only the first few failures are worth printing.
      result.Fail(1, ++failed_deltas <= 5 ? "delta failed: " + st.ToString()
                                          : "delta failed");
      continue;
    }
    delta_s.push_back(dt);
    if (delta_s.size() == kRssDeltas) peak_rss = PeakRssMib();
    const bs::Delta& d = op.delta;
    switch (d.kind) {
      case bs::DeltaKind::kInsert: insert_s.push_back(dt); break;
      case bs::DeltaKind::kUpdate: update_s.push_back(dt); break;
      case bs::DeltaKind::kDelete: delete_s.push_back(dt); break;
    }
    if (!args.trace) continue;
    const Clock::time_point bookkeeping = Clock::now();
    tracer.Add("stream.delta", t0, t1);
    if (d.kind == bs::DeltaKind::kInsert) {
      for (int a = 0; a < static_cast<int>(d.values.size()); ++a) {
        written.push_back(Cell{a, d.values[static_cast<size_t>(a)]});
      }
    } else if (d.kind == bs::DeltaKind::kUpdate) {
      written.push_back(Cell{d.attr, d.value});
    }
    if (!op.fresh_attrs.empty()) {
      std::vector<Cell> group;
      for (int a : op.fresh_attrs) {
        group.push_back(Cell{a, d.kind == bs::DeltaKind::kInsert
                                    ? d.values[static_cast<size_t>(a)]
                                    : d.value});
      }
      fresh_groups.push_back(std::move(group));
    }
    tracer.Charge(bookkeeping);
  }
  const double feed_s = SecondsBetween(start, Clock::now());
  const RegistryView reg_after = RegistryView::Take();
  const bs::SessionStats stats_after = session.stats();
  if (delta_s.size() < kRssDeltas) peak_rss = PeakRssMib();

  // Incremental verdicts must equal a from-scratch batch detection.
  auto all = session.DetectAll();
  result.Check(all.ok() && *all == session.MaterializedVerdicts(),
               "MaterializedVerdicts() equals DetectAll() after the feed");

  const double n_deltas = static_cast<double>(delta_s.size());
  if (!args.trace) {
    result.Metric("setup_s", Median(setup_s), "s");
    result.Metric("p50_ms", Quantile(delta_s, 0.5) * 1e3, "ms");
    result.Metric("p99_ms", Quantile(delta_s, 0.99) * 1e3, "ms");
    result.Metric("ops_per_s", n_deltas / feed_s, "1/s");
    result.Metric("peak_rss_mib", peak_rss, "MiB");
    result.Print();
    return 0;
  }

  // data.encode: AppendQueryCell on the feed's written cells.
  birnn::data::EncodedDataset scratch;
  const sv::LoadedDetector& detector = *s.detector;
  detector.InitQueryDataset(&scratch);
  const Clock::time_point e0 = Clock::now();
  for (const Cell& c : written) {
    if (scratch.num_cells() >= 4096) detector.InitQueryDataset(&scratch);
    if (!detector.AppendQueryCell(c.attr, c.value, &scratch).ok()) {
      result.Fail(1, "AppendQueryCell");
      break;
    }
  }
  const double encode_us =
      written.empty() ? 0.0
                      : SecondsBetween(e0, Clock::now()) * 1e6 /
                            static_cast<double>(written.size());

  // core.engine.forward: the feed's miss cells, one batch per delta as the
  // session ran them, through a standalone engine.
  birnn::core::InferenceEngine engine(detector.model());
  std::vector<double> forward_s;
  std::vector<float> p;
  for (const auto& group : fresh_groups) {
    detector.InitQueryDataset(&scratch);
    for (const Cell& c : group) {
      if (!detector.AppendQueryCell(c.attr, c.value, &scratch).ok()) {
        result.Fail(1, "AppendQueryCell");
      }
    }
    const Clock::time_point f0 = Clock::now();
    engine.PredictProbs(scratch, {}, &p);
    forward_s.push_back(SecondsBetween(f0, Clock::now()));
  }

  const double cells_scored =
      static_cast<double>(stats_after.cells_scored - stats_before.cells_scored);
  const double memo_hits =
      static_cast<double>(stats_after.memo_hits - stats_before.memo_hits);
  const double swept = static_cast<double>(
      CounterDelta(reg_before, reg_after, "inference/unique_cells"));
  const double pad_rows = static_cast<double>(
      CounterDelta(reg_before, reg_after, "inference/pad_rows"));
  const double cells_per_delta = n_deltas > 0 ? cells_scored / n_deltas : 0.0;
  // Waterfall of the mean delta: encoding its cells, the forward passes of
  // its miss cells, and the rest (memo probes, verdict store, statistics).
  const double mean_delta_us = Mean(delta_s) * 1e6;
  const double forward_us_per_delta =
      n_deltas > 0 ? Mean(forward_s) * 1e6 *
                         static_cast<double>(forward_s.size()) / n_deltas
                   : 0.0;
  const std::string w = "stream_fresh.";
  result.Metric(w + "stream.replay_s", Median(replay_s), "s");
  result.Metric(w + "stream.insert_ms", Mean(insert_s) * 1e3, "ms");
  result.Metric(w + "stream.update_ms", Mean(update_s) * 1e3, "ms");
  result.Metric(w + "stream.delete_us", Mean(delete_s) * 1e6, "us");
  result.Metric(w + "stream.read_us", Mean(read_s) * 1e6, "us");
  result.Metric(w + "data.encode_us", encode_us, "us");
  result.Metric(w + "core.engine.forward_ms", Mean(forward_s) * 1e3, "ms");
  result.Metric(w + "core.memo.hit_ratio",
                cells_scored > 0 ? memo_hits / cells_scored : 0.0, "ratio");
  result.Metric(w + "core.engine.pad_ratio", swept > 0 ? pad_rows / swept : 0.0,
                "ratio");
  result.Metric(w + "stream.cells_per_delta", cells_per_delta, "count");
  result.Metric(w + "stream.residual_us",
                mean_delta_us - cells_per_delta * encode_us -
                    forward_us_per_delta,
                "us");
  result.Metric(w + "trace.overhead_pct", 100.0 * tracer.overhead_s() / feed_s,
                "%");
  if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
    result.Fail(1, "writing the trace");
  }
  result.Print();
  return 0;
}

}  // namespace perfbench
