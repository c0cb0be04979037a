// serve subsystem tests: bundle save/load round trips, the model registry,
// the line protocol, the TCP server end to end over real sockets, and the
// headline invariant — a served detector answers bit-identically to the
// offline ErrorDetector run that produced its bundle.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/detector.h"
#include "core/model.h"
#include "datagen/datasets.h"
#include "serve/batcher.h"
#include "serve/bundle.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace birnn::serve {
namespace {

core::TrainedDetector MakeTinyTrained() {
  core::TrainedDetector trained;
  trained.chars = data::CharIndex::BuildFromStrings(
      {"abcdefghijklmnopqrstuvwxyz0123456789 .-"});
  core::ModelConfig config;
  config.vocab = trained.chars.vocab_size();
  config.max_len = 12;
  config.n_attrs = 3;
  config.char_emb_dim = 8;
  config.units = 8;
  config.stacks = 1;
  config.enriched = true;
  config.attr_emb_dim = 4;
  config.attr_units = 4;
  config.length_dense_dim = 8;
  config.hidden_dense_dim = 8;
  config.seed = 99;
  trained.config = config;
  trained.model = std::make_unique<core::ErrorDetectionModel>(config);
  trained.attr_names = {"id", "name", "score"};
  trained.attr_max_value_len = {8, 12, 6};
  return trained;
}

LoadedDetector MakeTinyDetector() {
  auto loaded = MakeLoadedDetector(MakeTinyTrained());
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::move(loaded).value();
}

std::vector<CellQuery> MakeQueries(int n) {
  std::vector<CellQuery> queries;
  for (int i = 0; i < n; ++i) {
    CellQuery q;
    q.attr = i % 3;
    q.value = "cell " + std::to_string(i * 13 % 31);
    queries.push_back(std::move(q));
  }
  return queries;
}

std::string TempDir(const char* name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

// ----------------------------------------------------------------- Protocol

TEST(ProtocolTest, ParsesDetectRequest) {
  auto req = ParseRequest(
      R"({"id":"r1","model":"m","cells":[{"attr":"city","value":"x"},)"
      R"({"attr":2,"value":"y"}]})");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->id, "r1");
  EXPECT_EQ(req->op, "detect");  // default
  EXPECT_EQ(req->model, "m");
  ASSERT_EQ(req->cells.size(), 2u);
  EXPECT_EQ(req->cells[0].attr_name, "city");
  EXPECT_EQ(req->cells[0].value, "x");
  EXPECT_EQ(req->cells[1].attr, 2);
  EXPECT_EQ(req->cells[1].value, "y");
}

TEST(ProtocolTest, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseRequest("not json").ok());
  EXPECT_FALSE(ParseRequest("[1,2,3]").ok());                 // not an object
  EXPECT_FALSE(ParseRequest(R"({"op":"detect"})").ok());      // no cells
  EXPECT_FALSE(ParseRequest(R"({"op":"explode"})").ok());     // unknown op
  EXPECT_FALSE(
      ParseRequest(R"({"cells":[{"value":"x"}]})").ok());     // no attr
  EXPECT_FALSE(
      ParseRequest(R"({"cells":[{"attr":1.5,"value":"x"}]})").ok());
  EXPECT_FALSE(ParseRequest(R"({"cells":[{"attr":1}]})").ok());  // no value
  EXPECT_TRUE(ParseRequest(R"({"op":"ping"})").ok());  // ops need no cells
}

TEST(ProtocolTest, ParsesReloadAndRollbackRequests) {
  auto reload = ParseRequest(
      R"({"id":"a","op":"reload","model":"m","dir":"/tmp/bundle.v2"})");
  ASSERT_TRUE(reload.ok()) << reload.status().ToString();
  EXPECT_EQ(reload->op, "reload");
  EXPECT_EQ(reload->model, "m");
  EXPECT_EQ(reload->dir, "/tmp/bundle.v2");

  auto rollback = ParseRequest(R"({"op":"rollback"})");
  ASSERT_TRUE(rollback.ok());
  EXPECT_EQ(rollback->op, "rollback");
  EXPECT_TRUE(rollback->dir.empty());

  auto ack = JsonValue::Parse(ReloadResponse("a", "m", 7));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->GetString("status"), "OK");
  EXPECT_EQ(ack->GetString("model"), "m");
  EXPECT_EQ(ack->GetNumber("generation"), 7.0);
}

TEST(ProtocolTest, JsonFloatRoundTripsBits) {
  for (const float v : {0.0f, 1.0f, 0.5f, 0.123456789f, 0.9999999f,
                        1.1754944e-38f, 0.33333334f}) {
    const float back = std::strtof(JsonFloat(v).c_str(), nullptr);
    EXPECT_EQ(0, std::memcmp(&v, &back, sizeof(float))) << JsonFloat(v);
  }
}

TEST(ProtocolTest, ResponsesAreValidJson) {
  const std::vector<CellVerdict> verdicts = {{0.75f, true}, {0.25f, false}};
  auto ok = JsonValue::Parse(OkDetectResponse("r9", verdicts));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->GetString("status"), "OK");
  EXPECT_EQ(ok->GetString("id"), "r9");
  ASSERT_TRUE(ok->Find("results")->is_array());
  EXPECT_EQ(ok->Find("results")->items().size(), 2u);

  auto err = JsonValue::Parse(
      ErrorResponse("", Status::Overloaded("queue \"full\"\n")));
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->GetString("status"), "OVERLOADED");
  EXPECT_TRUE(err->Find("id")->is_null());
  EXPECT_EQ(err->GetString("message"), "queue \"full\"\n");  // escapes held
}

// ----------------------------------------------------------------- Registry

TEST(RegistryTest, AddGetUnloadNames) {
  ModelRegistry registry;
  EXPECT_EQ(registry.size(), 0);
  ASSERT_TRUE(registry.Add("b", MakeTinyDetector()).ok());
  ASSERT_TRUE(registry.Add("a", MakeTinyDetector()).ok());
  EXPECT_EQ(registry.size(), 2);
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_NE(registry.Get("a"), nullptr);
  EXPECT_EQ(registry.Get("missing"), nullptr);

  // A handle taken before Unload keeps the detector alive.
  auto held = registry.Get("a");
  ASSERT_TRUE(registry.Unload("a").ok());
  EXPECT_EQ(registry.Get("a"), nullptr);
  EXPECT_EQ(held->n_attrs(), 3);
  EXPECT_EQ(registry.Unload("a").code(), StatusCode::kNotFound);
}

TEST(RegistryTest, PutReplacesInPlace) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("m", MakeTinyDetector()).ok());
  const auto before = registry.Get("m");
  auto replacement =
      std::make_shared<const LoadedDetector>(MakeTinyDetector());
  registry.Put("m", replacement);
  EXPECT_EQ(registry.Get("m"), replacement);
  EXPECT_NE(registry.Get("m"), before);
  EXPECT_EQ(registry.size(), 1);
  // Put also creates entries that never existed.
  registry.Put("fresh", replacement);
  EXPECT_EQ(registry.size(), 2);
}

// ------------------------------------------------------------------- Bundle

TEST(BundleTest, SaveLoadRoundTripIsBitExact) {
  const std::string dir = TempDir("birnn_bundle_roundtrip");
  core::TrainedDetector trained = MakeTinyTrained();

  // Predictions of the in-memory detector before any disk round trip.
  const std::vector<CellQuery> queries = MakeQueries(24);
  ASSERT_TRUE(SaveDetectorBundle(trained, dir).ok());
  auto original = MakeLoadedDetector(std::move(trained));
  ASSERT_TRUE(original.ok());
  std::vector<CellVerdict> before;
  {
    MicroBatcher batcher(*original);
    ASSERT_TRUE(batcher.Detect(queries, &before).ok());
  }

  auto loaded = LoadDetectorBundle(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->attr_names(), original->attr_names());
  EXPECT_EQ(loaded->config().max_len, original->config().max_len);
  std::vector<CellVerdict> after;
  {
    MicroBatcher batcher(*loaded);
    ASSERT_TRUE(batcher.Detect(queries, &after).ok());
  }
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&before[i].p_error, &after[i].p_error,
                             sizeof(float)))
        << "cell " << i;
    EXPECT_EQ(before[i].is_error, after[i].is_error);
  }
  std::filesystem::remove_all(dir);
}

TEST(BundleTest, MemoPreSizeHintsSurviveTheManifestRoundTrip) {
  // The batcher pre-sizes its verdict memo from the bundle's training-table
  // unique-cell count; both optional manifest keys must round-trip.
  const std::string dir = TempDir("birnn_bundle_presize");
  core::TrainedDetector trained = MakeTinyTrained();
  trained.train_unique_cells = 1234;
  trained.content_fingerprint = 0xDEADBEEFCAFEF00DULL;
  ASSERT_TRUE(SaveDetectorBundle(trained, dir).ok());
  auto loaded = LoadDetectorBundle(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(1234, loaded->expected_unique_cells());
  EXPECT_EQ(0xDEADBEEFCAFEF00DULL, loaded->content_fingerprint());
  std::filesystem::remove_all(dir);
}

TEST(BundleTest, LoadFailsCleanlyOnBadInput) {
  EXPECT_FALSE(LoadDetectorBundle("/nonexistent/bundle/dir").ok());

  const std::string dir = TempDir("birnn_bundle_bad");
  std::filesystem::create_directory(dir);
  {
    std::ofstream out(dir + "/manifest.txt");
    out << "not-a-bundle 1\n";
  }
  EXPECT_FALSE(LoadDetectorBundle(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(BundleTest, EncodeQueriesReplicatesPreparePipeline) {
  const LoadedDetector detector = MakeTinyDetector();
  // "  abc" -> trimmed to "abc"; attr 0's training max length is 8, so
  // length_norm must be 3/8 computed in float.
  CellQuery q;
  q.attr = 0;
  q.value = "  abc";
  auto ds = detector.EncodeQueries({q});
  ASSERT_TRUE(ds.ok());
  EXPECT_FLOAT_EQ(ds->length_norm[0], 3.0f / 8.0f);
  EXPECT_EQ(ds->effective_len(0), 3);

  // By-name resolution and unknown characters mapping to the unknown index.
  CellQuery named;
  named.attr_name = "name";
  named.value = "\x01\x02";
  auto ds2 = detector.EncodeQueries({named});
  ASSERT_TRUE(ds2.ok());
  EXPECT_EQ(ds2->attrs[0], 1);
  // Unknown chars encode to the dedicated unknown id, not pad.
  EXPECT_NE(ds2->seq_at(0, 0), 0);
}

// ------------------------------------------------------------------- Server

int ConnectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(0,
            ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)));
  return fd;
}

// Sends one request line and reads one '\n'-terminated response line.
std::string RoundTrip(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  EXPECT_EQ(static_cast<ssize_t>(framed.size()),
            ::write(fd, framed.data(), framed.size()));
  std::string response;
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') break;
    response.push_back(c);
  }
  return response;
}

TEST(ServerTest, EndToEndOverSockets) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", MakeTinyDetector()).ok());
  Server server(&registry);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  // The same queries answered in-process as the reference.
  const std::vector<CellQuery> queries = MakeQueries(6);
  std::vector<CellVerdict> reference;
  {
    const LoadedDetector detector = MakeTinyDetector();
    MicroBatcher batcher(detector);
    ASSERT_TRUE(batcher.Detect(queries, &reference).ok());
  }

  const int fd = ConnectTo(server.port());

  auto pong = JsonValue::Parse(RoundTrip(fd, R"({"id":"p","op":"ping"})"));
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->GetString("status"), "OK");
  EXPECT_EQ(pong->GetString("id"), "p");

  auto models = JsonValue::Parse(RoundTrip(fd, R"({"op":"models"})"));
  ASSERT_TRUE(models.ok());
  ASSERT_TRUE(models->Find("models")->is_array());
  EXPECT_EQ(models->Find("models")->items()[0].as_string(), "tiny");

  // Detect — "model" may be omitted with a single hosted model. The wire
  // p_error must recover the in-process float bit for bit (%.9g encoding).
  std::string request = R"({"id":"d1","cells":[)";
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i > 0) request += ",";
    request += R"({"attr":)" + std::to_string(queries[i].attr) +
               R"(,"value":")" + queries[i].value + R"("})";
  }
  request += "]}";
  auto detect = JsonValue::Parse(RoundTrip(fd, request));
  ASSERT_TRUE(detect.ok());
  ASSERT_EQ(detect->GetString("status"), "OK");
  const std::vector<JsonValue>& results = detect->Find("results")->items();
  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < results.size(); ++i) {
    const float wire =
        static_cast<float>(results[i].GetNumber("p_error", -1.0));
    EXPECT_EQ(0, std::memcmp(&wire, &reference[i].p_error, sizeof(float)))
        << "cell " << i << ": wire " << wire << " vs "
        << reference[i].p_error;
    EXPECT_EQ(results[i].Find("error")->as_bool(), reference[i].is_error);
  }

  auto stats = JsonValue::Parse(RoundTrip(fd, R"({"op":"stats"})"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->GetString("model"), "tiny");
  EXPECT_EQ(stats->GetNumber("cells"), 6.0);

  // Error paths: unknown model, bad JSON (answered with a null id).
  auto notfound = JsonValue::Parse(
      RoundTrip(fd, R"({"op":"detect","model":"nope","cells":[]})"));
  ASSERT_TRUE(notfound.ok());
  EXPECT_EQ(notfound->GetString("status"), "NOT_FOUND");
  auto bad = JsonValue::Parse(RoundTrip(fd, "garbage {"));
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->GetString("status"), "INVALID_ARGUMENT");
  EXPECT_TRUE(bad->Find("id")->is_null());

  ::close(fd);
  server.Shutdown();
}

TEST(ServerTest, OverCapacityDetectIsShedWithOverloaded) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", MakeTinyDetector()).ok());
  ServerOptions options;
  options.batcher.queue_capacity = 2;  // a 3-cell request can never fit
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectTo(server.port());
  auto shed = JsonValue::Parse(RoundTrip(
      fd,
      R"({"id":"s","cells":[{"attr":0,"value":"a"},{"attr":1,"value":"b"},)"
      R"({"attr":2,"value":"c"}]})"));
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->GetString("status"), "OVERLOADED");
  EXPECT_EQ(shed->GetString("id"), "s");

  // The connection survives a shed; a within-capacity request succeeds.
  auto ok = JsonValue::Parse(
      RoundTrip(fd, R"({"cells":[{"attr":0,"value":"a"}]})"));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->GetString("status"), "OK");
  ::close(fd);
  server.Shutdown();
}

TEST(ServerTest, ShutdownWithIdleConnectionsIsGraceful) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", MakeTinyDetector()).ok());
  auto server = std::make_unique<Server>(&registry);
  ASSERT_TRUE(server->Start().ok());

  const int fd = ConnectTo(server->port());
  auto pong = JsonValue::Parse(RoundTrip(fd, R"({"op":"ping"})"));
  ASSERT_TRUE(pong.ok());

  // Shutdown with the connection idle: must not hang, and the client sees a
  // clean EOF rather than a reset mid-response.
  server->Shutdown();
  server.reset();
  char c = 0;
  EXPECT_EQ(0, ::read(fd, &c, 1));
  ::close(fd);
}

TEST(ServerTest, StartFailsOnEmptyRegistry) {
  ModelRegistry registry;
  Server server(&registry);
  EXPECT_EQ(server.Start().code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------- Served vs offline bit-identity

TEST(ServeDetectorTest, ServedVerdictsMatchOfflineReport) {
  // Train a small detector the offline way, bundle it through disk, serve
  // it, and ask the served detector about every cell of the table. The
  // served verdicts must reproduce the offline report's predictions exactly
  // — the acceptance invariant of the serve subsystem.
  datagen::GenOptions gen;
  gen.scale = 0.08;
  gen.seed = 5;
  const datagen::DatasetPair pair = datagen::MakeHospital(gen);

  core::DetectorOptions options;
  options.model = "etsb";
  options.n_label_tuples = 12;
  options.units = 16;
  options.char_emb_dim = 8;
  options.trainer.epochs = 10;
  options.seed = 11;
  core::ErrorDetector detector(options);
  core::TrainedDetector trained;
  auto report = detector.Run(pair.dirty, pair.clean, &trained);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_NE(trained.model, nullptr);

  const std::string dir = TempDir("birnn_served_vs_offline");
  ASSERT_TRUE(SaveDetectorBundle(trained, dir).ok());
  auto loaded = LoadDetectorBundle(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const int n_attrs = pair.dirty.num_columns();
  const int n_rows = static_cast<int>(pair.dirty.num_rows());
  MicroBatcher batcher(*loaded);
  int64_t checked = 0;
  for (int r = 0; r < n_rows; ++r) {
    std::vector<CellQuery> row;
    for (int a = 0; a < n_attrs; ++a) {
      CellQuery q;
      q.attr = a;
      q.value = pair.dirty.cell(r, a);
      row.push_back(std::move(q));
    }
    std::vector<CellVerdict> verdicts;
    ASSERT_TRUE(batcher.Detect(row, &verdicts).ok());
    ASSERT_EQ(verdicts.size(), static_cast<size_t>(n_attrs));
    for (int a = 0; a < n_attrs; ++a) {
      const uint8_t offline =
          report->predicted[static_cast<size_t>(r) * n_attrs + a];
      ASSERT_EQ(verdicts[static_cast<size_t>(a)].is_error, offline != 0)
          << "cell (" << r << "," << a << ") value '" << pair.dirty.cell(r, a)
          << "'";
      ++checked;
    }
  }
  EXPECT_EQ(checked, static_cast<int64_t>(n_rows) * n_attrs);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace birnn::serve
