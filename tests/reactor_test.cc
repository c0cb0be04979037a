// Reactor serve-plane tests: the epoll transport must speak the exact same
// protocol as the blocking baseline (byte-identical responses), survive
// hostile and fragmented input, keep pipelined responses in request order,
// shed typed errors at the connection cap, pause slow readers instead of
// ballooning, and hot-swap model bundles without dropping one in-flight
// request.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/model.h"
#include "serve/batcher.h"
#include "serve/bundle.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace birnn::serve {
namespace {

core::TrainedDetector MakeTinyTrained(uint64_t seed = 99) {
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
  config.seed = seed;
  trained.config = config;
  trained.model = std::make_unique<core::ErrorDetectionModel>(config);
  trained.attr_names = {"id", "name", "score"};
  trained.attr_max_value_len = {8, 12, 6};
  return trained;
}

LoadedDetector MakeTinyDetector(uint64_t seed = 99) {
  auto loaded = MakeLoadedDetector(MakeTinyTrained(seed));
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::move(loaded).value();
}

std::string TempDir(const char* name) {
  // Per process: concurrent runs of this binary must not share bundles.
  const std::string dir = (std::filesystem::temp_directory_path() /
                           (std::string(name) + "_" +
                            std::to_string(::getpid())))
                              .string();
  std::filesystem::remove_all(dir);
  return dir;
}

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

// Reads one '\n'-terminated line; empty string means EOF before a newline.
std::string ReadLine(int fd) {
  std::string line;
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') return line;
    line.push_back(c);
  }
  return std::string();
}

void SendRaw(int fd, const std::string& bytes) {
  ASSERT_EQ(static_cast<ssize_t>(bytes.size()),
            ::write(fd, bytes.data(), bytes.size()));
}

std::string RoundTrip(int fd, const std::string& line) {
  SendRaw(fd, line + "\n");
  return ReadLine(fd);
}

std::string DetectRequest(const std::string& id, int salt = 0) {
  std::string request = R"({"id":")" + id + R"(","cells":[)";
  for (int i = 0; i < 3; ++i) {
    if (i > 0) request += ",";
    request += R"({"attr":)" + std::to_string(i) + R"(,"value":"cell )" +
               std::to_string((salt * 7 + i * 13) % 31) + R"("})";
  }
  return request + "]}";
}

ServerOptions ReactorOptions4Test() {
  ServerOptions options;
  options.mode = ServeMode::kReactor;
  options.reactor_threads = 2;
  return options;
}

// ------------------------------------------- Byte-identity across transports

TEST(ReactorTest, BothTransportsAnswerByteIdentically) {
  // The reactor's acceptance bar: for the same request stream, its response
  // bytes must be indistinguishable from the blocking baseline's.
  ModelRegistry blocking_registry, reactor_registry;
  ASSERT_TRUE(blocking_registry.Add("tiny", MakeTinyDetector()).ok());
  ASSERT_TRUE(reactor_registry.Add("tiny", MakeTinyDetector()).ok());

  ServerOptions blocking_options;
  blocking_options.mode = ServeMode::kBlocking;
  Server blocking(&blocking_registry, blocking_options);
  Server reactor(&reactor_registry, ReactorOptions4Test());
  ASSERT_TRUE(blocking.Start().ok());
  ASSERT_TRUE(reactor.Start().ok());

  const std::vector<std::string> script = {
      R"({"id":"p","op":"ping"})",
      R"({"op":"models"})",
      DetectRequest("d1", 1),
      DetectRequest("d2", 2),
      R"({"op":"detect","model":"nope","cells":[]})",  // NOT_FOUND
      "garbage {",                                      // INVALID_ARGUMENT
      R"({"op":"explode"})",                            // unknown op
      R"({"cells":[{"value":"x"}]})",                   // cell missing attr
      DetectRequest("d3", 3),
  };

  const int blocking_fd = ConnectTo(blocking.port());
  const int reactor_fd = ConnectTo(reactor.port());
  for (const std::string& line : script) {
    const std::string expected = RoundTrip(blocking_fd, line);
    const std::string actual = RoundTrip(reactor_fd, line);
    EXPECT_EQ(expected, actual) << "request: " << line;
    EXPECT_FALSE(actual.empty());
  }
  ::close(blocking_fd);
  ::close(reactor_fd);
  blocking.Shutdown();
  reactor.Shutdown();
}

// ----------------------------------------------------- Pipelining + ordering

TEST(ReactorTest, PipelinedRequestsAnswerInRequestOrder) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", MakeTinyDetector()).ok());
  Server server(&registry, ReactorOptions4Test());
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectTo(server.port());
  constexpr int kRequests = 50;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += DetectRequest("r" + std::to_string(i), i) + "\n";
  }
  SendRaw(fd, burst);  // all 50 at once — completions race, delivery may not
  for (int i = 0; i < kRequests; ++i) {
    auto response = JsonValue::Parse(ReadLine(fd));
    ASSERT_TRUE(response.ok()) << "response " << i;
    EXPECT_EQ(response->GetString("id"), "r" + std::to_string(i));
    EXPECT_EQ(response->GetString("status"), "OK");
  }
  ::close(fd);
  server.Shutdown();
}

TEST(ReactorTest, HalfCloseStillAnswersEveryPipelinedRequest) {
  // A client that writes its whole burst and shutdown(SHUT_WR)s must still
  // receive every response, then a clean EOF.
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", MakeTinyDetector()).ok());
  Server server(&registry, ReactorOptions4Test());
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectTo(server.port());
  constexpr int kRequests = 10;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += DetectRequest("h" + std::to_string(i), i) + "\n";
  }
  SendRaw(fd, burst);
  ASSERT_EQ(0, ::shutdown(fd, SHUT_WR));
  for (int i = 0; i < kRequests; ++i) {
    auto response = JsonValue::Parse(ReadLine(fd));
    ASSERT_TRUE(response.ok()) << "response " << i;
    EXPECT_EQ(response->GetString("id"), "h" + std::to_string(i));
  }
  char c = 0;
  EXPECT_EQ(0, ::read(fd, &c, 1));  // EOF, not a hang or reset
  ::close(fd);
  server.Shutdown();
}

TEST(ReactorTest, QuitClosesAfterEarlierResponsesFlush) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", MakeTinyDetector()).ok());
  Server server(&registry, ReactorOptions4Test());
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectTo(server.port());
  SendRaw(fd, DetectRequest("before-quit") + "\n" + R"({"op":"quit"})" "\n");
  auto response = JsonValue::Parse(ReadLine(fd));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("id"), "before-quit");
  char c = 0;
  EXPECT_EQ(0, ::read(fd, &c, 1));  // quit answers nothing, then EOF
  ::close(fd);
  server.Shutdown();
}

// -------------------------------------------------- Malformed/hostile input

TEST(ReactorTest, SplitAcrossReadsRequestStillParses) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", MakeTinyDetector()).ok());
  Server server(&registry, ReactorOptions4Test());
  ASSERT_TRUE(server.Start().ok());

  const int reference_fd = ConnectTo(server.port());
  const std::string request = DetectRequest("frag");
  const std::string expected = RoundTrip(reference_fd, request);
  ::close(reference_fd);

  // The same request dribbled in 3-byte chunks must produce the same bytes
  // — the framer may see any fragmentation TCP cares to deliver.
  const int fd = ConnectTo(server.port());
  const std::string framed = request + "\n";
  for (size_t i = 0; i < framed.size(); i += 3) {
    SendRaw(fd, framed.substr(i, 3));
    if (i % 30 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(expected, ReadLine(fd));
  ::close(fd);
  server.Shutdown();
}

TEST(ReactorTest, OversizedLineGetsTypedErrorAndClose) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", MakeTinyDetector()).ok());
  ServerOptions options = ReactorOptions4Test();
  options.max_line_bytes = 4096;
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectTo(server.port());
  SendRaw(fd, std::string(64 * 1024, 'a'));  // no newline, 16x the cap
  auto response = JsonValue::Parse(ReadLine(fd));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("status"), "INVALID_ARGUMENT");
  char c = 0;
  EXPECT_EQ(0, ::read(fd, &c, 1));  // connection closed afterwards
  ::close(fd);

  // The server is unharmed: a fresh connection works.
  const int fd2 = ConnectTo(server.port());
  auto ok = JsonValue::Parse(RoundTrip(fd2, DetectRequest("after")));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->GetString("status"), "OK");
  ::close(fd2);
  server.Shutdown();
}

TEST(ReactorTest, AbruptDisconnectMidRequestIsHarmless) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", MakeTinyDetector()).ok());
  Server server(&registry, ReactorOptions4Test());
  ASSERT_TRUE(server.Start().ok());

  // Half a request, then a hard close.
  {
    const int fd = ConnectTo(server.port());
    SendRaw(fd, DetectRequest("never-finished").substr(0, 20));
    ::close(fd);
  }
  // A full request whose response the client never reads.
  {
    const int fd = ConnectTo(server.port());
    SendRaw(fd, DetectRequest("never-read") + "\n");
    ::close(fd);
  }
  // A reset (nonzero SO_LINGER, close == RST) mid-stream.
  {
    const int fd = ConnectTo(server.port());
    SendRaw(fd, DetectRequest("rst") + "\n");
    struct linger hard = {1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
    ::close(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // No crash, no leaked state: normal service continues.
  const int fd = ConnectTo(server.port());
  auto ok = JsonValue::Parse(RoundTrip(fd, DetectRequest("alive")));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->GetString("status"), "OK");
  ::close(fd);
  server.Shutdown();
}

// ------------------------------------------------ Admission + backpressure

TEST(ReactorTest, ConnectionCapShedsWithTypedOverloaded) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", MakeTinyDetector()).ok());
  ServerOptions options = ReactorOptions4Test();
  options.max_connections = 4;
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());

  // Fill the cap; the ping round trip guarantees each is fully admitted.
  std::vector<int> held;
  for (int i = 0; i < 4; ++i) {
    const int fd = ConnectTo(server.port());
    auto pong = JsonValue::Parse(RoundTrip(fd, R"({"op":"ping"})"));
    ASSERT_TRUE(pong.ok());
    held.push_back(fd);
  }

  // One over: the connect succeeds (TCP accepts), but the server answers
  // with a typed OVERLOADED line and closes — not a silent drop or a hang.
  const int over = ConnectTo(server.port());
  auto shed = JsonValue::Parse(ReadLine(over));
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->GetString("status"), "OVERLOADED");
  char c = 0;
  EXPECT_EQ(0, ::read(over, &c, 1));
  ::close(over);

  // Freeing one slot readmits.
  ::close(held.back());
  held.pop_back();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const int readmitted = ConnectTo(server.port());
  auto pong = JsonValue::Parse(RoundTrip(readmitted, R"({"op":"ping"})"));
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong->GetString("status"), "OK");
  ::close(readmitted);
  for (const int fd : held) ::close(fd);
  server.Shutdown();
}

TEST(ReactorTest, SlowReaderIsPausedNotUnbounded) {
  // With a tiny output backlog, a client that floods requests without
  // reading responses gets its *reads* paused; once it starts consuming,
  // every response arrives, in order.
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", MakeTinyDetector()).ok());
  ServerOptions options = ReactorOptions4Test();
  options.max_output_backlog = 4096;  // ~30 responses' worth
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());

  const int fd = ConnectTo(server.port());
  constexpr int kRequests = 300;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    burst += DetectRequest("s" + std::to_string(i), i) + "\n";
  }
  SendRaw(fd, burst);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // let it jam
  for (int i = 0; i < kRequests; ++i) {
    auto response = JsonValue::Parse(ReadLine(fd));
    ASSERT_TRUE(response.ok()) << "response " << i;
    EXPECT_EQ(response->GetString("id"), "s" + std::to_string(i));
    EXPECT_EQ(response->GetString("status"), "OK");
  }
  ::close(fd);
  server.Shutdown();
}

TEST(ReactorTest, ManyConcurrentConnectionsAllServed) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", MakeTinyDetector()).ok());
  Server server(&registry, ReactorOptions4Test());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kConns = 128;
  std::vector<int> fds;
  fds.reserve(kConns);
  for (int i = 0; i < kConns; ++i) fds.push_back(ConnectTo(server.port()));
  // All open simultaneously; fire a detect on each, then collect.
  for (int i = 0; i < kConns; ++i) {
    SendRaw(fds[static_cast<size_t>(i)],
            DetectRequest("c" + std::to_string(i), i) + "\n");
  }
  for (int i = 0; i < kConns; ++i) {
    auto response =
        JsonValue::Parse(ReadLine(fds[static_cast<size_t>(i)]));
    ASSERT_TRUE(response.ok()) << "conn " << i;
    EXPECT_EQ(response->GetString("id"), "c" + std::to_string(i));
    EXPECT_EQ(response->GetString("status"), "OK");
  }
  for (const int fd : fds) ::close(fd);
  server.Shutdown();
}

// -------------------------------------------------- Hot reload and rollback

class HotReloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    v1_dir_ = TempDir("birnn_reload_v1");
    v2_dir_ = TempDir("birnn_reload_v2");
    ASSERT_TRUE(SaveDetectorBundle(MakeTinyTrained(99), v1_dir_).ok());
    ASSERT_TRUE(SaveDetectorBundle(MakeTinyTrained(1234), v2_dir_).ok());
  }
  void TearDown() override {
    std::filesystem::remove_all(v1_dir_);
    std::filesystem::remove_all(v2_dir_);
  }

  // The exact response line each bundle produces for DetectRequest(id).
  std::string ExpectedResponse(const std::string& dir,
                               const std::string& id) {
    auto loaded = LoadDetectorBundle(dir);
    EXPECT_TRUE(loaded.ok());
    MicroBatcher batcher(*loaded);
    auto request = ParseRequest(DetectRequest(id));
    EXPECT_TRUE(request.ok());
    std::vector<CellVerdict> verdicts;
    EXPECT_TRUE(batcher.Detect(request->cells, &verdicts).ok());
    return OkDetectResponse(id, verdicts);
  }

  std::string v1_dir_, v2_dir_;
};

TEST_F(HotReloadTest, ReloadSwapsWithZeroDroppedRequests) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadBundle("tiny", v1_dir_).ok());
  Server server(&registry, ReactorOptions4Test());
  ASSERT_TRUE(server.Start().ok());

  const std::string v1_response = ExpectedResponse(v1_dir_, "x");
  const std::string v2_response = ExpectedResponse(v2_dir_, "x");
  ASSERT_NE(v1_response, v2_response);  // the swap must be observable

  // Hammer detect from several connections while the reload happens. The
  // zero-drop guarantee: every single request gets an answer, and every
  // answer is exactly v1's bytes or v2's bytes — never an error, never a
  // closed socket, never a torn read.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 150;
  std::atomic<int> answered{0}, v1_seen{0}, v2_seen{0}, wrong{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  const int port = server.port();
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, port] {
      const int fd = ConnectTo(port);
      for (int i = 0; i < kPerThread; ++i) {
        const std::string response = RoundTrip(fd, DetectRequest("x"));
        if (response == v1_response) {
          v1_seen.fetch_add(1);
        } else if (response == v2_response) {
          v2_seen.fetch_add(1);
        } else {
          wrong.fetch_add(1);
          ADD_FAILURE() << "unexpected response: " << response;
        }
        answered.fetch_add(1);
      }
      ::close(fd);
    });
  }

  // Mid-hammer, swap the bundle over the wire.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const int admin = ConnectTo(port);
  auto reloaded = JsonValue::Parse(RoundTrip(
      admin, R"({"id":"a","op":"reload","dir":")" + v2_dir_ + R"("})"));
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->GetString("status"), "OK");
  EXPECT_EQ(reloaded->GetNumber("generation"), 2.0);
  ::close(admin);

  for (std::thread& client : clients) client.join();
  EXPECT_EQ(answered.load(), kThreads * kPerThread);  // zero dropped
  EXPECT_EQ(wrong.load(), 0);
  // The swap happened mid-stream: v2 answers must have started.
  EXPECT_GT(v2_seen.load(), 0);
  EXPECT_EQ(server.ModelGeneration("tiny"), 2);
  // The registry tracked the swap.
  ASSERT_NE(registry.Get("tiny"), nullptr);
  server.Shutdown();
}

TEST_F(HotReloadTest, RollbackRestoresPreviousWeights) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadBundle("tiny", v1_dir_).ok());
  Server server(&registry, ReactorOptions4Test());
  ASSERT_TRUE(server.Start().ok());

  const std::string v1_response = ExpectedResponse(v1_dir_, "q");
  const std::string v2_response = ExpectedResponse(v2_dir_, "q");
  const int fd = ConnectTo(server.port());

  // Nothing to roll back to yet.
  auto premature =
      JsonValue::Parse(RoundTrip(fd, R"({"op":"rollback"})"));
  ASSERT_TRUE(premature.ok());
  EXPECT_EQ(premature->GetString("status"), "FAILED_PRECONDITION");

  EXPECT_EQ(RoundTrip(fd, DetectRequest("q")), v1_response);
  auto reloaded = JsonValue::Parse(RoundTrip(
      fd, R"({"op":"reload","dir":")" + v2_dir_ + R"("})"));
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->GetString("status"), "OK");
  EXPECT_EQ(RoundTrip(fd, DetectRequest("q")), v2_response);

  // A reload from a bad directory fails without touching serving.
  auto bad = JsonValue::Parse(RoundTrip(
      fd, R"({"op":"reload","dir":"/nonexistent/bundle"})"));
  ASSERT_TRUE(bad.ok());
  EXPECT_NE(bad->GetString("status"), "OK");
  EXPECT_EQ(RoundTrip(fd, DetectRequest("q")), v2_response);
  EXPECT_EQ(server.ModelGeneration("tiny"), 2);

  auto rolled = JsonValue::Parse(RoundTrip(fd, R"({"op":"rollback"})"));
  ASSERT_TRUE(rolled.ok());
  EXPECT_EQ(rolled->GetString("status"), "OK");
  EXPECT_EQ(rolled->GetNumber("generation"), 3.0);
  EXPECT_EQ(RoundTrip(fd, DetectRequest("q")), v1_response);

  // Stats report the live generation.
  auto stats = JsonValue::Parse(RoundTrip(fd, R"({"op":"stats"})"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->GetNumber("generation"), 3.0);
  ::close(fd);
  server.Shutdown();
}

TEST_F(HotReloadTest, BlockingTransportReloadsToo) {
  // The reload protocol lives above the transport; the blocking server
  // must honor it identically.
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadBundle("tiny", v1_dir_).ok());
  ServerOptions options;
  options.mode = ServeMode::kBlocking;
  Server server(&registry, options);
  ASSERT_TRUE(server.Start().ok());

  const std::string v2_response = ExpectedResponse(v2_dir_, "b");
  const int fd = ConnectTo(server.port());
  auto reloaded = JsonValue::Parse(RoundTrip(
      fd, R"({"op":"reload","dir":")" + v2_dir_ + R"("})"));
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->GetString("status"), "OK");
  EXPECT_EQ(RoundTrip(fd, DetectRequest("b")), v2_response);
  ::close(fd);
  server.Shutdown();
}

}  // namespace
}  // namespace birnn::serve
