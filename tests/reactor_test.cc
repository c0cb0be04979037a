// Reactor serve-plane tests: the epoll transport must answer a golden
// transcript byte for byte (literal lines, plus detect lines from a
// socket-free oracle), frame CRLF and blank keep-alive lines correctly,
// answer seeded fuzzed request lines with one typed response each, survive
// hostile and fragmented input, keep pipelined responses in request order,
// answer concurrent connections with the oracle's bytes, shed typed errors
// at the connection cap and the admission queue without losing a request,
// pause slow readers instead of ballooning, and hot-swap model bundles
// without dropping one in-flight request.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
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
#include "test_support.h"
#include "util/rng.h"

namespace birnn::serve {
namespace {

using test::ConnectTo;
using test::MakeTinyDetector;
using test::MakeTinyTrained;
using test::ReadLine;
using test::RoundTrip;
using test::SendRaw;
using test::TempDir;

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
  options.reactor_threads = 2;
  return options;
}

// The socket-free oracle: the exact response line `detector` produces for
// each detect request line, through the ParseRequest -> Detect ->
// OkDetectResponse chain the server runs per line, with no transport. The
// oracle's batcher has no window: batching never changes an answer.
std::vector<std::string> OracleDetectResponses(
    const LoadedDetector& detector, const std::vector<std::string>& lines) {
  BatcherOptions options;
  options.max_delay_us = 0;
  MicroBatcher batcher(detector, options);
  std::vector<std::string> responses;
  for (const std::string& line : lines) {
    auto request = ParseRequest(line);
    EXPECT_TRUE(request.ok());
    std::vector<CellVerdict> verdicts;
    EXPECT_TRUE(test::Detect(&batcher, request->cells, &verdicts).ok());
    responses.push_back(OkDetectResponse(request->id, verdicts));
  }
  return responses;
}

std::string OracleDetectResponse(const LoadedDetector& detector,
                                 const std::string& line) {
  return OracleDetectResponses(detector, {line}).front();
}

// ------------------------------------------------------ Golden transcript

// One scripted exchange: the raw bytes sent (framing included) and the
// response line they must produce; an empty `expected` means the bytes are
// a keep-alive line that must be answered with nothing.
struct Exchange {
  std::string sent;
  std::string expected;
};

// The golden transcript. Literal lines pin the non-detect responses; detect
// lines come from the oracle over an independently built copy of the
// served detector (same seed, same weights).
std::vector<Exchange> GoldenTranscript() {
  const LoadedDetector oracle = MakeTinyDetector();
  const auto detect = [&oracle](const std::string& id, int salt,
                                const char* framing) {
    const std::string line = DetectRequest(id, salt);
    return Exchange{line + framing, OracleDetectResponse(oracle, line)};
  };
  return {
      {R"({"id":"p","op":"ping"})" "\n",
       R"({"id":"p","status":"OK","pong":true})"},
      {R"({"op":"models"})" "\n",
       R"({"id":null,"status":"OK","models":["tiny"]})"},
      detect("d1", 1, "\n"),
      {"\n", ""},  // blank keep-alive line
      detect("d2", 2, "\n"),
      {"\r\n", ""},  // '\r'-only keep-alive line
      detect("d2", 2, "\r\n"),  // CRLF twin of the line above
      {R"({"op":"detect","model":"nope","cells":[]})" "\n",
       R"({"id":null,"status":"NOT_FOUND","message":"unknown model: nope"})"},
      {"garbage {\n",
       R"({"id":null,"status":"INVALID_ARGUMENT",)"
       R"("message":"expected JSON value"})"},
      {R"({"op":"explode"})" "\n",
       R"({"id":null,"status":"INVALID_ARGUMENT",)"
       R"("message":"unknown op: explode"})"},
      {R"({"cells":[{"value":"x"}]})" "\n",
       R"({"id":null,"status":"INVALID_ARGUMENT",)"
       R"("message":"cell is missing \"attr\""})"},
      {"\n\r\n\n", ""},  // a run of keep-alive lines
      detect("d3", 3, "\n"),
      {R"({"id":"p2","op":"ping"})" "\r\n",
       R"({"id":"p2","status":"OK","pong":true})"},
  };
}

TEST(ReactorTest, AnswersMatchGoldenTranscript) {
  // The reactor's acceptance bar: every response byte matches the golden
  // transcript, keep-alive lines answer nothing and shift nothing, and a
  // CRLF-framed request answers exactly like its '\n' twin.
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", MakeTinyDetector()).ok());
  Server server(&registry, ReactorOptions4Test());
  ASSERT_TRUE(server.Start().ok());
  const std::vector<Exchange> transcript = GoldenTranscript();

  // One exchange at a time: each request's bytes alone on the wire.
  const int fd = ConnectTo(server.port());
  for (const Exchange& exchange : transcript) {
    SendRaw(fd, exchange.sent);
    if (exchange.expected.empty()) continue;
    EXPECT_EQ(exchange.expected, ReadLine(fd)) << "request: " << exchange.sent;
  }
  ::close(fd);

  // The whole transcript pipelined in one write: the same responses, in
  // order, none for the keep-alive lines.
  const int pipelined_fd = ConnectTo(server.port());
  std::string burst;
  for (const Exchange& exchange : transcript) burst += exchange.sent;
  SendRaw(pipelined_fd, burst);
  for (const Exchange& exchange : transcript) {
    if (exchange.expected.empty()) continue;
    EXPECT_EQ(exchange.expected, ReadLine(pipelined_fd))
        << "request: " << exchange.sent;
  }
  // Nothing stray is queued behind the last answer.
  EXPECT_EQ(RoundTrip(pipelined_fd, R"({"id":"end","op":"ping"})"),
            R"({"id":"end","status":"OK","pong":true})");
  ::close(pipelined_fd);
  server.Shutdown();
}

// --------------------------------------------------- Seeded protocol fuzzing

// One random byte flip, insert, delete or truncation of `line`. Never
// produces '\n', so a mutant always frames as exactly one request line.
std::string Mutate(std::string line, Rng* rng) {
  const auto random_byte = [rng] {
    char c = '\n';
    while (c == '\n') c = static_cast<char>(rng->UniformInt(256));
    return c;
  };
  const size_t pos =
      line.empty() ? 0 : static_cast<size_t>(rng->UniformInt(line.size()));
  switch (rng->UniformInt(4)) {
    case 0:  // flip
      if (!line.empty()) line[pos] = random_byte();
      break;
    case 1:  // insert
      line.insert(line.begin() + static_cast<std::ptrdiff_t>(pos),
                  random_byte());
      break;
    case 2:  // delete
      if (!line.empty()) line.erase(pos, 1);
      break;
    default:  // truncate
      line.resize(pos);
      break;
  }
  return line;
}

class ProtocolFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProtocolFuzzTest, MutatedLinesGetOneTypedResponseEach) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Add("tiny", MakeTinyDetector()).ok());
  Server server(&registry, ReactorOptions4Test());
  ASSERT_TRUE(server.Start().ok());

  std::vector<std::string> seeds;
  for (const Exchange& exchange : GoldenTranscript()) {
    if (exchange.expected.empty()) continue;
    std::string line = exchange.sent.substr(0, exchange.sent.find('\n'));
    if (!line.empty() && line.back() == '\r') line.pop_back();
    seeds.push_back(std::move(line));
  }

  // Mutants that would close the connection or change server state are
  // dropped, so every seed's run is hermetic.
  Rng rng(GetParam());
  constexpr size_t kMutants = 200;
  std::vector<std::string> mutants;
  while (mutants.size() < kMutants) {
    std::string line = seeds[rng.UniformInt(seeds.size())];
    const int rounds = static_cast<int>(rng.UniformRange(1, 4));
    for (int i = 0; i < rounds; ++i) line = Mutate(std::move(line), &rng);
    auto request = ParseRequest(line);
    if (request.ok() &&
        (request->op == "quit" || request->op == "reload" ||
         request->op == "rollback" || request->op == "adapt" ||
         request->op == "delta")) {
      continue;
    }
    mutants.push_back(std::move(line));
  }

  const int fd = ConnectTo(server.port());
  std::string burst;
  for (const std::string& line : mutants) burst += line + "\n";
  SendRaw(fd, burst);

  const std::vector<std::string> typed_errors = {
      "INVALID_ARGUMENT", "NOT_FOUND", "FAILED_PRECONDITION", "OUT_OF_RANGE",
      "INTERNAL", "OVERLOADED"};
  int answered = 0;
  for (std::string line : mutants) {
    // The framer strips one trailing '\r' and skips the empty remainder.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    auto response = JsonValue::Parse(ReadLine(fd));
    ASSERT_TRUE(response.ok()) << "request: " << line;
    ASSERT_TRUE(response->is_object()) << "request: " << line;
    // In order: each response echoes its own request's id (null when the
    // line never parsed).
    auto request = ParseRequest(line);
    EXPECT_EQ(response->GetString("id"), request.ok() ? request->id : "")
        << "request: " << line;
    const std::string status = response->GetString("status");
    if (status != "OK") {
      EXPECT_NE(std::find(typed_errors.begin(), typed_errors.end(), status),
                typed_errors.end())
          << "status " << status << " for request: " << line;
      ASSERT_NE(response->Find("message"), nullptr) << "request: " << line;
      EXPECT_TRUE(response->Find("message")->is_string());
    }
    if (!request.ok()) {
      EXPECT_EQ(status, "INVALID_ARGUMENT") << "request: " << line;
    }
    ++answered;
  }
  EXPECT_GT(answered, 0);

  // The connection survived the barrage.
  EXPECT_EQ(RoundTrip(fd, R"({"id":"alive","op":"ping"})"),
            R"({"id":"alive","status":"OK","pong":true})");
  ::close(fd);
  server.Shutdown();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzzTest,
                         ::testing::Range<uint64_t>(0, 8));

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
  // Two shapes: 128 connections with one detect each, at the default
  // admission queue, where nothing may shed; and 32 connections that each
  // pipeline 16 detects into a queue that holds two 3-cell requests, where
  // some must shed and not all. Either way every request gets exactly one
  // line, in order: the socket-free oracle's bytes, or a typed OVERLOADED
  // for its id.
  struct Shape {
    int conns;
    int burst;
    int queue_capacity;
  };
  for (const Shape shape :
       {Shape{128, 1, BatcherOptions().queue_capacity}, Shape{32, 16, 8}}) {
    SCOPED_TRACE("queue capacity " + std::to_string(shape.queue_capacity));
    ModelRegistry registry;
    ASSERT_TRUE(registry.Add("tiny", MakeTinyDetector()).ok());
    ServerOptions options = ReactorOptions4Test();
    options.batcher.queue_capacity = shape.queue_capacity;
    Server server(&registry, options);
    ASSERT_TRUE(server.Start().ok());

    std::vector<std::string> ids;
    std::vector<std::string> lines;
    for (int c = 0; c < shape.conns; ++c) {
      for (int i = 0; i < shape.burst; ++i) {
        ids.push_back("c" + std::to_string(c) + "." + std::to_string(i));
        lines.push_back(DetectRequest(ids.back(), c * shape.burst + i));
      }
    }
    const std::vector<std::string> expected =
        OracleDetectResponses(MakeTinyDetector(), lines);

    // All open simultaneously; fire every burst, then collect.
    std::vector<int> fds;
    for (int c = 0; c < shape.conns; ++c) {
      // A lost response fails the read instead of hanging the test.
      fds.push_back(ConnectTo(server.port()));
    }
    for (int c = 0; c < shape.conns; ++c) {
      std::string burst;
      for (int i = 0; i < shape.burst; ++i) {
        burst += lines[static_cast<size_t>(c * shape.burst + i)] + "\n";
      }
      SendRaw(fds[static_cast<size_t>(c)], burst);
    }

    int answered = 0;
    int shed = 0;
    for (int c = 0; c < shape.conns; ++c) {
      for (int i = 0; i < shape.burst; ++i) {
        const size_t k = static_cast<size_t>(c * shape.burst + i);
        const std::string got = ReadLine(fds[static_cast<size_t>(c)]);
        ASSERT_FALSE(got.empty()) << "lost request " << ids[k];
        if (got == expected[k]) {
          ++answered;
          continue;
        }
        auto response = JsonValue::Parse(got);
        ASSERT_TRUE(response.ok()) << got;
        EXPECT_EQ(response->GetString("id"), ids[k]) << got;
        EXPECT_EQ(response->GetString("status"), "OVERLOADED") << got;
        ++shed;
      }
    }
    // Nothing stray is queued behind the last answer on any connection.
    for (const int fd : fds) {
      EXPECT_EQ(RoundTrip(fd, R"({"id":"end","op":"ping"})"),
                R"({"id":"end","status":"OK","pong":true})");
      ::close(fd);
    }
    EXPECT_EQ(answered + shed, shape.conns * shape.burst);
    EXPECT_GT(answered, 0) << "the admission queue shed everything";
    if (shape.burst == 1) {
      EXPECT_EQ(shed, 0) << "shed below the admission bound";
    } else {
      EXPECT_GT(shed, 0) << "the admission queue never shed";
    }
    server.Shutdown();
  }
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
    return OracleDetectResponse(*loaded, DetectRequest(id));
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

TEST_F(HotReloadTest, ReloadOntoATornBundleAnswersAnErrorAndKeepsServing) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.LoadBundle("tiny", v1_dir_).ok());
  Server server(&registry, ReactorOptions4Test());
  ASSERT_TRUE(server.Start().ok());
  const std::string v1_response = ExpectedResponse(v1_dir_, "t");

  // A re-save of v2 over a copy of v1 that stopped between its two renames:
  // v2's weights under v1's manifest.
  const std::string torn_dir = TempDir("birnn_reload_torn");
  std::filesystem::copy(v1_dir_, torn_dir);
  std::filesystem::copy_file(v2_dir_ + "/weights.ckpt",
                             torn_dir + "/weights.ckpt",
                             std::filesystem::copy_options::overwrite_existing);

  const int fd = ConnectTo(server.port());
  auto reloaded = JsonValue::Parse(RoundTrip(
      fd, R"({"op":"reload","dir":")" + torn_dir + R"("})"));
  ASSERT_TRUE(reloaded.ok());
  EXPECT_NE(reloaded->GetString("status"), "OK");
  EXPECT_EQ(RoundTrip(fd, DetectRequest("t")), v1_response);
  EXPECT_EQ(server.ModelGeneration("tiny"), 1);
  ::close(fd);
  server.Shutdown();
  std::filesystem::remove_all(torn_dir);
}

}  // namespace
}  // namespace birnn::serve
