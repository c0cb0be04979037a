#include "test_support.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <utility>

#include "data/dictionary.h"

namespace birnn::test {

core::TrainedDetector MakeTinyTrained(uint64_t seed) {
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
  trained.attr_empty_rate = {0.0f, 0.0f, 0.0f};
  trained.attr_error_rate = {0.0f, 0.0f, 0.0f};
  trained.has_frozen_stats = true;
  return trained;
}

serve::LoadedDetector MakeTinyDetector(uint64_t seed) {
  auto loaded = serve::MakeLoadedDetector(MakeTinyTrained(seed));
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::move(loaded).value();
}

std::shared_ptr<const serve::LoadedDetector> MakeTinyShared(uint64_t seed) {
  return std::make_shared<const serve::LoadedDetector>(
      MakeTinyDetector(seed));
}

std::string TempDir(const std::string& name) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           (name + "_" + std::to_string(::getpid())))
                              .string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Status Detect(serve::MicroBatcher* batcher,
              const std::vector<serve::CellQuery>& cells,
              std::vector<serve::CellVerdict>* verdicts) {
  // Shared with the callback, which may still run after a timed-out wait.
  struct Answer {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
    std::vector<serve::CellVerdict> verdicts;
  };
  auto answer = std::make_shared<Answer>();
  batcher->Submit(cells, [answer](const Status& status,
                                  const std::vector<serve::CellVerdict>& got) {
    std::lock_guard<std::mutex> lock(answer->mu);
    answer->status = status;
    answer->verdicts = got;
    answer->done = true;
    answer->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(answer->mu);
  if (!answer->cv.wait_for(lock, std::chrono::seconds(20),
                           [&] { return answer->done; })) {
    return Status::Internal("the batcher gave no answer within 20 s");
  }
  *verdicts = std::move(answer->verdicts);
  return answer->status;
}

int ConnectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval timeout{20, 0};
  EXPECT_EQ(0, ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                            sizeof(timeout)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(0,
            ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)));
  return fd;
}

void SendRaw(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (n <= 0) {
      ADD_FAILURE() << "write failed after " << sent << " of " << bytes.size()
                    << " bytes";
      return;
    }
    sent += static_cast<size_t>(n);
  }
}

std::string ReadLine(int fd) {
  std::string line;
  char buf[4096];
  for (;;) {
    // Peek, then consume only through the newline. A read() per byte made
    // oracle_test's socket arm 0.82-0.92 s instead of 0.34-0.35 s (eight
    // cases, Release, native, shared 4-vCPU VM).
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_PEEK);
    if (n <= 0) return std::string();
    const size_t peeked = static_cast<size_t>(n);
    const char* newline =
        static_cast<const char*>(std::memchr(buf, '\n', peeked));
    const size_t take =
        newline != nullptr ? static_cast<size_t>(newline - buf) + 1 : peeked;
    if (::recv(fd, buf, take, 0) != static_cast<ssize_t>(take)) {
      return std::string();
    }
    if (newline != nullptr) {
      line.append(buf, take - 1);
      return line;
    }
    line.append(buf, take);
  }
}

std::string RoundTrip(int fd, const std::string& line) {
  SendRaw(fd, line + "\n");
  return ReadLine(fd);
}

}  // namespace birnn::test
