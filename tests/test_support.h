// Helpers that several test binaries share: the hand-built tiny detector,
// temp dirs and file I/O, a blocking batcher call, and a line client for
// the serve plane's sockets. Each helper is defined once, here.

#ifndef BIRNN_TESTS_TEST_SUPPORT_H_
#define BIRNN_TESTS_TEST_SUPPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.h"
#include "serve/batcher.h"
#include "serve/bundle.h"
#include "util/status.h"

namespace birnn::test {

// ------------------------------------------------------ Hand-built detector

/// An untrained 3-attribute detector ("id", "name", "score"; max_len 12,
/// one stack of 8 units) with frozen column statistics: streaming- and
/// serving-capable without a training run. Random weights are fine for the
/// tests that use it: they assert consistency between paths, not accuracy.
core::TrainedDetector MakeTinyTrained(uint64_t seed = 99);

/// MakeTinyTrained, loaded for serving.
serve::LoadedDetector MakeTinyDetector(uint64_t seed = 99);

/// MakeTinyTrained, loaded and shared — the form sessions take.
std::shared_ptr<const serve::LoadedDetector> MakeTinyShared(
    uint64_t seed = 99);

// -------------------------------------------------------- Files and dirs

/// A fresh, empty path `name_<pid>` under the system temp dir (removed if
/// it exists), so concurrent runs of one binary never share a directory.
std::string TempDir(const std::string& name);

/// Whole file contents ("" when unreadable).
std::string ReadFile(const std::string& path);

/// Replaces `path` with `bytes`.
void WriteFile(const std::string& path, const std::string& bytes);

// ----------------------------------------------------------------- Batcher

/// Submits `cells` to `batcher` and waits for the answer. The wait times
/// out after 20 s, like the line client's reads, so a batcher that loses an
/// admitted request fails the test (Status::Internal) instead of hanging
/// it.
Status Detect(serve::MicroBatcher* batcher,
              const std::vector<serve::CellQuery>& cells,
              std::vector<serve::CellVerdict>* verdicts);

// ------------------------------------------------------------ Line client

/// A TCP connection to 127.0.0.1:`port` whose reads time out after 20 s
/// (SO_RCVTIMEO), so a lost response fails the test instead of hanging it.
int ConnectTo(int port);

/// Writes all of `bytes`.
void SendRaw(int fd, const std::string& bytes);

/// Reads one '\n'-terminated line, without the newline. Consumes nothing
/// past it, so pipelined responses stay in the socket. Returns "" on EOF,
/// error or timeout before a newline.
std::string ReadLine(int fd);

/// Sends one request line and reads one response line.
std::string RoundTrip(int fd, const std::string& line);

}  // namespace birnn::test

#endif  // BIRNN_TESTS_TEST_SUPPORT_H_
