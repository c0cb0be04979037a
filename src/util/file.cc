#include "util/file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace birnn::util {

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  static std::atomic<uint64_t> next_temp{0};
  // O_EXCL on a pid + counter name: unique across threads and processes,
  // and created with the umask-governed mode a plain open would give.
  std::string tmp;
  int fd = -1;
  while (fd < 0) {
    tmp = path + ".tmp." + std::to_string(static_cast<long>(::getpid())) +
          "." + std::to_string(next_temp.fetch_add(1));
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd < 0 && errno != EEXIST) {
      return Status::IoError("cannot create " + tmp + ": " +
                             std::strerror(errno));
    }
  }
  const char* failed = nullptr;  // the step that failed, if any.
  for (size_t done = 0; failed == nullptr && done < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n >= 0) {
      done += static_cast<size_t>(n);
    } else if (errno != EINTR) {
      failed = "write";
    }
  }
  if (failed == nullptr && ::fsync(fd) != 0) failed = "fsync";
  int err = errno;
  if (::close(fd) != 0 && failed == nullptr) {
    failed = "close";
    err = errno;
  }
  if (failed == nullptr && std::rename(tmp.c_str(), path.c_str()) != 0) {
    failed = "rename";
    err = errno;
  }
  if (failed != nullptr) {
    ::unlink(tmp.c_str());
    return Status::IoError(std::string(failed) + " failed for " + tmp +
                           " -> " + path + ": " + std::strerror(err));
  }
  // Make the rename itself durable.
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  const bool synced = dir_fd >= 0 && ::fsync(dir_fd) == 0;
  err = errno;
  if (dir_fd >= 0) ::close(dir_fd);
  if (!synced) {
    return Status::IoError("cannot fsync dir " + dir + ": " +
                           std::strerror(err));
  }
  return Status::OK();
}

}  // namespace birnn::util
