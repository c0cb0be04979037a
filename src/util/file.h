#ifndef BIRNN_UTIL_FILE_H_
#define BIRNN_UTIL_FILE_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace birnn::util {

/// Durably replaces the file at `path` with `bytes`. Writes a uniquely
/// named temp file in the same directory (retrying short writes and EINTR),
/// fsyncs it, renames it over `path`, then fsyncs the directory. A reader,
/// or a restart after a crash at any point, sees either the old file or
/// the new one, never a prefix of either. On any failure the temp file is
/// removed, `path` is left as it was, and the result is an IoError.
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

}  // namespace birnn::util

#endif  // BIRNN_UTIL_FILE_H_
