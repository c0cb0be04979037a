/// Shared internals of the C ABI shims (stream/capi.cc, adapt/capi.cc):
/// the opaque handle definitions and the Status -> status-code plumbing.
/// Not installed — include/birnn_c.h is the public surface.

#ifndef BIRNN_STREAM_CAPI_INTERNAL_H_
#define BIRNN_STREAM_CAPI_INTERNAL_H_

#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "birnn_c.h"
#include "serve/bundle.h"
#include "stream/session.h"
#include "util/status.h"

struct birnn_detector {
  std::shared_ptr<const birnn::serve::LoadedDetector> impl;
};

struct birnn_session {
  std::unique_ptr<birnn::stream::TableSession> impl;
};

namespace birnn::capi {

/// One message slot per thread, shared by every shim TU (inline variable:
/// a single entity program-wide), so birnn_last_error() reports the most
/// recent failure regardless of which shim produced it.
inline thread_local std::string g_last_error;

inline birnn_status MapCode(birnn::StatusCode code) {
  using birnn::StatusCode;
  switch (code) {
    case StatusCode::kOk:
      return BIRNN_OK;
    case StatusCode::kInvalidArgument:
      return BIRNN_INVALID_ARGUMENT;
    case StatusCode::kNotFound:
      return BIRNN_NOT_FOUND;
    case StatusCode::kOutOfRange:
      return BIRNN_OUT_OF_RANGE;
    case StatusCode::kFailedPrecondition:
      return BIRNN_FAILED_PRECONDITION;
    case StatusCode::kInternal:
      return BIRNN_INTERNAL;
    case StatusCode::kUnimplemented:
      return BIRNN_UNIMPLEMENTED;
    case StatusCode::kIoError:
      return BIRNN_IO_ERROR;
    case StatusCode::kOverloaded:
      return BIRNN_OVERLOADED;
  }
  return BIRNN_INTERNAL;
}

inline birnn_status Fail(birnn_status code, std::string message) {
  g_last_error = std::move(message);
  return code;
}

inline birnn_status FromStatus(const birnn::Status& status) {
  if (status.ok()) return BIRNN_OK;
  return Fail(MapCode(status.code()), status.message());
}

/// Runs `fn` (returning birnn_status) under a catch-all: C++ exceptions
/// become BIRNN_INTERNAL instead of unwinding into the C caller.
template <typename Fn>
birnn_status Guarded(Fn&& fn) noexcept {
  try {
    return fn();
  } catch (const std::exception& e) {
    return Fail(BIRNN_INTERNAL,
                std::string("internal exception: ") + e.what());
  } catch (...) {
    return Fail(BIRNN_INTERNAL, "internal exception");
  }
}

}  // namespace birnn::capi

#endif  // BIRNN_STREAM_CAPI_INTERNAL_H_
