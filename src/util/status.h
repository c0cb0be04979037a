#ifndef BIRNN_UTIL_STATUS_H_
#define BIRNN_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace birnn {

/// Error codes used across the library. Mirrors the RocksDB/Abseil convention:
/// functions that can fail return a `Status` (or `StatusOr<T>`), never throw.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kUnimplemented,
  kIoError,
  /// Load-shedding signal: the request was refused because an admission
  /// queue is full (serve::MicroBatcher backpressure). Retryable.
  kOverloaded,
};

/// Returns a short human-readable name for `code` (e.g. "InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// A lightweight success-or-error result. Cheap to copy in the OK case
/// (no allocation); carries a message otherwise.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type `T` or an error `Status`. Accessing the value of a
/// non-OK StatusOr is a programming error (asserts in debug builds).
template <typename T>
class StatusOr {
 public:
  /// Implicit from value: `return my_table;` works in a StatusOr function.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from error status. `status` must not be OK.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "StatusOr constructed from OK status");
    if (status_.ok()) {
      status_ = Status::Internal("StatusOr constructed from OK status");
    }
  }

  StatusOr(const StatusOr&) = default;
  StatusOr& operator=(const StatusOr&) = default;
  StatusOr(StatusOr&&) = default;
  StatusOr& operator=(StatusOr&&) = default;

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;  // OK iff value_ holds a value.
};

/// Propagates a non-OK status to the caller: `BIRNN_RETURN_IF_ERROR(DoX());`
#define BIRNN_RETURN_IF_ERROR(expr)              \
  do {                                           \
    ::birnn::Status _st = (expr);                \
    if (!_st.ok()) return _st;                   \
  } while (0)

/// Unwraps a StatusOr into `lhs`, propagating errors:
/// `BIRNN_ASSIGN_OR_RETURN(auto table, ReadCsv(path));`
#define BIRNN_ASSIGN_OR_RETURN(lhs, expr)                     \
  BIRNN_ASSIGN_OR_RETURN_IMPL_(                               \
      BIRNN_STATUS_CONCAT_(_status_or, __LINE__), lhs, expr)

#define BIRNN_STATUS_CONCAT_INNER_(a, b) a##b
#define BIRNN_STATUS_CONCAT_(a, b) BIRNN_STATUS_CONCAT_INNER_(a, b)
#define BIRNN_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                 \
  if (!tmp.ok()) return tmp.status();                \
  lhs = std::move(tmp).value()

}  // namespace birnn

#endif  // BIRNN_UTIL_STATUS_H_
