// Status / Result<T> error handling used across SimFS.
//
// SimFS avoids exceptions on hot paths (DV request handling, cache ops,
// event loop). Functions that can fail return Status or Result<T>;
// programming errors use assertions (SIMFS_CHECK).
#pragma once

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace simfs {

/// Machine-readable error categories, loosely mirroring POSIX + SimFS
/// protocol errors (e.g. kRestartFailed maps to SIMFS_Status error states).
enum class StatusCode : int {
  kOk = 0,
  kNotFound,        // file/context/key does not exist
  kAlreadyExists,   // creating something that exists
  kInvalidArgument, // caller passed a bad value
  kOutOfRange,      // index outside the simulation timeline
  kResourceExhausted, // quota exceeded, no evictable entry, ...
  kUnavailable,     // transport down / daemon not reachable
  kFailedPrecondition, // call sequencing violated (e.g. wait without acquire)
  kRestartFailed,   // the (re-)simulation job failed to start or crashed
  kTimedOut,        // blocking call exceeded its deadline
  kCancelled,       // request cancelled (client gone, sim killed)
  kIoError,         // underlying filesystem / socket error
  kInternal,        // invariant violation escaped as error
  kUnreachable,     // retry budget exhausted: the op terminally failed to
                    // reach a daemon (distinct from kUnavailable, which is
                    // transient and retried)
};

/// Returns a stable lowercase name for a StatusCode (for logs and tests).
[[nodiscard]] const char* statusCodeName(StatusCode code) noexcept;

/// A cheap error-or-ok value. Ok status carries no allocation.
class Status {
 public:
  /// Constructs an OK status.
  Status() noexcept = default;

  /// Constructs an error status with a message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status ok() noexcept { return {}; }

  [[nodiscard]] bool isOk() const noexcept { return code_ == StatusCode::kOk; }
  explicit operator bool() const noexcept { return isOk(); }

  [[nodiscard]] StatusCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept { return message_; }

  /// Renders "code: message" for logging.
  [[nodiscard]] std::string toString() const {
    if (isOk()) return "ok";
    return std::string(statusCodeName(code_)) + ": " + message_;
  }

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Convenience factories mirroring the StatusCode list.
[[nodiscard]] inline Status errNotFound(std::string m) {
  return {StatusCode::kNotFound, std::move(m)};
}
[[nodiscard]] inline Status errAlreadyExists(std::string m) {
  return {StatusCode::kAlreadyExists, std::move(m)};
}
[[nodiscard]] inline Status errInvalidArgument(std::string m) {
  return {StatusCode::kInvalidArgument, std::move(m)};
}
[[nodiscard]] inline Status errOutOfRange(std::string m) {
  return {StatusCode::kOutOfRange, std::move(m)};
}
[[nodiscard]] inline Status errResourceExhausted(std::string m) {
  return {StatusCode::kResourceExhausted, std::move(m)};
}
[[nodiscard]] inline Status errUnavailable(std::string m) {
  return {StatusCode::kUnavailable, std::move(m)};
}
[[nodiscard]] inline Status errFailedPrecondition(std::string m) {
  return {StatusCode::kFailedPrecondition, std::move(m)};
}
[[nodiscard]] inline Status errRestartFailed(std::string m) {
  return {StatusCode::kRestartFailed, std::move(m)};
}
[[nodiscard]] inline Status errTimedOut(std::string m) {
  return {StatusCode::kTimedOut, std::move(m)};
}
[[nodiscard]] inline Status errCancelled(std::string m) {
  return {StatusCode::kCancelled, std::move(m)};
}
[[nodiscard]] inline Status errIoError(std::string m) {
  return {StatusCode::kIoError, std::move(m)};
}
[[nodiscard]] inline Status errInternal(std::string m) {
  return {StatusCode::kInternal, std::move(m)};
}
[[nodiscard]] inline Status errUnreachable(std::string m) {
  return {StatusCode::kUnreachable, std::move(m)};
}

/// Value-or-error. Like std::expected (which libstdc++ 12 lacks).
template <typename T>
class Result {
 public:
  /// Implicit from value: `return 42;`
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  /// Implicit from error status: `return errNotFound(...);`
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.isOk() && "Result(Status) requires an error status");
  }

  [[nodiscard]] bool isOk() const noexcept { return value_.has_value(); }
  explicit operator bool() const noexcept { return isOk(); }

  [[nodiscard]] const Status& status() const noexcept { return status_; }

  /// Access the value; asserts in debug builds if this holds an error.
  [[nodiscard]] T& value() & {
    assert(isOk());
    return *value_;
  }
  [[nodiscard]] const T& value() const& {
    assert(isOk());
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    assert(isOk());
    return std::move(*value_);
  }

  [[nodiscard]] T valueOr(T fallback) const& {
    return isOk() ? *value_ : std::move(fallback);
  }

  [[nodiscard]] T* operator->() {
    assert(isOk());
    return &*value_;
  }
  [[nodiscard]] const T* operator->() const {
    assert(isOk());
    return &*value_;
  }
  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T& operator*() const& { return value(); }

 private:
  std::optional<T> value_;
  Status status_;
};

/// Fatal invariant check that stays active in release builds.
#define SIMFS_CHECK(cond)                                                 \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "SIMFS_CHECK failed at %s:%d: %s\n", __FILE__, \
                   __LINE__, #cond);                                      \
      std::abort();                                                       \
    }                                                                     \
  } while (false)

/// Propagates an error Status out of the current function.
#define SIMFS_RETURN_IF_ERROR(expr)            \
  do {                                         \
    ::simfs::Status _simfs_st = (expr);        \
    if (!_simfs_st.isOk()) return _simfs_st;   \
  } while (false)

}  // namespace simfs
