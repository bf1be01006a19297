#include "common/status.hpp"

namespace simfs {

const char* statusCodeName(StatusCode code) noexcept {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kAlreadyExists: return "already_exists";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kOutOfRange: return "out_of_range";
    case StatusCode::kResourceExhausted: return "resource_exhausted";
    case StatusCode::kUnavailable: return "unavailable";
    case StatusCode::kFailedPrecondition: return "failed_precondition";
    case StatusCode::kRestartFailed: return "restart_failed";
    case StatusCode::kTimedOut: return "timed_out";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kIoError: return "io_error";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kUnreachable: return "unreachable";
  }
  return "unknown";
}

}  // namespace simfs
