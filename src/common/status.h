// Lightweight Status / StatusOr error plumbing.
//
// Fallible operations across module boundaries return common::Status (or StatusOr<T> when they
// produce a value). Exceptions are not used for control flow anywhere in this codebase.
#ifndef SRC_COMMON_STATUS_H_
#define SRC_COMMON_STATUS_H_

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace vlog::common {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfSpace,
  kCorruption,
  kFailedPrecondition,
  kUnimplemented,
  kIoError,
};

// Human-readable name for a status code, e.g. for log messages.
const char* StatusCodeName(StatusCode code);

// A status code plus an optional message. Cheap to copy in the OK case.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message) : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) {
      return "OK";
    }
    std::string s = StatusCodeName(code_);
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  StatusCode code_;
  std::string message_;
};

inline Status OkStatus() { return Status::Ok(); }
inline Status InvalidArgument(std::string msg) {
  return Status(StatusCode::kInvalidArgument, std::move(msg));
}
inline Status NotFound(std::string msg) { return Status(StatusCode::kNotFound, std::move(msg)); }
inline Status AlreadyExists(std::string msg) {
  return Status(StatusCode::kAlreadyExists, std::move(msg));
}
inline Status OutOfSpace(std::string msg) {
  return Status(StatusCode::kOutOfSpace, std::move(msg));
}
inline Status Corruption(std::string msg) {
  return Status(StatusCode::kCorruption, std::move(msg));
}
inline Status FailedPrecondition(std::string msg) {
  return Status(StatusCode::kFailedPrecondition, std::move(msg));
}
inline Status Unimplemented(std::string msg) {
  return Status(StatusCode::kUnimplemented, std::move(msg));
}
inline Status IoError(std::string msg) { return Status(StatusCode::kIoError, std::move(msg)); }

// Holds either a T or a non-OK Status.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status status) : rep_(std::move(status)) {  // NOLINT: implicit by design
    assert(!std::get<Status>(rep_).ok() && "StatusOr constructed from OK status without value");
  }
  StatusOr(T value) : rep_(std::move(value)) {}  // NOLINT: implicit by design

  bool ok() const { return std::holds_alternative<T>(rep_); }

  Status status() const {
    if (ok()) {
      return OkStatus();
    }
    return std::get<Status>(rep_);
  }

  const T& value() const& {
    assert(ok());
    return std::get<T>(rep_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(rep_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(rep_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<Status, T> rep_;
};

}  // namespace vlog::common

// Propagates a non-OK status from an expression that evaluates to common::Status.
#define RETURN_IF_ERROR(expr)              \
  do {                                     \
    ::vlog::common::Status _st = (expr);   \
    if (!_st.ok()) {                       \
      return _st;                          \
    }                                      \
  } while (0)

#define VLOG_STATUS_CONCAT_INNER(a, b) a##b
#define VLOG_STATUS_CONCAT(a, b) VLOG_STATUS_CONCAT_INNER(a, b)

// Evaluates an expression yielding StatusOr<T>; assigns the value to `lhs` or propagates.
#define ASSIGN_OR_RETURN(lhs, expr)                                  \
  auto VLOG_STATUS_CONCAT(_sor_, __LINE__) = (expr);                 \
  if (!VLOG_STATUS_CONCAT(_sor_, __LINE__).ok()) {                   \
    return VLOG_STATUS_CONCAT(_sor_, __LINE__).status();             \
  }                                                                  \
  lhs = std::move(VLOG_STATUS_CONCAT(_sor_, __LINE__)).value()

#endif  // SRC_COMMON_STATUS_H_
