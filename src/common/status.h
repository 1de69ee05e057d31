#ifndef ASTERIX_COMMON_STATUS_H_
#define ASTERIX_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace asterix {

/// Error category for a failed operation. Mirrors the failure classes that
/// surface across the system: user errors (parse/type), runtime data errors,
/// storage/I/O errors, and transaction errors (lock timeouts, aborts).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kParseError,
  kTypeError,
  kNotFound,
  kAlreadyExists,
  kIOError,
  kCorruption,
  kTxnConflict,
  kNotImplemented,
  kInternal,
  /// The server declined the request because shared capacity is exhausted
  /// (admission queue full or admission-wait timeout). Retryable.
  kOverloaded,
  /// The client exceeded its own request-rate allowance (token bucket ran
  /// dry). Distinct from kOverloaded: the system has capacity, this caller
  /// does not.
  kRateLimited,
};

/// Returns a short human-readable name for a status code ("ParseError", ...).
const char* StatusCodeName(StatusCode code);

/// Arrow/RocksDB-style status object. Functions that can fail return a
/// Status (or Result<T>) instead of throwing; `ok()` is the success test.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status TxnConflict(std::string msg) {
    return Status(StatusCode::kTxnConflict, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Overloaded(std::string msg) {
    return Status(StatusCode::kOverloaded, std::move(msg));
  }
  static Status RateLimited(std::string msg) {
    return Status(StatusCode::kRateLimited, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "ParseError: unexpected token 'form'" — or "OK".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or a failure Status. The value accessors must
/// only be called after checking `ok()`; status() is always safe and reads
/// OK on a value.
template <typename T>
class Result {
 public:
  Result(T value) : var_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : var_(std::move(status)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(var_); }
  const Status& status() const {
    static const Status kOk = Status::OK();
    return ok() ? kOk : std::get<Status>(var_);
  }
  T& value() { return std::get<T>(var_); }
  const T& value() const { return std::get<T>(var_); }
  T take() { return std::move(std::get<T>(var_)); }

 private:
  std::variant<T, Status> var_;
};

/// Propagates a failing Status out of the enclosing function.
#define ASTERIX_RETURN_NOT_OK(expr)              \
  do {                                           \
    ::asterix::Status _st = (expr);              \
    if (!_st.ok()) return _st;                   \
  } while (0)

/// Evaluates a Result<T> expression, propagating failure, else binds `lhs`.
#define ASTERIX_ASSIGN_OR_RETURN_IMPL(var, lhs, rexpr) \
  auto var = (rexpr);                                  \
  if (!var.ok()) return var.status();                  \
  lhs = var.take();

#define ASTERIX_ASSIGN_OR_RETURN_CONCAT(x, y) x##y
#define ASTERIX_ASSIGN_OR_RETURN_NAME(x, y) ASTERIX_ASSIGN_OR_RETURN_CONCAT(x, y)
#define ASTERIX_ASSIGN_OR_RETURN(lhs, rexpr)                              \
  ASTERIX_ASSIGN_OR_RETURN_IMPL(                                          \
      ASTERIX_ASSIGN_OR_RETURN_NAME(_res_, __LINE__), lhs, rexpr)

}  // namespace asterix

#endif  // ASTERIX_COMMON_STATUS_H_
