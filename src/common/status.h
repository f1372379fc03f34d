// Status and Result<T>: exception-free error handling in the style of
// Arrow/RocksDB. Every fallible public API in graphalign returns either a
// Status or a Result<T>.
#ifndef GRAPHALIGN_COMMON_STATUS_H_
#define GRAPHALIGN_COMMON_STATUS_H_

#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <variant>

namespace graphalign {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kFailedPrecondition,
  kNotFound,
  kResourceExhausted,
  kInternal,
  kNotImplemented,
  kDeadlineExceeded,
  // A numerical routine failed in a recoverable way (QL iteration did not
  // converge, Jacobi sweeps exhausted, Sinkhorn scaling underflowed). The
  // degradation layer treats these as "fall back", not "bug": callers can
  // sanitize and continue where kInternal means the code itself is broken.
  kNumerical,
  // A transient condition (injected fault, service BUSY, connect refused)
  // that a retry with backoff may clear. Never used for permanent errors.
  kUnavailable,
  // On-disk data failed integrity verification (bad magic, CRC mismatch,
  // inconsistent CSR structure). Distinct from kInternal: the code is fine,
  // the bytes are not — callers quarantine the file and degrade rather than
  // retrying in place.
  kCorrupt,
};

// The last StatusCode: a code read back from a pipe is range-checked
// against it.
inline constexpr StatusCode kLastStatusCode = StatusCode::kCorrupt;

// Human-readable name of a status code, e.g. "InvalidArgument".
const char* StatusCodeName(StatusCode code);

class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Numerical(std::string msg) {
    return Status(StatusCode::kNumerical, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Corrupt(std::string msg) {
    return Status(StatusCode::kCorrupt, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

// Result<T> holds either a value or an error Status. Accessing the value of
// an errored Result aborts; call ok() first or use GA_ASSIGN_OR_RETURN.
template <typename T>
class Result {
 public:
  // Intentionally implicit so `return value;` and `return status;` both work.
  Result(T value) : payload_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status)                            // NOLINT(runtime/explicit)
      : payload_(std::move(status)) {
    if (std::get<Status>(payload_).ok()) {
      std::cerr << "Result constructed from OK status\n";
      std::abort();
    }
  }

  bool ok() const { return std::holds_alternative<T>(payload_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(payload_);
  }

  const T& value() const& {
    CheckOk();
    return std::get<T>(payload_);
  }
  T& value() & {
    CheckOk();
    return std::get<T>(payload_);
  }
  T&& value() && {
    CheckOk();
    return std::get<T>(std::move(payload_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const {
    if (!ok()) {
      std::cerr << "Result::value() on error: " << status().ToString() << "\n";
      std::abort();
    }
  }

  std::variant<T, Status> payload_;
};

// Propagates an error Status from an expression that yields a Status.
#define GA_RETURN_IF_ERROR(expr)                 \
  do {                                           \
    ::graphalign::Status ga_status__ = (expr);   \
    if (!ga_status__.ok()) return ga_status__;   \
  } while (false)

#define GA_CONCAT_IMPL(a, b) a##b
#define GA_CONCAT(a, b) GA_CONCAT_IMPL(a, b)

// Evaluates `rexpr` (a Result<T>), propagating errors; on success binds the
// value to `lhs`. Usage: GA_ASSIGN_OR_RETURN(auto g, LoadGraph(path));
#define GA_ASSIGN_OR_RETURN(lhs, rexpr)                         \
  GA_ASSIGN_OR_RETURN_IMPL(GA_CONCAT(ga_result__, __LINE__), lhs, rexpr)

#define GA_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                             \
  if (!tmp.ok()) return tmp.status();             \
  lhs = std::move(tmp).value()

// CHECK-style invariant enforcement for programmer errors (not user input).
#define GA_CHECK(cond)                                                     \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::cerr << "GA_CHECK failed at " << __FILE__ << ":" << __LINE__    \
                << ": " #cond "\n";                                        \
      std::abort();                                                        \
    }                                                                      \
  } while (false)

#define GA_CHECK_MSG(cond, msg)                                            \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::cerr << "GA_CHECK failed at " << __FILE__ << ":" << __LINE__    \
                << ": " #cond " — " << (msg) << "\n";                      \
      std::abort();                                                        \
    }                                                                      \
  } while (false)

}  // namespace graphalign

#endif  // GRAPHALIGN_COMMON_STATUS_H_
