// Typed errors for the validated clustering entry point (core/cluster.h).
//
// The algorithm templates themselves (fdbscan(), fdbscan_densebox(), the
// Engine) follow the GPU convention of trusting their inputs: eps <= 0 or
// a NaN coordinate silently produces a garbage clustering, exactly as a
// kernel launch would. `fdbscan::cluster()` is the checked front door for
// callers who want malformed input rejected with a typed error instead —
// Expected<Clustering, Error> is the C++20 stand-in for std::expected
// (C++23), carrying either the result or an ErrorCode plus a
// human-readable message naming the offending value.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

namespace fdbscan {

/// Why an input was rejected or a request did not complete. The first
/// group is input validation (core/cluster.h); the second group is the
/// serving surface (service/service.h).
enum class ErrorCode : std::uint8_t {
  kInvalidEps,              ///< eps is not a finite positive number
  kInvalidMinpts,           ///< minpts < 1
  kNonFinitePoint,          ///< a coordinate is NaN or infinite
  kInvalidCellWidthFactor,  ///< densebox_cell_width_factor outside (0, 1]
  kInvalidShards,           ///< shard / rank count < 1
  kQueueFull,               ///< service request queue at capacity
  kCancelled,               ///< request cancelled via its CancelToken
  kDeadlineExceeded,        ///< request deadline elapsed before completion
  kInternal,                ///< unexpected failure inside a dispatcher
  kTokenBusy,               ///< CancelToken already bound to an in-flight request
  kInvalidSession,          ///< session unknown, closed, or failed to open
  kSessionLimit,            ///< open-session table at capacity
};

[[nodiscard]] constexpr const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kInvalidEps: return "InvalidEps";
    case ErrorCode::kInvalidMinpts: return "InvalidMinpts";
    case ErrorCode::kNonFinitePoint: return "NonFinitePoint";
    case ErrorCode::kInvalidCellWidthFactor: return "InvalidCellWidthFactor";
    case ErrorCode::kInvalidShards: return "InvalidShards";
    case ErrorCode::kQueueFull: return "QueueFull";
    case ErrorCode::kCancelled: return "Cancelled";
    case ErrorCode::kDeadlineExceeded: return "DeadlineExceeded";
    case ErrorCode::kInternal: return "Internal";
    case ErrorCode::kTokenBusy: return "TokenBusy";
    case ErrorCode::kInvalidSession: return "InvalidSession";
    case ErrorCode::kSessionLimit: return "SessionLimit";
  }
  return "UnknownError";
}

/// A typed validation error: machine-dispatchable code + diagnostic text.
struct Error {
  ErrorCode code;
  std::string message;
};

/// Minimal expected-type: holds either a T (success) or an E (error).
/// Implicitly constructible from both, so `return result;` and
/// `return Error{...};` both work inside functions returning Expected.
template <class T, class E = Error>
class Expected {
 public:
  Expected(T value) : state_(std::in_place_index<0>, std::move(value)) {}
  Expected(E error) : state_(std::in_place_index<1>, std::move(error)) {}

  [[nodiscard]] bool has_value() const noexcept { return state_.index() == 0; }
  explicit operator bool() const noexcept { return has_value(); }

  /// Access the value; throws std::logic_error carrying the error message
  /// if this Expected holds an error (the analogue of
  /// std::bad_expected_access for callers who skip the check).
  [[nodiscard]] T& value() & {
    ensure_value();
    return std::get<0>(state_);
  }
  [[nodiscard]] const T& value() const& {
    ensure_value();
    return std::get<0>(state_);
  }
  [[nodiscard]] T&& value() && {
    ensure_value();
    return std::get<0>(std::move(state_));
  }

  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T* operator->() { return &value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }

  /// Access the error; only valid when has_value() is false.
  [[nodiscard]] const E& error() const { return std::get<1>(state_); }

 private:
  void ensure_value() const {
    if (!has_value()) {
      if constexpr (std::is_same_v<E, Error>) {
        throw std::logic_error("Expected::value() on error: " +
                               std::get<1>(state_).message);
      } else {
        throw std::logic_error("Expected::value() called on an error");
      }
    }
  }

  std::variant<T, E> state_;
};

}  // namespace fdbscan
