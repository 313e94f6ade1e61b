// One composable request description for every clustering entry point
// (DESIGN.md §10/§14).
//
// RequestSpec folds the whole request (parameters, options, method,
// shards, deadline, token) into one value, and
// validate_spec()/validate_shard_count() are the single validation path
// every front door shares — the service validates the same spec at
// submit time that a one-shot cluster() call validates inline, and the
// session API (service/service.h) pins one spec per session.
//
// Layering: deadline_ms and token are *service* semantics (a direct
// cluster(points, spec) call ignores them — there is no queue to wait in
// and the caller can install its own CancelScope), but they live here so
// one spec value can travel from a library call site into a submit()
// without translation.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "core/clustering.h"
#include "core/status.h"
#include "exec/cancel.h"

namespace fdbscan {

/// Which algorithm a request dispatches to.
enum class Method : std::uint8_t {
  kAuto,      ///< dense-fraction heuristic (core/auto_select.h)
  kFdbscan,   ///< always plain FDBSCAN
  kDensebox,  ///< always FDBSCAN-DenseBox
};

/// Sentinel for "no deadline" in RequestSpec::deadline_ms.
inline constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// Everything one clustering request carries, minus the points.
struct RequestSpec {
  Parameters params{};
  Options options{};
  Method method = Method::kAuto;
  /// Shard count: 0 = use the executing context's default
  /// (ServiceConfig::shards at the service; single-engine for direct
  /// calls), 1 = single-engine, > 1 = sharded execution (always plain
  /// FDBSCAN — the decomposition is FDBSCAN's, `method` is ignored).
  /// Negative values reject with kInvalidShards.
  std::int32_t shards = 0;
  /// Total latency budget (queue wait + run) in milliseconds, enforced
  /// by the service watchdog. kNoDeadline disables it; a value <= 0
  /// fails fast with kDeadlineExceeded before any kernel runs. Ignored
  /// outside the service.
  double deadline_ms = kNoDeadline;
  /// Caller-held cancellation handle; the service creates a private one
  /// when absent. A token may observe at most one in-flight request at a
  /// time — a second submit sharing it rejects with kTokenBusy
  /// (DESIGN.md §10). Ignored outside the service (direct callers scope
  /// their own tokens with exec::CancelScope).
  std::shared_ptr<exec::CancelToken> token{};
};

/// The scalar half of validate_input: checks (params, options) without
/// touching the points. O(1) — the service layer runs this at submit
/// time and defers the O(n) coordinate scan to the dispatcher (once per
/// pooled dataset).
[[nodiscard]] inline std::optional<Error> validate_parameters(
    const Parameters& params, const Options& options = {}) {
  if (!(params.eps > 0.0f) || !std::isfinite(params.eps)) {
    return Error{ErrorCode::kInvalidEps,
                 "eps must be a finite positive number, got " +
                     std::to_string(params.eps)};
  }
  if (params.minpts < 1) {
    return Error{ErrorCode::kInvalidMinpts,
                 "minpts must be >= 1, got " + std::to_string(params.minpts)};
  }
  const float f = options.densebox_cell_width_factor;
  if (!(f > 0.0f) || !(f <= 1.0f)) {
    // > 1 would break the cell-diameter <= eps invariant dense cells rely
    // on (every pair inside one cell must be eps-close).
    return Error{ErrorCode::kInvalidCellWidthFactor,
                 "densebox_cell_width_factor must be in (0, 1], got " +
                     std::to_string(f)};
  }
  return std::nullopt;
}

/// Shard/rank-count check shared by cluster_sharded(),
/// distributed_cluster() and the service: counts below `minimum`
/// (1 for resolved requests, 0 where "service default" is still legal)
/// reject with kInvalidShards.
[[nodiscard]] inline std::optional<Error> validate_shard_count(
    std::int64_t shards, std::int64_t minimum = 1,
    const char* what = "shards") {
  if (shards < minimum) {
    return Error{ErrorCode::kInvalidShards,
                 std::string(what) + " must be >= " + std::to_string(minimum) +
                     ", got " + std::to_string(shards)};
  }
  return std::nullopt;
}

/// The single scalar validation path for a whole RequestSpec: parameter
/// ranges plus the shard count (0 = "context default" stays legal).
[[nodiscard]] inline std::optional<Error> validate_spec(
    const RequestSpec& spec) {
  if (auto error = validate_parameters(spec.params, spec.options)) {
    return error;
  }
  return validate_shard_count(spec.shards, 0);
}

}  // namespace fdbscan
