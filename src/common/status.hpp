// Structured failure taxonomy shared by every analysis layer.
//
// The solver, engine, sweep runner, and CLI used to report failure through
// ad-hoc strings ("transient: step underflow at t=...") that callers could
// neither branch on nor aggregate. FailureInfo replaces them with a typed
// record: a machine-readable kind plus the context a batch driver needs to
// decide what to do next (retry with escalated rescue options, skip the
// point, abort the shard). The strings remain — FailureInfo::to_string()
// renders the same human-readable one-liner the logs always carried — but
// they are now derived from the record instead of being the record.
//
// Kinds are closed-world on purpose: sweep checkpoints serialize them by
// name (spice/checkpoint.hpp), so renaming or removing a kind is a
// checkpoint-format change (see docs/robustness.md).
#pragma once

#include <limits>
#include <string>
#include <string_view>

namespace usys {

/// What ended an analysis early. `none` means success.
enum class FailureKind : int {
  none = 0,
  singular_matrix,     ///< no acceptable pivot (LU factorization failed)
  newton_divergence,   ///< Newton did not converge (stall, max iters, non-finite)
  step_underflow,      ///< transient step control fell below dt_min
  max_steps_exceeded,  ///< transient hit TranOptions::max_steps
  timeout,             ///< wall-clock deadline (NewtonOptions::timeout_ms) expired
  cancelled,           ///< cooperative cancel token fired
  assert_violation,    ///< an HDL ASSERT boundary condition fired
  alloc_failure,       ///< allocation failure (std::bad_alloc) inside an analysis
  internal_error,      ///< unexpected exception captured at an isolation boundary
  lint_rejected,       ///< static pre-solve diagnostics found an error-severity defect
};

/// Stable lower-case name ("singular-matrix", ...). Never returns null.
const char* to_string(FailureKind kind) noexcept;

/// Inverse of to_string; false (and *out untouched) for unknown names.
bool failure_kind_from_string(std::string_view name, FailureKind& out) noexcept;

/// One failure record: the kind plus where the analysis was when it died.
/// Default-constructed means "no failure" (kind == none, ok() == true).
struct FailureInfo {
  FailureKind kind = FailureKind::none;
  std::string analysis;  ///< "dc", "tran", "ac", "sweep", ...
  /// Transient time point or AC frequency at failure; NaN when not applicable.
  double time = std::numeric_limits<double>::quiet_NaN();
  int iteration = -1;       ///< Newton iterations spent when it failed; -1 = n/a
  int rescue_attempts = 0;  ///< DC rescue-ladder strategies attempted (gmin, source)
  std::string detail;       ///< free-text context (site, stage, message)

  bool ok() const noexcept { return kind == FailureKind::none; }

  /// Human-readable one-liner, e.g.
  /// "tran: timeout at t=1.25e-05 (iters=7, rescue_attempts=0): deadline expired".
  std::string to_string() const;
};

/// Failure with the given kind and context (convenience builder).
FailureInfo make_failure(FailureKind kind, std::string analysis, std::string detail = "",
                         double time = std::numeric_limits<double>::quiet_NaN(),
                         int iteration = -1, int rescue_attempts = 0);

}  // namespace usys
