#include "common/status.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

namespace usys {

namespace {

constexpr std::pair<FailureKind, const char*> kNames[] = {
    {FailureKind::none, "none"},
    {FailureKind::singular_matrix, "singular-matrix"},
    {FailureKind::newton_divergence, "newton-divergence"},
    {FailureKind::step_underflow, "step-underflow"},
    {FailureKind::max_steps_exceeded, "max-steps-exceeded"},
    {FailureKind::timeout, "timeout"},
    {FailureKind::cancelled, "cancelled"},
    {FailureKind::assert_violation, "assert-violation"},
    {FailureKind::alloc_failure, "alloc-failure"},
    {FailureKind::internal_error, "internal-error"},
    {FailureKind::lint_rejected, "lint-rejected"},
};

}  // namespace

const char* to_string(FailureKind kind) noexcept {
  for (const auto& [k, name] : kNames) {
    if (k == kind) return name;
  }
  return "internal-error";
}

bool failure_kind_from_string(std::string_view name, FailureKind& out) noexcept {
  for (const auto& [k, n] : kNames) {
    if (name == n) {
      out = k;
      return true;
    }
  }
  return false;
}

std::string FailureInfo::to_string() const {
  if (ok()) return "ok";
  std::string s = analysis.empty() ? "analysis" : analysis;
  s += ": ";
  s += usys::to_string(kind);
  char buf[64];
  if (std::isfinite(time)) {
    std::snprintf(buf, sizeof buf, " at t=%.6e", time);
    s += buf;
  }
  if (iteration >= 0 || rescue_attempts > 0) {
    std::snprintf(buf, sizeof buf, " (iters=%d, rescue_attempts=%d)",
                  iteration < 0 ? 0 : iteration, rescue_attempts);
    s += buf;
  }
  if (!detail.empty()) {
    s += ": ";
    s += detail;
  }
  return s;
}

FailureInfo make_failure(FailureKind kind, std::string analysis, std::string detail,
                         double time, int iteration, int rescue_attempts) {
  FailureInfo f;
  f.kind = kind;
  f.analysis = std::move(analysis);
  f.detail = std::move(detail);
  f.time = time;
  f.iteration = iteration;
  f.rescue_attempts = rescue_attempts;
  return f;
}

}  // namespace usys
