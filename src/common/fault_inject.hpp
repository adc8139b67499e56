// Deterministic fault-injection harness (compiled in via USYS_FAULT_INJECT).
//
// Recovery code that is never exercised is broken code waiting for its first
// field failure: the gmin/source rescue ladder, the transient step-rejection
// path, and the sweep's per-point isolation all have
// failure branches that no ordinary test input reaches on demand. This
// harness makes them reachable: production code declares *sites* —
//
//   if (USYS_FAULT_POINT("sparse_lu.singular")) throw SingularMatrixError(0);
//
// — and tests arm those sites by name to fire on exact hit numbers
// (arm(site, nth, count)) or with a seeded deterministic pseudo-random
// pattern (arm_random(site, p, seed): the decision for hit #k is a pure
// function of (seed, k), so a failing run replays exactly).
//
// In normal builds USYS_FAULT_POINT compiles to the constant `false` — zero
// overhead, and the compiler drops the dead branch. With -DUSYS_FAULT_INJECT
// (CMake: -DUSYS_FAULT_INJECT=ON) every site counts its hits and consults
// the armed table; the dedicated CI job runs the whole suite this way.
//
// Arming is process-global and thread-safe; hit ordering across sweep
// workers is only deterministic when the caller runs single-threaded (tests
// that target "the Nth solve" use SweepRunner(1)). The USYS_FAULT
// environment variable arms sites before main() logic runs
// ("site:nth[:count][;site2:...]"), so the CLI and smoke tests can inject
// without a dedicated flag.
//
// Instrumented sites (keep docs/robustness.md in sync):
//   sparse_lu.singular   SparseLu<T>::factor — forces SingularMatrixError
//   dense_lu.singular    dense lu_solve — forces SingularMatrixError
//   newton.stall         NewtonSolver::solve entry — the solve returns
//                        non-converged (newton-divergence) immediately
//   deadline.expire      Deadline::expired — forces a timeout at the poll
//   engine.alloc         AnalysisEngine::run_tran entry — throws
//                        std::bad_alloc (allocation-failure isolation)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace usys::fault {

/// True when the harness is compiled in (USYS_FAULT_INJECT builds). Tests
/// that need injection GTEST_SKIP when this is false.
constexpr bool compiled_in() noexcept {
#ifdef USYS_FAULT_INJECT
  return true;
#else
  return false;
#endif
}

/// Arms `site` to fire on hits [nth, nth+count) (hits are 1-based; count < 0
/// means "from nth onward, forever"). Re-arming a site replaces its trigger
/// and resets its counters.
void arm(std::string_view site, long nth = 1, long count = 1);

/// Arms `site` to fire pseudo-randomly with the given probability. The
/// per-hit decision is a pure hash of (seed, hit number): deterministic,
/// replayable, independent of thread interleaving.
void arm_random(std::string_view site, double probability, std::uint64_t seed);

/// Disarms one site / all sites (hit counters are dropped too).
void disarm(std::string_view site);
void disarm_all();

/// Observation: how often a site was reached / actually fired since it was
/// (re)armed. 0 for unknown sites. Unarmed sites do not count hits.
long hits(std::string_view site);
long fired(std::string_view site);

/// Names of the currently armed sites (sorted).
std::vector<std::string> armed_sites();

/// Parses and arms a spec of the form "site:nth[:count]" with multiple
/// entries joined by ';' or ','; "site~p@seed" arms the random mode.
/// Returns false (arming nothing) on malformed specs, with a diagnostic in
/// *err when provided.
bool arm_from_spec(std::string_view spec, std::string* err = nullptr);

/// The site probe behind USYS_FAULT_POINT: counts the hit and reports
/// whether the armed trigger matches. Do not call directly from production
/// code — use the macro so non-inject builds stay zero-cost.
bool should_fail(const char* site) noexcept;

}  // namespace usys::fault

#ifdef USYS_FAULT_INJECT
#define USYS_FAULT_POINT(site) (::usys::fault::should_fail(site))
#else
#define USYS_FAULT_POINT(site) false
#endif
