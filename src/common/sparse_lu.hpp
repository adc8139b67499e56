// General (non-SPD) sparse LU: Gilbert–Peierls left-looking factorization
// with partial pivoting, plus pattern-reusing numeric refactorization and
// row-gather triangular solves.
//
// Built for Newton / transient loops where the matrix PATTERN is fixed while
// the VALUES change every iteration:
//   * analyze()  — once per pattern: records the CSR layout, the CSR-to-CSC
//     slot mapping, and a fill-reducing column order (approximate minimum
//     degree; rows of degree above max(16, 10 sqrt(n)) are postponed and
//     ordered last). The ordering is fully deterministic: every degree tie
//     breaks on the smallest index.
//   * factor()   — the first call runs the full pivoting factorization and
//     records the pivot order and the L/U patterns (the "symbolic"
//     factorization); later calls replay those patterns as pure numeric
//     refactorizations (no search, no allocation) and fall back to a fresh
//     pivoting factorization only if a reused pivot degrades.
//   * solve()    — forward/back substitution. Each unknown is a per-row
//     GATHER over the transposed factors, accumulated in a fixed ascending
//     order, so repeated solves are deterministic.
//
// SymbolicCache shares that work between solvers on one pattern: many jobs
// (Monte Carlo draws, sweep points, server jobs) build fresh solvers on the
// same topology. analyze(n, row_ptr, col_idx, cache) adopts the cached
// ordering and, for the real type, the cached pivot record; the first
// factor() then VERIFIES the recorded pivots (a replay that re-runs the
// pivot search's first-max selection at every column) instead of searching.
// An accepted replay is bit-identical to the search it replaces; any
// mismatch falls back to the search. The plain analyze() never touches a
// cache.
//
// The FEM module's CsrMatrix + CG (fem/sparse.hpp) covers the SPD case;
// this solver covers the unsymmetric MNA systems of the circuit solver.
// Real and complex instantiations back DC/transient and AC respectively.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/matrix.hpp"  // SingularMatrixError

namespace usys {

class Deadline;

/// The pattern-only half of an analysis: the CSC copy of the CSR pattern,
/// the slot mapping and the fill-reducing column order. Depends on the
/// pattern alone, so the real and complex solvers share one instance.
/// Immutable once built.
struct LuSymbolic {
  int n = 0;
  std::vector<int> col_ptr, row_idx;  ///< CSC copy of the pattern
  std::vector<int> csc_of_csr;        ///< CSR slot -> CSC slot
  std::vector<int> q;  ///< fill-reducing column order: pivotal j eliminates column q[j]
};

/// The record of one full (pivot-searching) factorization, in pivotal
/// coordinates. L is unit-lower with the diagonal stored explicitly as each
/// column's first entry, followed by the column's other pivot candidates in
/// the search's visiting order; U stores each column's diagonal (the pivot)
/// last. Immutable once recorded.
struct LuPivots {
  std::vector<int> pinv;     ///< original row -> pivotal position
  std::vector<int> lp, li;   ///< L: col ptr / row idx
  std::vector<int> up, ui;   ///< U: col ptr / row idx
  /// Per column: how many candidates the search visited before the one it
  /// chose, so a replay can re-run the selection in the same order.
  std::vector<int> rank;
  /// Row-gather views of L^T and U^T (diagonals dropped); the maps index
  /// into the numeric lx/ux arrays, so refactorizations keep them valid.
  std::vector<int> lt_ptr, lt_idx, lt_map;
  std::vector<int> ut_ptr, ut_idx, ut_map;
};

/// Process-wide, mutex-guarded, byte-bounded LRU of symbolic analyses keyed
/// on the CSR pattern. The key is a 64-bit hash of (n, row_ptr, col_idx);
/// every hit is confirmed by an exact comparison with a stored copy of the
/// pattern, so a hash collision is a miss, never a wrong ordering. An entry
/// holds the LuSymbolic and, once some real solver has factored the
/// pattern, the LuPivots of that solver's first full factorization (a
/// failed replay replaces it). Entries are handed out as shared_ptr<const>,
/// so eviction never invalidates a solver that adopted one. An entry larger
/// than the whole budget is not stored.
class SymbolicCache {
 public:
  /// The process instance's byte budget. Fixed: an analysis of a
  /// 20000-cell TRANSARRAY (about 180k factor entries) takes a few MB.
  static constexpr std::size_t kProcessBudgetBytes = std::size_t{64} << 20;

  explicit SymbolicCache(std::size_t budget_bytes) : budget_(budget_bytes) {}
  SymbolicCache(const SymbolicCache&) = delete;
  SymbolicCache& operator=(const SymbolicCache&) = delete;

  /// The instance every NewtonSolver and AC sweep analyzes through
  /// (budget kProcessBudgetBytes).
  static SymbolicCache& process();

  struct Stats {
    long hits = 0;
    long misses = 0;
    long evictions = 0;      ///< entries dropped to stay within the budget
    std::size_t bytes = 0;   ///< bytes held by the stored entries
    std::size_t entries = 0;
  };
  Stats stats() const;

  /// Drops every entry and zeroes the counters. Solvers holding an adopted
  /// analysis keep it.
  void clear();

 private:
  template <typename T>
  friend class SparseLu;

  struct Found {
    std::shared_ptr<const LuSymbolic> symbolic;  ///< null on a miss
    std::shared_ptr<const LuPivots> pivots;      ///< null until recorded
  };
  /// Counts a hit (and refreshes recency) or a miss. row_ptr's size fixes
  /// n, so the two vectors are the whole pattern.
  Found find(std::uint64_t key, const std::vector<int>& row_ptr,
             const std::vector<int>& col_idx);
  /// Stores a freshly built analysis of the pattern (after a miss).
  void insert(std::uint64_t key, const std::vector<int>& row_ptr,
              const std::vector<int>& col_idx, std::shared_ptr<const LuSymbolic> symbolic);
  /// Sets the pivot record of the entry holding `symbolic`; a no-op once
  /// that entry has been evicted.
  void record_pivots(std::uint64_t key, const LuSymbolic* symbolic,
                     std::shared_ptr<const LuPivots> pivots);

  struct Entry {
    std::uint64_t key = 0;
    std::vector<int> row_ptr, col_idx;  ///< the exact pattern, for hit confirmation
    std::shared_ptr<const LuSymbolic> symbolic;
    std::shared_ptr<const LuPivots> pivots;
    std::size_t bytes = 0;
  };
  using Lru = std::list<Entry>;  ///< front = most recently used
  /// Evicts least recently used entries other than `keep` until the total
  /// fits the budget (caller holds mu_).
  void shrink_to_budget(Lru::iterator keep);
  void erase(Lru::iterator it);

  const std::size_t budget_;
  mutable std::mutex mu_;
  Lru lru_;
  std::unordered_multimap<std::uint64_t, Lru::iterator> index_;
  Stats stats_;
};

template <typename T>
class SparseLu {
 public:
  /// Registers the (square, n x n) pattern in CSR form. Column indices must
  /// be sorted and unique within each row. Also computes the approximate
  /// minimum degree column elimination order on the symmetrized pattern —
  /// essential for
  /// MNA systems, whose branch unknowns sit far from their nodes in the
  /// natural layout. Resets any previous factorization and the symbolic
  /// counter. The ordering is deterministic: the same pattern always
  /// produces the same permutation, on any platform. Never consults a
  /// cache.
  void analyze(int n, const std::vector<int>& row_ptr, const std::vector<int>& col_idx);

  /// analyze() through `cache`: a hit adopts the stored analysis (and, for
  /// the real type, its pivot record, which the first factor() verifies by
  /// replay); a miss analyzes and stores the result. The first full
  /// factorization of a real solver after this call records its pivots in
  /// the cache. Returns true on a hit. `cache` must outlive this solver.
  bool analyze(int n, const std::vector<int>& row_ptr, const std::vector<int>& col_idx,
               SymbolicCache& cache);

  bool analyzed() const noexcept { return sym_ != nullptr; }
  int size() const noexcept { return sym_ ? sym_->n : 0; }
  std::size_t nonzeros() const noexcept { return sym_ ? sym_->csc_of_csr.size() : 0; }

  /// The fill-reducing column elimination order computed by analyze():
  /// pivotal position j eliminates column ordering()[j]. Always a valid
  /// permutation of [0, n).
  const std::vector<int>& ordering() const noexcept;

  /// Numeric factorization of values laid out per the CSR pattern given to
  /// analyze(). Rows are max-scaled first (MNA systems mix natures whose
  /// magnitudes differ by many orders; scaling keeps pivot viability — and
  /// the refactorization degradation check — scale-free). Throws
  /// SingularMatrixError when no acceptable pivot exists.
  void factor(const std::vector<T>& csr_vals);

  bool factored() const noexcept { return factored_; }

  /// Total stored entries of L + U (both diagonals included) after factor();
  /// 0 before. factor_nonzeros() - nonzeros() is the fill-in the ordering
  /// admitted — the quality number bench_solver_scaling tracks.
  std::size_t factor_nonzeros() const noexcept {
    return factored_ ? piv_->li.size() + piv_->ui.size() : 0;
  }

  /// Forgets the recorded pivot order (keeps the analyzed pattern), so the
  /// next factor() runs a fresh pivot-searching factorization. Callers use
  /// this at analysis-phase boundaries where the matrix values change
  /// regime (e.g. DC -> transient) and a stale pivot order would either
  /// degrade or make results depend on solver history.
  void invalidate_pivot_order() noexcept {
    factored_ = false;
    piv_.reset();
  }

  /// Solves A x = b in place (b holds x on return). Requires factor().
  void solve(std::vector<T>& b) const;

  /// Borrows a deadline (non-owning; null = none): factor() and solve()
  /// check it at dispatch and throw DeadlineError once it expires, so a
  /// budgeted Newton loop can never sit inside an unbounded factorization
  /// chain. The per-call check is one clock read — negligible against the
  /// factorization itself. The caller must clear (or outlive) the pointer.
  void set_deadline(const Deadline* deadline) noexcept { deadline_ = deadline; }

  /// Number of full (pivot-searching) factorizations since analyze().
  /// Steady-state Newton/transient/AC loops should hold this at 1; a
  /// verified replay of a cached pivot record does not count.
  int symbolic_factorizations() const noexcept { return symbolic_count_; }

 private:
  void reset_numeric();
  void factor_full();
  /// Numeric replay of piv_; false = the order cannot stand for these
  /// values and the caller re-runs the full factorization. verify_pivots
  /// also requires every pivot to be the search's own choice.
  bool refactor(bool verify_pivots);
  int dfs_reach(const LuPivots& rec, int start, int top);

  std::shared_ptr<const LuSymbolic> sym_;
  std::vector<T> csc_vals_;
  std::vector<double> rscale_;  ///< per-row 1/max applied to the factored values

  // Factorization: the pivot record (shared with the cache once published)
  // plus this solver's own values.
  std::shared_ptr<const LuPivots> piv_;
  std::vector<T> lx_, ux_;
  bool factored_ = false;
  int symbolic_count_ = 0;

  SymbolicCache* cache_ = nullptr;  ///< set by the cached analyze()
  std::uint64_t cache_key_ = 0;
  bool record_pending_ = false;  ///< the next full factorization goes to cache_

  const Deadline* deadline_ = nullptr;  ///< non-owning; checked at dispatch

  // Scratch reused across factorizations/solves (no per-iteration allocs).
  std::vector<T> x_;
  std::vector<int> xi_, stack_, pstack_;
  std::vector<char> visited_;
  mutable std::vector<T> tmp_;
};

using DSparseLu = SparseLu<double>;
using ZSparseLu = SparseLu<std::complex<double>>;

}  // namespace usys
