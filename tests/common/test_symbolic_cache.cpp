// SymbolicCache: the process-wide store of symbolic analyses keyed on the
// CSR pattern (common/sparse_lu.hpp).
//
// Covered here, at the kernel: a cache-hit solver reproduces a cache-free
// one bit for bit on pivot-friendly and pivot-hostile value sets;
// equal-size patterns with different columns miss; a pivot record the new
// values contradict (or a NaN candidate) falls back to the search, whose
// record replaces it; LRU eviction and the oversize rule under small
// budgets; concurrent lookups and publishes. The circuit-level cases
// (.op/.tran/.ac of a cache-hit engine against a cold one) live in
// tests/spice/test_engine.cpp under the same suite name.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/sparse_lu.hpp"

namespace usys {
namespace {

struct Pattern {
  int n = 0;
  std::vector<int> row_ptr, col_idx;
};

/// Band of half-width 1 plus the entries (0, extra) and (n-1, n-1-extra):
/// patterns of equal n, row lengths and nnz that differ only in columns.
Pattern band_with_pair(int n, int extra) {
  Pattern p;
  p.n = n;
  p.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int r = 0; r < n; ++r) {
    std::vector<int> cols;
    for (int c = std::max(0, r - 1); c <= std::min(n - 1, r + 1); ++c) cols.push_back(c);
    if (r == 0) cols.push_back(extra);
    if (r == n - 1) cols.push_back(n - 1 - extra);
    std::sort(cols.begin(), cols.end());
    p.col_idx.insert(p.col_idx.end(), cols.begin(), cols.end());
    p.row_ptr[static_cast<std::size_t>(r) + 1] = static_cast<int>(p.col_idx.size());
  }
  return p;
}

/// Band of half-width 2 plus ~9 % random off-band entries.
Pattern random_pattern(int n, std::mt19937& rng) {
  Pattern p;
  p.n = n;
  p.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c)
      if (std::abs(r - c) <= 2 || rng() % 11 == 0) p.col_idx.push_back(c);
    p.row_ptr[static_cast<std::size_t>(r) + 1] = static_cast<int>(p.col_idx.size());
  }
  return p;
}

/// Uniform values in [-1, 1] with a diagonal of `diag` (small values make
/// partial pivoting leave the diagonal, so different value sets pick
/// different pivots).
std::vector<double> values(const Pattern& p, double diag, std::mt19937& rng) {
  std::uniform_real_distribution<double> ud(-1.0, 1.0);
  std::vector<double> v(p.col_idx.size());
  for (int r = 0; r < p.n; ++r)
    for (int s = p.row_ptr[r]; s < p.row_ptr[r + 1]; ++s)
      v[static_cast<std::size_t>(s)] =
          p.col_idx[static_cast<std::size_t>(s)] == r ? diag + ud(rng) : ud(rng);
  return v;
}

/// Factor + solve A x = (1, 2, ..., n); exceptions propagate.
std::vector<double> solve_with(DSparseLu& lu, const std::vector<double>& vals) {
  lu.factor(vals);
  std::vector<double> b(static_cast<std::size_t>(lu.size()));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<double>(i + 1);
  lu.solve(b);
  return b;
}

/// The reference: a solver that never saw a cache.
std::vector<double> cache_free(const Pattern& p, const std::vector<double>& vals) {
  DSparseLu lu;
  lu.analyze(p.n, p.row_ptr, p.col_idx);
  return solve_with(lu, vals);
}

TEST(SymbolicCache, HitSolverIsBitIdenticalToCacheFreeSolver) {
  SymbolicCache cache(1 << 20);
  std::mt19937 rng(2024);
  const Pattern p = random_pattern(60, rng);
  int replays = 0;
  int searches = 0;
  // Dominant diagonals keep the recorded pivots; weak ones (diag ~ 0)
  // move them, so both the accepted and the rejected replay run.
  for (int k = 0; k < 40; ++k) {
    const std::vector<double> vals = values(p, k < 20 ? 20.0 : 0.0, rng);
    DSparseLu lu;
    lu.analyze(p.n, p.row_ptr, p.col_idx, cache);
    const std::vector<double> got = solve_with(lu, vals);
    EXPECT_EQ(got, cache_free(p, vals)) << "value set " << k;
    ASSERT_LE(lu.symbolic_factorizations(), 1);
    (lu.symbolic_factorizations() == 0 ? replays : searches)++;
  }
  EXPECT_GT(replays, 0);
  EXPECT_GT(searches, 1);  // the first solver plus at least one rejected replay
  const SymbolicCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 39);
  EXPECT_EQ(s.entries, 1u);
}

TEST(SymbolicCache, EqualSizePatternsWithDifferentColumnsMiss) {
  SymbolicCache cache(1 << 20);
  const Pattern a = band_with_pair(20, 5);
  const Pattern b = band_with_pair(20, 9);
  ASSERT_EQ(a.row_ptr, b.row_ptr);  // same n, same row lengths, same nnz
  ASSERT_NE(a.col_idx, b.col_idx);
  DSparseLu la, lb, la2;
  EXPECT_FALSE(la.analyze(a.n, a.row_ptr, a.col_idx, cache));
  EXPECT_FALSE(lb.analyze(b.n, b.row_ptr, b.col_idx, cache));
  EXPECT_TRUE(la2.analyze(a.n, a.row_ptr, a.col_idx, cache));
  EXPECT_EQ(la2.ordering(), la.ordering());
  const SymbolicCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.entries, 2u);
}

TEST(SymbolicCache, ContradictedPivotRecordIsRejectedAndReplaced) {
  // Full 2x2: after row scaling, the first value set makes row 0 the
  // pivot of the first column, the second makes row 1 the pivot.
  const Pattern p{2, {0, 2, 4}, {0, 1, 0, 1}};
  const std::vector<double> diagonal{10.0, 1.0, 1.0, 10.0};
  const std::vector<double> anti{1.0, 10.0, 10.0, 1.0};
  SymbolicCache cache(1 << 20);

  DSparseLu first;
  first.analyze(p.n, p.row_ptr, p.col_idx, cache);
  EXPECT_EQ(solve_with(first, diagonal), cache_free(p, diagonal));
  EXPECT_EQ(first.symbolic_factorizations(), 1);

  DSparseLu second;
  ASSERT_TRUE(second.analyze(p.n, p.row_ptr, p.col_idx, cache));
  EXPECT_EQ(solve_with(second, anti), cache_free(p, anti));
  EXPECT_EQ(second.symbolic_factorizations(), 1);  // replay rejected: one search

  // The rejected record was replaced by the search's, so the next solver
  // with these values replays it.
  DSparseLu third;
  ASSERT_TRUE(third.analyze(p.n, p.row_ptr, p.col_idx, cache));
  EXPECT_EQ(solve_with(third, anti), cache_free(p, anti));
  EXPECT_EQ(third.symbolic_factorizations(), 0);

  // After a regime boundary a solver searches again, as without a cache.
  third.invalidate_pivot_order();
  EXPECT_EQ(solve_with(third, anti), cache_free(p, anti));
  EXPECT_EQ(third.symbolic_factorizations(), 1);
}

TEST(SymbolicCache, NanCandidateFallsBackToTheSearch) {
  // Lower-triangular 2x2: column 0's candidates are rows 0 and 1. A NaN in
  // row 1 never reaches column 1, so the search still succeeds (it skips
  // NaN candidates); the replay must not try to second-guess it.
  const Pattern p{2, {0, 1, 3}, {0, 0, 1}};
  SymbolicCache cache(1 << 20);
  DSparseLu first;
  first.analyze(p.n, p.row_ptr, p.col_idx, cache);
  solve_with(first, {10.0, 1.0, 10.0});
  DSparseLu second;
  ASSERT_TRUE(second.analyze(p.n, p.row_ptr, p.col_idx, cache));
  second.factor({10.0, std::nan(""), 10.0});
  EXPECT_EQ(second.symbolic_factorizations(), 1);
}

TEST(SymbolicCache, LeastRecentlyUsedEntryIsEvicted) {
  const Pattern a = band_with_pair(200, 50);
  const Pattern b = band_with_pair(200, 90);
  const Pattern c = band_with_pair(200, 130);
  std::size_t one = 0;
  {
    SymbolicCache probe(1 << 20);
    DSparseLu lu;
    lu.analyze(a.n, a.row_ptr, a.col_idx, probe);
    one = probe.stats().bytes;
  }
  ASSERT_GT(one, 0u);
  SymbolicCache cache(one * 5 / 2);  // room for two analyses
  const auto lookup = [&cache](const Pattern& p) {
    DSparseLu lu;
    return lu.analyze(p.n, p.row_ptr, p.col_idx, cache);
  };
  EXPECT_FALSE(lookup(a));
  EXPECT_FALSE(lookup(b));
  EXPECT_TRUE(lookup(a));   // a is now the most recently used
  EXPECT_FALSE(lookup(c));  // evicts b
  SymbolicCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, one * 5 / 2);
  EXPECT_TRUE(lookup(a));
  EXPECT_TRUE(lookup(c));
  EXPECT_FALSE(lookup(b));  // gone; storing it again evicts a
  s = cache.stats();
  EXPECT_EQ(s.evictions, 2);
  EXPECT_EQ(s.hits, 3);
  EXPECT_EQ(s.misses, 4);
}

TEST(SymbolicCache, EntryLargerThanTheBudgetIsNotStored) {
  const Pattern p = band_with_pair(100, 40);
  std::mt19937 rng(3);
  const std::vector<double> vals = values(p, 4.0, rng);
  SymbolicCache cache(256);
  for (int k = 0; k < 2; ++k) {
    DSparseLu lu;
    EXPECT_FALSE(lu.analyze(p.n, p.row_ptr, p.col_idx, cache));
    EXPECT_EQ(solve_with(lu, vals), cache_free(p, vals));
  }
  const SymbolicCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.evictions, 0);
}

TEST(SymbolicCache, ConcurrentLookupsAndPublishes) {
  // Three patterns through a cache with room for about two: threads race
  // on lookups, inserts, pivot records and evictions. Every solve must
  // still equal the cache-free reference bit for bit.
  std::vector<Pattern> patterns;
  std::vector<std::vector<double>> vals, expected;
  std::mt19937 rng(99);
  for (int extra : {30, 60, 90}) {
    patterns.push_back(band_with_pair(120, extra));
    vals.push_back(values(patterns.back(), 4.0, rng));
    expected.push_back(cache_free(patterns.back(), vals.back()));
  }
  std::size_t one = 0;
  {
    SymbolicCache probe(1 << 20);
    DSparseLu lu;
    lu.analyze(patterns[0].n, patterns[0].row_ptr, patterns[0].col_idx, probe);
    lu.factor(vals[0]);
    one = probe.stats().bytes;
  }
  SymbolicCache cache(one * 5 / 2);
  constexpr int kThreads = 4;
  constexpr int kRounds = 30;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const auto k = static_cast<std::size_t>((t + r) % 3);
        DSparseLu lu;
        lu.analyze(patterns[k].n, patterns[k].row_ptr, patterns[k].col_idx, cache);
        if (solve_with(lu, vals[k]) != expected[k]) ++mismatches[static_cast<std::size_t>(t)];
        (void)cache.stats();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0);
  const SymbolicCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, kThreads * kRounds);
  EXPECT_LE(s.bytes, one * 5 / 2);
}

}  // namespace
}  // namespace usys
