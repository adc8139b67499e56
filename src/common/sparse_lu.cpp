#include "common/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/deadline.hpp"
#include "common/fault_inject.hpp"

namespace usys {
namespace {

/// Below this magnitude a pivot counts as numerically zero (matches the
/// dense lu_solve threshold for SingularMatrixError parity).
constexpr double kAbsPivotFloor = 1e-300;

/// Refactorization guard: partial pivoting bounds |L| by 1, so a reused
/// pivot order producing multipliers beyond this limit has degraded enough
/// to warrant a fresh pivot search (KLU uses the same reciprocal, 1e-3, as
/// its refactorization pivot tolerance). Newton and timestep loops change
/// values smoothly and rarely trip this; wholesale value changes do.
constexpr double kPivotGrowthLimit = 1e3;

void check_dimensions(int n, const std::vector<int>& row_ptr) {
  if (n < 0 || row_ptr.size() != static_cast<std::size_t>(n) + 1)
    throw std::invalid_argument("SparseLu::analyze: bad pattern dimensions");
}

std::vector<std::vector<int>> symmetrized_adjacency(const LuSymbolic& s) {
  const int n = s.n;
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    for (int p = s.col_ptr[static_cast<std::size_t>(j)];
         p < s.col_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
      const int i = s.row_idx[static_cast<std::size_t>(p)];
      if (i != j) {
        adj[static_cast<std::size_t>(i)].push_back(j);
        adj[static_cast<std::size_t>(j)].push_back(i);
      }
    }
  }
  for (auto& a : adj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }
  return adj;
}

/// Approximate minimum degree on the quotient graph (Amestoy/Davis/Duff):
/// eliminating supervariable p turns it into an ELEMENT whose pattern Lp is
/// the union of p's remaining variable neighbors and the patterns of the
/// elements it absorbs; the variables in Lp then get
///
///   d(i) ~= |A_i \ Lp| + |Lp \ i| + sum_{e in E_i \ p} |Le \ Lp|
///
/// with every |Le \ Lp| computed in one sweep (the w-counter trick), so no
/// explicit fill graph is ever built. Two AMD staples ride along:
///   * supervariable detection — variables in Lp with identical pruned
///     adjacency (hashed, then compared exactly) merge into one weighted
///     supervariable and are eliminated together;
///   * mass elimination — variables whose adjacency collapses to exactly
///     {p} are ordered immediately after p (their elimination admits no
///     fill beyond Lp's).
/// Dense rows (Amestoy/Davis/Duff): a row whose symmetrized degree exceeds
/// max(16, 10 sqrt(n)) — e.g. a bus shared by every cell of an array —
/// would be rescanned at every neighbouring pivot, O(n^2) overall. Such
/// rows leave the graph before elimination and are ordered last, in
/// ascending index order. Each remaining variable adds its fixed count of
/// dense neighbours to every degree, and only variables with equal counts
/// merge, so ties among them break as on the full graph.
/// Determinism: candidates live in an ordered (degree, index) set, merges
/// keep the smallest index as principal, and all adjacency lists stay
/// sorted — the same pattern yields the same permutation everywhere.
void amd_order(LuSymbolic& s) {
  const int n = s.n;
  std::vector<int>& q = s.q;
  q.clear();
  q.reserve(static_cast<std::size_t>(n));
  if (n == 0) return;

  // Quotient-graph role. kAbsorbed covers variables merged into a
  // supervariable, mass-eliminated variables and postponed dense rows:
  // all are out of the graph (scrubbed from or filtered out of every live
  // adjacency) while their indices are emitted through q.
  enum : char { kLive, kElement, kAbsorbed, kDead };
  std::vector<char> state(static_cast<std::size_t>(n), kLive);
  std::vector<std::vector<int>> vlist = symmetrized_adjacency(s);  // variable nbrs
  std::vector<std::vector<int>> elist(static_cast<std::size_t>(n));  // element nbrs
  std::vector<std::vector<int>> epat(static_cast<std::size_t>(n));   // element patterns
  std::vector<std::vector<int>> merged(static_cast<std::size_t>(n));
  std::vector<long long> nv(static_cast<std::size_t>(n), 1);  // supervariable weight
  std::vector<long long> deg(static_cast<std::size_t>(n), 0);
  std::vector<long long> ndense(static_cast<std::size_t>(n), 0);  // dense nbr count

  const auto sorted_erase = [](std::vector<int>& v, int value) {
    const auto it = std::lower_bound(v.begin(), v.end(), value);
    if (it != v.end() && *it == value) v.erase(it);
  };

  // Dense rows leave the graph before the first pivot; q gets them last.
  const double dense_cut = std::max(16.0, 10.0 * std::sqrt(static_cast<double>(n)));
  std::vector<int> dense;
  for (int i = 0; i < n; ++i)
    if (static_cast<double>(vlist[static_cast<std::size_t>(i)].size()) > dense_cut)
      dense.push_back(i);
  for (int d : dense) {
    const auto sd = static_cast<std::size_t>(d);
    state[sd] = kAbsorbed;
    for (int v : vlist[sd]) {
      sorted_erase(vlist[static_cast<std::size_t>(v)], d);
      ++ndense[static_cast<std::size_t>(v)];
    }
    vlist[sd].clear();
    vlist[sd].shrink_to_fit();
  }

  std::set<std::pair<long long, int>> degq;  // (approx degree, index): smallest first
  for (int i = 0; i < n; ++i) {
    const auto si = static_cast<std::size_t>(i);
    if (state[si] != kLive) continue;
    deg[si] = static_cast<long long>(vlist[si].size()) + ndense[si];
    degq.emplace(deg[si], i);
  }

  // Live principal-variable weight still to eliminate (degree clamp bound);
  // the postponed dense rows stay in it.
  long long live_weight = n;

  std::vector<int> in_lp(static_cast<std::size_t>(n), 0);  // Lp membership marks
  std::vector<long long> w(static_cast<std::size_t>(n), -1);  // |Le \ Lp| scratch
  std::vector<int> lp, wtouch, hash_order;
  std::vector<long long> hash(static_cast<std::size_t>(n), 0);
  const auto live_pattern_weight = [&](const std::vector<int>& pat) {
    long long s = 0;
    for (int v : pat)
      if (state[static_cast<std::size_t>(v)] == kLive) s += nv[static_cast<std::size_t>(v)];
    return s;
  };
  // Emits a supervariable: the principal index, then every variable merged
  // into it (depth first, in merge order) — all occupy adjacent pivotal
  // positions, which is exactly what made them indistinguishable.
  std::vector<int> emit_stack;
  const auto emit = [&](int v) {
    emit_stack.assign(1, v);
    while (!emit_stack.empty()) {
      const int u = emit_stack.back();
      emit_stack.pop_back();
      q.push_back(u);
      const auto& m = merged[static_cast<std::size_t>(u)];
      for (auto it = m.rbegin(); it != m.rend(); ++it) emit_stack.push_back(*it);
    }
  };

  while (!degq.empty()) {
    const int p = degq.begin()->second;
    degq.erase(degq.begin());
    const auto sp = static_cast<std::size_t>(p);

    // --- form element pattern Lp (live principal variables, p excluded) ---
    lp.clear();
    in_lp[sp] = 1;
    for (int v : vlist[sp]) {
      const auto sv = static_cast<std::size_t>(v);
      if (state[sv] == kLive && !in_lp[sv]) {
        in_lp[sv] = 1;
        lp.push_back(v);
      }
    }
    for (int e : elist[sp]) {
      const auto se = static_cast<std::size_t>(e);
      if (state[se] != kElement) continue;
      for (int v : epat[se]) {
        const auto sv = static_cast<std::size_t>(v);
        if (state[sv] == kLive && !in_lp[sv]) {
          in_lp[sv] = 1;
          lp.push_back(v);
        }
      }
      // Element absorption: e's coverage is now a subset of element p's.
      state[se] = kDead;
      epat[se].clear();
      epat[se].shrink_to_fit();
    }
    std::sort(lp.begin(), lp.end());
    state[sp] = kElement;
    live_weight -= nv[sp];
    long long lp_weight = 0;
    for (int v : lp) lp_weight += nv[static_cast<std::size_t>(v)];
    vlist[sp].clear();
    vlist[sp].shrink_to_fit();
    elist[sp].clear();
    elist[sp].shrink_to_fit();
    emit(p);

    // --- w trick: w[e] = |Le \ Lp| for every element touching Lp ----------
    wtouch.clear();
    for (int i : lp) {
      for (int e : elist[static_cast<std::size_t>(i)]) {
        const auto se = static_cast<std::size_t>(e);
        if (state[se] != kElement) continue;
        if (w[se] < 0) {
          w[se] = live_pattern_weight(epat[se]);
          wtouch.push_back(e);
        }
        w[se] -= nv[static_cast<std::size_t>(i)];
      }
    }

    // --- prune adjacency and refresh approximate degrees ------------------
    for (int i : lp) {
      const auto si = static_cast<std::size_t>(i);
      auto& vl = vlist[si];
      // Edges inside Lp (and to p) are covered by element p from now on;
      // dead/absorbed entries are dropped on the way.
      vl.erase(std::remove_if(vl.begin(), vl.end(),
                              [&](int v) {
                                const auto sv = static_cast<std::size_t>(v);
                                return state[sv] != kLive || in_lp[sv];
                              }),
               vl.end());
      auto& el = elist[si];
      el.erase(std::remove_if(el.begin(), el.end(),
                              [&](int e) {
                                return state[static_cast<std::size_t>(e)] != kElement;
                              }),
               el.end());
      el.insert(std::lower_bound(el.begin(), el.end(), p), p);

      long long d = lp_weight - nv[si] + ndense[si];
      for (int v : vl) d += nv[static_cast<std::size_t>(v)];
      for (int e : el) {
        if (e == p) continue;
        const auto se = static_cast<std::size_t>(e);
        d += (w[se] >= 0) ? w[se] : live_pattern_weight(epat[se]);
      }
      d = std::min(d, live_weight - nv[si]);
      d = std::max<long long>(d, 0);
      degq.erase({deg[si], i});
      deg[si] = d;
      degq.emplace(d, i);
    }
    for (int e : wtouch) w[static_cast<std::size_t>(e)] = -1;

    // --- supervariable detection (hash, then exact compare) ----------------
    hash_order.clear();
    for (int i : lp) {
      const auto si = static_cast<std::size_t>(i);
      long long h = 0;
      for (int v : vlist[si]) h += v;
      for (int e : elist[si]) h += e;
      hash[si] = h;
      hash_order.push_back(i);
    }
    for (std::size_t a = 0; a < hash_order.size(); ++a) {
      const int i = hash_order[a];
      const auto si = static_cast<std::size_t>(i);
      if (state[si] != kLive) continue;
      for (std::size_t b = a + 1; b < hash_order.size(); ++b) {
        const int j = hash_order[b];
        const auto sj = static_cast<std::size_t>(j);
        if (state[sj] != kLive || hash[si] != hash[sj]) continue;
        if (ndense[si] != ndense[sj] || vlist[si] != vlist[sj] || elist[si] != elist[sj])
          continue;
        // Indistinguishable: merge j into i (i < j keeps the principal
        // deterministic). i's weight absorbs j's, so neighbor degrees —
        // which sum nv over live entries — need j scrubbed from their lists.
        nv[si] += nv[sj];
        merged[si].push_back(j);
        state[sj] = kAbsorbed;
        degq.erase({deg[sj], j});
        for (int v : vlist[sj]) sorted_erase(vlist[static_cast<std::size_t>(v)], j);
        for (int e : elist[sj]) sorted_erase(epat[static_cast<std::size_t>(e)], j);
        vlist[sj].clear();
        vlist[sj].shrink_to_fit();
        elist[sj].clear();
        elist[sj].shrink_to_fit();
      }
    }

    // --- mass elimination: adjacency collapsed to exactly {p} --------------
    for (int i : lp) {
      const auto si = static_cast<std::size_t>(i);
      if (state[si] != kLive) continue;
      if (vlist[si].empty() && elist[si].size() == 1 && elist[si][0] == p) {
        degq.erase({deg[si], i});
        live_weight -= nv[si];
        state[si] = kAbsorbed;
        emit(i);
        elist[si].clear();
        elist[si].shrink_to_fit();
      }
    }

    // Element p keeps the still-live part of Lp as its pattern.
    epat[sp].clear();
    for (int v : lp) {
      if (state[static_cast<std::size_t>(v)] == kLive) epat[sp].push_back(v);
      in_lp[static_cast<std::size_t>(v)] = 0;
    }
    in_lp[sp] = 0;
    if (epat[sp].empty()) state[sp] = kDead;
  }

  q.insert(q.end(), dense.begin(), dense.end());
  if (q.size() != static_cast<std::size_t>(n))
    throw std::logic_error("SparseLu: AMD ordering dropped variables");
}

/// CSC copy, slot mapping and AMD order of a CSR pattern.
std::shared_ptr<LuSymbolic> build_symbolic(int n, const std::vector<int>& row_ptr,
                                           const std::vector<int>& col_idx) {
  auto sym = std::make_shared<LuSymbolic>();
  LuSymbolic& s = *sym;
  s.n = n;
  const std::size_t nnz = col_idx.size();

  // Column counts -> CSC pointers.
  s.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (int c : col_idx) s.col_ptr[static_cast<std::size_t>(c) + 1]++;
  for (int j = 0; j < n; ++j) s.col_ptr[j + 1] += s.col_ptr[j];

  // Fill CSC row indices and the CSR-slot -> CSC-slot mapping.
  s.row_idx.assign(nnz, 0);
  s.csc_of_csr.assign(nnz, 0);
  std::vector<int> next(s.col_ptr.begin(), s.col_ptr.end() - 1);
  for (int r = 0; r < n; ++r) {
    for (int k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const int c = col_idx[static_cast<std::size_t>(k)];
      const int p = next[static_cast<std::size_t>(c)]++;
      s.row_idx[static_cast<std::size_t>(p)] = r;
      s.csc_of_csr[static_cast<std::size_t>(k)] = p;
    }
  }

  amd_order(s);
  return sym;
}

/// Transposes the recorded L/U patterns into row-major views (index maps
/// into lx/ux, so refactorizations keep them valid).
void build_row_views(int n, LuPivots& r) {
  const auto sn = static_cast<std::size_t>(n);

  // L^T rows, skipping each column's leading unit diagonal. Columns are
  // visited in ascending order, so every row's entries come out sorted by
  // column — a fixed per-row gather order.
  r.lt_ptr.assign(sn + 1, 0);
  for (int j = 0; j < n; ++j)
    for (int p = r.lp[static_cast<std::size_t>(j)] + 1;
         p < r.lp[static_cast<std::size_t>(j) + 1]; ++p)
      ++r.lt_ptr[static_cast<std::size_t>(r.li[static_cast<std::size_t>(p)]) + 1];
  for (std::size_t i = 0; i < sn; ++i) r.lt_ptr[i + 1] += r.lt_ptr[i];
  r.lt_idx.assign(static_cast<std::size_t>(r.lt_ptr[sn]), 0);
  r.lt_map.assign(static_cast<std::size_t>(r.lt_ptr[sn]), 0);
  {
    std::vector<int> cur(r.lt_ptr.begin(), r.lt_ptr.end() - 1);
    for (int j = 0; j < n; ++j) {
      for (int p = r.lp[static_cast<std::size_t>(j)] + 1;
           p < r.lp[static_cast<std::size_t>(j) + 1]; ++p) {
        const auto row = static_cast<std::size_t>(r.li[static_cast<std::size_t>(p)]);
        const auto slot = static_cast<std::size_t>(cur[row]++);
        r.lt_idx[slot] = j;
        r.lt_map[slot] = p;
      }
    }
  }

  // U^T rows, skipping each column's trailing diagonal.
  r.ut_ptr.assign(sn + 1, 0);
  for (int j = 0; j < n; ++j)
    for (int p = r.up[static_cast<std::size_t>(j)];
         p < r.up[static_cast<std::size_t>(j) + 1] - 1; ++p)
      ++r.ut_ptr[static_cast<std::size_t>(r.ui[static_cast<std::size_t>(p)]) + 1];
  for (std::size_t i = 0; i < sn; ++i) r.ut_ptr[i + 1] += r.ut_ptr[i];
  r.ut_idx.assign(static_cast<std::size_t>(r.ut_ptr[sn]), 0);
  r.ut_map.assign(static_cast<std::size_t>(r.ut_ptr[sn]), 0);
  {
    std::vector<int> cur(r.ut_ptr.begin(), r.ut_ptr.end() - 1);
    for (int j = 0; j < n; ++j) {
      for (int p = r.up[static_cast<std::size_t>(j)];
           p < r.up[static_cast<std::size_t>(j) + 1] - 1; ++p) {
        const auto row = static_cast<std::size_t>(r.ui[static_cast<std::size_t>(p)]);
        const auto slot = static_cast<std::size_t>(cur[row]++);
        r.ut_idx[slot] = j;
        r.ut_map[slot] = p;
      }
    }
  }
}

/// The SymbolicCache key: FNV-1a over the pattern's 32-bit words.
std::uint64_t pattern_hash(int n, const std::vector<int>& row_ptr,
                           const std::vector<int>& col_idx) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint32_t>(n));
  mix(col_idx.size());
  for (int v : row_ptr) mix(static_cast<std::uint32_t>(v));
  for (int v : col_idx) mix(static_cast<std::uint32_t>(v));
  return h;
}

std::size_t int_bytes(const std::vector<int>& v) { return v.size() * sizeof(int); }

std::size_t pivots_bytes(const LuPivots* r) {
  if (r == nullptr) return 0;
  return sizeof(LuPivots) + int_bytes(r->pinv) + int_bytes(r->lp) + int_bytes(r->li) +
         int_bytes(r->up) + int_bytes(r->ui) + int_bytes(r->rank) + int_bytes(r->lt_ptr) +
         int_bytes(r->lt_idx) + int_bytes(r->lt_map) + int_bytes(r->ut_ptr) +
         int_bytes(r->ut_idx) + int_bytes(r->ut_map);
}

}  // namespace

// ---------------------------------------------------------------------------
// SymbolicCache
// ---------------------------------------------------------------------------

SymbolicCache& SymbolicCache::process() {
  static SymbolicCache instance(kProcessBudgetBytes);
  return instance;
}

SymbolicCache::Stats SymbolicCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = lru_.size();
  return s;
}

void SymbolicCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  index_.clear();
  lru_.clear();
  stats_ = Stats{};
}

SymbolicCache::Found SymbolicCache::find(std::uint64_t key, const std::vector<int>& row_ptr,
                                         const std::vector<int>& col_idx) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [first, last] = index_.equal_range(key);
  for (auto it = first; it != last; ++it) {
    const Entry& e = *it->second;
    if (e.row_ptr != row_ptr || e.col_idx != col_idx) continue;  // a hash collision
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    return {e.symbolic, e.pivots};
  }
  ++stats_.misses;
  return {};
}

void SymbolicCache::insert(std::uint64_t key, const std::vector<int>& row_ptr,
                           const std::vector<int>& col_idx,
                           std::shared_ptr<const LuSymbolic> symbolic) {
  const LuSymbolic& s = *symbolic;
  Entry entry{key, row_ptr, col_idx, std::move(symbolic), nullptr, 0};
  entry.bytes = sizeof(Entry) + int_bytes(row_ptr) + int_bytes(col_idx) +
                sizeof(LuSymbolic) + int_bytes(s.col_ptr) + int_bytes(s.row_idx) +
                int_bytes(s.csc_of_csr) + int_bytes(s.q);
  if (entry.bytes > budget_) return;
  std::lock_guard<std::mutex> lock(mu_);
  // A concurrent miss on the same pattern may have stored it first.
  const auto [first, last] = index_.equal_range(key);
  for (auto it = first; it != last; ++it) {
    const Entry& e = *it->second;
    if (e.row_ptr == row_ptr && e.col_idx == col_idx) return;
  }
  stats_.bytes += entry.bytes;
  lru_.push_front(std::move(entry));
  index_.emplace(key, lru_.begin());
  shrink_to_budget(lru_.begin());
}

void SymbolicCache::record_pivots(std::uint64_t key, const LuSymbolic* symbolic,
                                  std::shared_ptr<const LuPivots> pivots) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [first, last] = index_.equal_range(key);
  for (auto it = first; it != last; ++it) {
    Entry& e = *it->second;
    if (e.symbolic.get() != symbolic) continue;
    const std::size_t bytes =
        e.bytes - pivots_bytes(e.pivots.get()) + pivots_bytes(pivots.get());
    if (bytes > budget_) return;  // keep the entry without a pivot record
    stats_.bytes = stats_.bytes - e.bytes + bytes;
    e.bytes = bytes;
    e.pivots = std::move(pivots);
    lru_.splice(lru_.begin(), lru_, it->second);
    shrink_to_budget(lru_.begin());
    return;
  }
}

void SymbolicCache::shrink_to_budget(Lru::iterator keep) {
  while (stats_.bytes > budget_ && std::prev(lru_.end()) != keep) {
    erase(std::prev(lru_.end()));
    ++stats_.evictions;
  }
}

void SymbolicCache::erase(Lru::iterator victim) {
  const auto [first, last] = index_.equal_range(victim->key);
  for (auto it = first; it != last; ++it) {
    if (it->second == victim) {
      index_.erase(it);
      break;
    }
  }
  stats_.bytes -= victim->bytes;
  lru_.erase(victim);
}

// ---------------------------------------------------------------------------
// SparseLu
// ---------------------------------------------------------------------------

template <typename T>
void SparseLu<T>::analyze(int n, const std::vector<int>& row_ptr,
                          const std::vector<int>& col_idx) {
  check_dimensions(n, row_ptr);
  sym_ = build_symbolic(n, row_ptr, col_idx);
  cache_ = nullptr;
  record_pending_ = false;
  reset_numeric();
}

template <typename T>
bool SparseLu<T>::analyze(int n, const std::vector<int>& row_ptr,
                          const std::vector<int>& col_idx, SymbolicCache& cache) {
  check_dimensions(n, row_ptr);
  const std::uint64_t key = pattern_hash(n, row_ptr, col_idx);
  SymbolicCache::Found found = cache.find(key, row_ptr, col_idx);
  const bool hit = found.symbolic != nullptr;
  if (hit) {
    sym_ = std::move(found.symbolic);
  } else {
    sym_ = build_symbolic(n, row_ptr, col_idx);
    cache.insert(key, row_ptr, col_idx, sym_);
  }
  reset_numeric();
  cache_ = &cache;
  cache_key_ = key;
  // Pivot records are real-valued: the AC sweep's complex solver shares
  // only the ordering.
  record_pending_ = std::is_same_v<T, double>;
  if (record_pending_ && found.pivots != nullptr) {
    piv_ = std::move(found.pivots);
    lx_.assign(piv_->li.size(), T{});
    ux_.assign(piv_->ui.size(), T{});
    for (int jj = 0; jj < n; ++jj) lx_[static_cast<std::size_t>(piv_->lp[jj])] = T(1);
  }
  return hit;
}

template <typename T>
void SparseLu<T>::reset_numeric() {
  const auto n = static_cast<std::size_t>(sym_->n);
  csc_vals_.assign(sym_->csc_of_csr.size(), T{});
  piv_.reset();
  factored_ = false;
  symbolic_count_ = 0;
  x_.assign(n, T{});
  xi_.assign(n, 0);
  stack_.assign(n, 0);
  pstack_.assign(n, 0);
  visited_.assign(n, 0);
}

template <typename T>
const std::vector<int>& SparseLu<T>::ordering() const noexcept {
  static const std::vector<int> kNone;
  return sym_ ? sym_->q : kNone;
}

template <typename T>
void SparseLu<T>::factor(const std::vector<T>& csr_vals) {
  if (!analyzed()) throw std::logic_error("SparseLu::factor before analyze");
  const LuSymbolic& s = *sym_;
  if (csr_vals.size() != s.csc_of_csr.size())
    throw std::invalid_argument("SparseLu::factor: value count != pattern nonzeros");
  if (deadline_ != nullptr) deadline_->check("SparseLu::factor");
  if (USYS_FAULT_POINT("sparse_lu.singular")) throw SingularMatrixError(0);
  for (std::size_t k = 0; k < csr_vals.size(); ++k)
    csc_vals_[static_cast<std::size_t>(s.csc_of_csr[k])] = csr_vals[k];
  // Row max-scaling: factor (R A) instead of A so pivot comparisons are
  // scale-free across natures and across large value drifts within a row.
  rscale_.assign(static_cast<std::size_t>(s.n), 0.0);
  for (std::size_t p = 0; p < csc_vals_.size(); ++p) {
    const auto r = static_cast<std::size_t>(s.row_idx[p]);
    rscale_[r] = std::max(rscale_[r], std::abs(csc_vals_[p]));
  }
  for (auto& v : rscale_) v = (v > 0.0) ? 1.0 / v : 1.0;
  for (std::size_t p = 0; p < csc_vals_.size(); ++p)
    csc_vals_[p] *= rscale_[static_cast<std::size_t>(s.row_idx[p])];
  // A recorded pivot order is either this solver's own (refactor) or one
  // adopted from the cache and not yet checked against these values.
  if (piv_ != nullptr && refactor(!factored_)) {
    factored_ = true;
    record_pending_ = false;
    return;
  }
  factor_full();
  if (record_pending_) {
    record_pending_ = false;
    cache_->record_pivots(cache_key_, sym_.get(), piv_);
  }
}

/// DFS over the partial-L graph: node i's children are the sub-diagonal
/// entries of L's column pinv[i] (not-yet-pivotal nodes are leaves).
/// Finished nodes land in xi_[top-1 .. ] in topological order.
template <typename T>
int SparseLu<T>::dfs_reach(const LuPivots& rec, int start, int top) {
  int head = 0;
  stack_[0] = start;
  while (head >= 0) {
    const int i = stack_[static_cast<std::size_t>(head)];
    const int col = rec.pinv[static_cast<std::size_t>(i)];
    if (!visited_[static_cast<std::size_t>(i)]) {
      visited_[static_cast<std::size_t>(i)] = 1;
      pstack_[static_cast<std::size_t>(head)] =
          (col < 0) ? 0 : rec.lp[static_cast<std::size_t>(col)] + 1;
    }
    bool descended = false;
    if (col >= 0) {
      const int end = rec.lp[static_cast<std::size_t>(col) + 1];
      for (int p = pstack_[static_cast<std::size_t>(head)]; p < end; ++p) {
        const int child = rec.li[static_cast<std::size_t>(p)];
        if (!visited_[static_cast<std::size_t>(child)]) {
          pstack_[static_cast<std::size_t>(head)] = p + 1;
          stack_[static_cast<std::size_t>(++head)] = child;
          descended = true;
          break;
        }
      }
    }
    if (!descended) {
      --head;
      xi_[static_cast<std::size_t>(--top)] = i;
    }
  }
  return top;
}

template <typename T>
void SparseLu<T>::factor_full() {
  const LuSymbolic& s = *sym_;
  const int n = s.n;
  piv_.reset();
  factored_ = false;
  auto rec = std::make_shared<LuPivots>();
  LuPivots& r = *rec;
  r.pinv.assign(static_cast<std::size_t>(n), -1);
  r.lp.assign(static_cast<std::size_t>(n) + 1, 0);
  r.up.assign(static_cast<std::size_t>(n) + 1, 0);
  r.rank.assign(static_cast<std::size_t>(n), 0);
  lx_.clear();
  ux_.clear();

  for (int jj = 0; jj < n; ++jj) {
    const int j = s.q[static_cast<std::size_t>(jj)];  // column eliminated at position jj
    r.lp[static_cast<std::size_t>(jj)] = static_cast<int>(r.li.size());
    r.up[static_cast<std::size_t>(jj)] = static_cast<int>(r.ui.size());

    // Reach of A(:,j) in the partial-L graph (original row space).
    int top = n;
    for (int p = s.col_ptr[static_cast<std::size_t>(j)];
         p < s.col_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
      const int i = s.row_idx[static_cast<std::size_t>(p)];
      if (!visited_[static_cast<std::size_t>(i)]) top = dfs_reach(r, i, top);
    }

    // Numeric sparse triangular solve x = L \ A(:,j).
    for (int p = top; p < n; ++p) x_[static_cast<std::size_t>(xi_[static_cast<std::size_t>(p)])] = T{};
    for (int p = s.col_ptr[static_cast<std::size_t>(j)];
         p < s.col_ptr[static_cast<std::size_t>(j) + 1]; ++p)
      x_[static_cast<std::size_t>(s.row_idx[static_cast<std::size_t>(p)])] =
          csc_vals_[static_cast<std::size_t>(p)];
    for (int px = top; px < n; ++px) {
      const int i = xi_[static_cast<std::size_t>(px)];
      const int col = r.pinv[static_cast<std::size_t>(i)];
      if (col < 0) continue;  // not yet pivotal: stays an L candidate
      const T xv = x_[static_cast<std::size_t>(i)];
      if (xv != T{}) {
        const int end = r.lp[static_cast<std::size_t>(col) + 1];
        for (int p = r.lp[static_cast<std::size_t>(col)] + 1; p < end; ++p)
          x_[static_cast<std::size_t>(r.li[static_cast<std::size_t>(p)])] -=
              lx_[static_cast<std::size_t>(p)] * xv;
      }
    }

    // Harvest U entries (already-pivotal rows, topological order) and find
    // the partial pivot among the rest: the first candidate of maximum
    // magnitude in visiting order, whose rank replay() re-checks.
    int ipiv = -1;
    double amax = -1.0;
    int candidates = 0;
    for (int px = top; px < n; ++px) {
      const int i = xi_[static_cast<std::size_t>(px)];
      const int pos = r.pinv[static_cast<std::size_t>(i)];
      if (pos >= 0) {
        r.ui.push_back(pos);
        ux_.push_back(x_[static_cast<std::size_t>(i)]);
      } else {
        const double m = std::abs(x_[static_cast<std::size_t>(i)]);
        if (m > amax) {
          amax = m;
          ipiv = i;
          r.rank[static_cast<std::size_t>(jj)] = candidates;
        }
        ++candidates;
      }
    }
    if (ipiv < 0 || amax < kAbsPivotFloor) {
      // Clean scratch before reporting the singular column.
      for (int px = top; px < n; ++px) {
        const int i = xi_[static_cast<std::size_t>(px)];
        visited_[static_cast<std::size_t>(i)] = 0;
        x_[static_cast<std::size_t>(i)] = T{};
      }
      throw SingularMatrixError(static_cast<std::size_t>(j));
    }
    const T pivot = x_[static_cast<std::size_t>(ipiv)];
    r.ui.push_back(jj);  // diagonal stored last within the column
    ux_.push_back(pivot);
    r.pinv[static_cast<std::size_t>(ipiv)] = jj;
    r.li.push_back(ipiv);  // unit diagonal of L stored first
    lx_.push_back(T(1));
    for (int px = top; px < n; ++px) {
      const int i = xi_[static_cast<std::size_t>(px)];
      if (r.pinv[static_cast<std::size_t>(i)] < 0) {
        r.li.push_back(i);
        lx_.push_back(x_[static_cast<std::size_t>(i)] / pivot);
      }
      visited_[static_cast<std::size_t>(i)] = 0;
      x_[static_cast<std::size_t>(i)] = T{};
    }
  }
  r.lp[static_cast<std::size_t>(n)] = static_cast<int>(r.li.size());
  r.up[static_cast<std::size_t>(n)] = static_cast<int>(r.ui.size());

  // Remap L's row indices from original to pivotal space; from here on the
  // whole factorization lives in pivotal coordinates.
  for (auto& i : r.li) i = r.pinv[static_cast<std::size_t>(i)];

  build_row_views(n, r);

  piv_ = std::move(rec);
  factored_ = true;
  ++symbolic_count_;
}

/// Replays the recorded pivot order column by column. A false return means
/// the order cannot stand for these values; the scratch is cleared and the
/// caller re-runs the full pivoting factorization.
///
/// The column arithmetic is factor_full's, operation for operation: the
/// same scatter, the same U updates in the recorded (topological) order,
/// the same divisions. So if every earlier column holds factor_full's
/// values, this column does too. With `verify_pivots` (an adopted record),
/// each column also re-runs factor_full's first-max selection over the
/// candidates in their recorded visiting order and requires it to land on
/// the recorded pivot; by induction over the columns an accepted replay is
/// then bit-identical to a fresh factor_full, and a rejected one costs a
/// search. Without it (this solver's own record, values drifting along a
/// Newton or time loop), a pivot may sit below the best candidate as long
/// as its multipliers stay within kPivotGrowthLimit.
template <typename T>
bool SparseLu<T>::refactor(bool verify_pivots) {
  const LuSymbolic& s = *sym_;
  const LuPivots& r = *piv_;
  const int n = s.n;
  T* const x = x_.data();  // all-zero on entry and after every good column
  const auto rejected = [&] {
    x_.assign(static_cast<std::size_t>(n), T{});
    return false;
  };
  for (int jj = 0; jj < n; ++jj) {
    const int j = s.q[static_cast<std::size_t>(jj)];
    // Scatter A(:,j) into pivotal space. The reach of the recorded symbolic
    // factorization is a superset of A's pattern, so the clears below cover
    // every scattered slot.
    for (int p = s.col_ptr[static_cast<std::size_t>(j)];
         p < s.col_ptr[static_cast<std::size_t>(j) + 1]; ++p)
      x[r.pinv[static_cast<std::size_t>(s.row_idx[static_cast<std::size_t>(p)])]] =
          csc_vals_[static_cast<std::size_t>(p)];

    // Replay the column's U entries in their recorded (topological) order.
    const int u_end = r.up[static_cast<std::size_t>(jj) + 1] - 1;  // diagonal excluded
    for (int p = r.up[static_cast<std::size_t>(jj)]; p < u_end; ++p) {
      const int k = r.ui[static_cast<std::size_t>(p)];
      const T ukj = x[k];
      ux_[static_cast<std::size_t>(p)] = ukj;
      x[k] = T{};
      if (ukj != T{}) {
        const int end = r.lp[static_cast<std::size_t>(k) + 1];
        for (int q = r.lp[static_cast<std::size_t>(k)] + 1; q < end; ++q)
          x[r.li[static_cast<std::size_t>(q)]] -= lx_[static_cast<std::size_t>(q)] * ukj;
      }
    }

    const int l_first = r.lp[static_cast<std::size_t>(jj)] + 1;  // unit diagonal skipped
    const int l_end = r.lp[static_cast<std::size_t>(jj) + 1];
    if (verify_pivots) {
      // Candidates in visiting order: the L entries before the pivot's
      // rank, the pivot (pivotal row jj), then the remaining L entries.
      const int rank = r.rank[static_cast<std::size_t>(jj)];
      double amax = -1.0;
      int chosen = -1;
      for (int c = 0; c <= l_end - l_first; ++c) {
        const int row = c < rank    ? r.li[static_cast<std::size_t>(l_first + c)]
                        : c == rank ? jj
                                    : r.li[static_cast<std::size_t>(l_first + c - 1)];
        const double m = std::abs(x[row]);
        if (std::isnan(m)) return rejected();
        if (m > amax) {
          amax = m;
          chosen = c;
        }
      }
      if (chosen != rank) return rejected();
    }

    const T pivot = x[jj];
    x[jj] = T{};
    const double apiv = std::abs(pivot);
    if (apiv < kAbsPivotFloor)
      return rejected();  // pivot order no longer viable; re-run full pivoting
    ux_[static_cast<std::size_t>(u_end)] = pivot;
    for (int q = l_first; q < l_end; ++q) {
      const int i = r.li[static_cast<std::size_t>(q)];
      const T v = x[i];
      x[i] = T{};
      if (std::abs(v) > kPivotGrowthLimit * apiv)
        return rejected();  // multiplier blow-up: pivot degraded
      lx_[static_cast<std::size_t>(q)] = v / pivot;
    }
  }
  return true;
}

template <typename T>
void SparseLu<T>::solve(std::vector<T>& b) const {
  if (!factored_) throw std::logic_error("SparseLu::solve before factor");
  const LuSymbolic& s = *sym_;
  const LuPivots& r = *piv_;
  if (b.size() != static_cast<std::size_t>(s.n))
    throw std::invalid_argument("SparseLu::solve: rhs size mismatch");
  if (deadline_ != nullptr) deadline_->check("SparseLu::solve");
  const int n = s.n;
  tmp_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    tmp_[static_cast<std::size_t>(r.pinv[static_cast<std::size_t>(i)])] =
        b[static_cast<std::size_t>(i)] * rscale_[static_cast<std::size_t>(i)];

  // Forward: L y = P b. Row-gather over L^T (unit diagonal implicit):
  // y_j = b_j - sum_{k<j} L(j,k) y_k, accumulated in ascending k.
  T* const t = tmp_.data();
  for (int j = 0; j < n; ++j) {
    T acc = t[j];
    for (int p = r.lt_ptr[static_cast<std::size_t>(j)];
         p < r.lt_ptr[static_cast<std::size_t>(j) + 1]; ++p)
      acc -= lx_[static_cast<std::size_t>(r.lt_map[static_cast<std::size_t>(p)])] *
             t[r.lt_idx[static_cast<std::size_t>(p)]];
    t[j] = acc;
  }

  // Backward: U x = y. Row-gather over U^T, then divide by the pivot:
  // x_j = (y_j - sum_{k>j} U(j,k) x_k) / U(j,j).
  for (int j = n; j-- > 0;) {
    T acc = t[j];
    for (int p = r.ut_ptr[static_cast<std::size_t>(j)];
         p < r.ut_ptr[static_cast<std::size_t>(j) + 1]; ++p)
      acc -= ux_[static_cast<std::size_t>(r.ut_map[static_cast<std::size_t>(p)])] *
             t[r.ut_idx[static_cast<std::size_t>(p)]];
    t[j] = acc / ux_[static_cast<std::size_t>(r.up[static_cast<std::size_t>(j) + 1]) - 1];
  }

  // Undo the fill-reducing column permutation: position j solved unknown q[j].
  for (int j = 0; j < n; ++j)
    b[static_cast<std::size_t>(s.q[static_cast<std::size_t>(j)])] =
        tmp_[static_cast<std::size_t>(j)];
}

template class SparseLu<double>;
template class SparseLu<std::complex<double>>;

}  // namespace usys
