#include "spice/mna.hpp"

#include <algorithm>
#include <numeric>

namespace usys::spice {

MnaPattern::MnaPattern(const Circuit& circuit) {
  if (!circuit.bound()) throw CircuitError("MnaPattern: circuit not bound");
  n_ = circuit.unknown_count();
  const auto n = static_cast<std::size_t>(n_);
  const auto& devices = circuit.devices();

  complete_ = true;
  footprints_.resize(devices.size());
  std::vector<std::vector<int>> cols(n);
  for (std::size_t d = 0; d < devices.size(); ++d) {
    std::vector<int> u;
    if (!devices[d]->stamp_footprint(u)) {
      complete_ = false;
      break;
    }
    // Ground pins (-1) stamp nowhere; drop them along with duplicates.
    u.erase(std::remove_if(u.begin(), u.end(), [this](int i) { return i < 0 || i >= n_; }),
            u.end());
    std::sort(u.begin(), u.end());
    u.erase(std::unique(u.begin(), u.end()), u.end());
    for (int r : u) {
      auto& row = cols[static_cast<std::size_t>(r)];
      row.insert(row.end(), u.begin(), u.end());
    }
    footprints_[d].unknowns = std::move(u);
  }
  if (!complete_) {
    footprints_.clear();
    return;
  }

  // Always include the full diagonal: gmin lands on node rows, and a
  // structurally present diagonal gives the LU pivoting room on branch rows.
  for (std::size_t i = 0; i < n; ++i) cols[i].push_back(static_cast<int>(i));

  row_ptr_.assign(n + 1, 0);
  for (std::size_t r = 0; r < n; ++r) {
    auto& row = cols[r];
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    row_ptr_[r + 1] = row_ptr_[r] + static_cast<int>(row.size());
  }
  col_idx_.reserve(static_cast<std::size_t>(row_ptr_[n]));
  for (std::size_t r = 0; r < n; ++r)
    col_idx_.insert(col_idx_.end(), cols[r].begin(), cols[r].end());

  diag_slot_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    diag_slot_[i] = slot(static_cast<int>(i), static_cast<int>(i));

  // Compile each device's k x k slot table; every pair is present by
  // construction.
  for (auto& fp : footprints_) {
    const auto k = fp.unknowns.size();
    fp.slots.resize(k * k);
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = 0; j < k; ++j)
        fp.slots[i * k + j] = slot(fp.unknowns[i], fp.unknowns[j]);
  }
}

int MnaPattern::slot(int r, int c) const noexcept {
  const auto first = col_idx_.begin() + row_ptr_[static_cast<std::size_t>(r)];
  const auto last = col_idx_.begin() + row_ptr_[static_cast<std::size_t>(r) + 1];
  const auto it = std::lower_bound(first, last, c);
  if (it == last || *it != c) return -1;
  return static_cast<int>(it - col_idx_.begin());
}

MnaAssembler::MnaAssembler(Circuit& circuit, const MnaPattern& pattern, int threads)
    : circuit_(circuit), pattern_(pattern) {
  if (!pattern_.complete()) throw CircuitError("MnaAssembler: incomplete pattern");
  jf_vals_.assign(pattern_.nonzeros(), 0.0);
  jq_vals_.assign(pattern_.nonzeros(), 0.0);
  local_of_.assign(static_cast<std::size_t>(pattern_.size()), -1);
  sink_.jf_vals = jf_vals_.data();
  sink_.jq_vals = jq_vals_.data();
  sink_.row_ptr = pattern_.row_ptr().data();
  sink_.col_idx = pattern_.col_idx().data();

  threads_ = threads == 0 ? ThreadPool::effective_threads(0) : std::max(1, threads);
  // More chunks than devices is pure overhead; never exceed the device count.
  threads_ = std::min<int>(threads_, std::max<int>(1, static_cast<int>(
                                         circuit_.devices().size())));
  if (threads_ > 1) compile_parallel();
}

void MnaAssembler::compile_parallel() {
  const auto& footprints = pattern_.footprints();
  const auto ndev = footprints.size();
  const auto n = static_cast<std::size_t>(pattern_.size());

  dev_block_off_.assign(ndev + 1, 0);
  dev_vec_off_.assign(ndev + 1, 0);
  std::size_t max_k = 0;
  for (std::size_t d = 0; d < ndev; ++d) {
    const std::size_t k = footprints[d].unknowns.size();
    dev_block_off_[d + 1] = dev_block_off_[d] + k * k;
    dev_vec_off_[d + 1] = dev_vec_off_[d] + k;
    max_k = std::max(max_k, k);
  }
  dev_jf_.assign(dev_block_off_[ndev], 0.0);
  dev_jq_.assign(dev_block_off_[ndev], 0.0);
  dev_f_.assign(dev_vec_off_[ndev], 0.0);
  dev_q_.assign(dev_vec_off_[ndev], 0.0);
  iota_slots_.resize(max_k * max_k);
  std::iota(iota_slots_.begin(), iota_slots_.end(), 0);

  // Gather lists: for each CSR slot (and each residual row), the private
  // block entries that feed it — filled by walking devices in order, so each
  // list replays the serial scatter's accumulation order exactly.
  slot_gather_ptr_.assign(pattern_.nonzeros() + 1, 0);
  row_gather_ptr_.assign(n + 1, 0);
  for (const auto& fp : footprints) {
    const std::size_t k = fp.unknowns.size();
    for (std::size_t e = 0; e < k * k; ++e)
      ++slot_gather_ptr_[static_cast<std::size_t>(fp.slots[e]) + 1];
    for (int u : fp.unknowns) ++row_gather_ptr_[static_cast<std::size_t>(u) + 1];
  }
  std::partial_sum(slot_gather_ptr_.begin(), slot_gather_ptr_.end(),
                   slot_gather_ptr_.begin());
  std::partial_sum(row_gather_ptr_.begin(), row_gather_ptr_.end(),
                   row_gather_ptr_.begin());
  slot_gather_src_.resize(static_cast<std::size_t>(slot_gather_ptr_.back()));
  row_gather_src_.resize(static_cast<std::size_t>(row_gather_ptr_.back()));
  std::vector<int> slot_cursor(slot_gather_ptr_.begin(), slot_gather_ptr_.end() - 1);
  std::vector<int> row_cursor(row_gather_ptr_.begin(), row_gather_ptr_.end() - 1);
  for (std::size_t d = 0; d < ndev; ++d) {
    const auto& fp = footprints[d];
    const std::size_t k = fp.unknowns.size();
    for (std::size_t e = 0; e < k * k; ++e) {
      const auto s = static_cast<std::size_t>(fp.slots[e]);
      slot_gather_src_[static_cast<std::size_t>(slot_cursor[s]++)] =
          static_cast<int>(dev_block_off_[d] + e);
    }
    for (std::size_t i = 0; i < k; ++i) {
      const auto r = static_cast<std::size_t>(fp.unknowns[i]);
      row_gather_src_[static_cast<std::size_t>(row_cursor[r]++)] =
          static_cast<int>(dev_vec_off_[d] + i);
    }
  }

  tl_local_of_.assign(static_cast<std::size_t>(threads_), std::vector<int>(n, -1));
  tl_missed_.assign(static_cast<std::size_t>(threads_), 0);
  pool_ = std::make_unique<ThreadPool>(threads_);
}

void MnaAssembler::assemble(const EvalCtx& ctx_proto, const DVector& x, DVector& f,
                            DVector& q) {
  if (threads_ > 1) {
    assemble_parallel(ctx_proto, x, f, q);
  } else {
    assemble_serial(ctx_proto, x, f, q);
  }
}

void MnaAssembler::assemble_serial(const EvalCtx& ctx_proto, const DVector& x,
                                   DVector& f, DVector& q) {
  const auto n = static_cast<std::size_t>(pattern_.size());
  f.assign(n, 0.0);
  q.assign(n, 0.0);
  std::fill(jf_vals_.begin(), jf_vals_.end(), 0.0);
  std::fill(jq_vals_.begin(), jq_vals_.end(), 0.0);

  EvalCtx ctx = ctx_proto;
  ctx.x = &x;
  ctx.f = &f;
  ctx.q = &q;
  ctx.jf = nullptr;
  ctx.jq = nullptr;
  ctx.sparse = &sink_;
  sink_.missed = 0;

  const auto& devices = circuit_.devices();
  const auto& footprints = pattern_.footprints();
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const auto& fp = footprints[d];
    for (std::size_t i = 0; i < fp.unknowns.size(); ++i)
      local_of_[static_cast<std::size_t>(fp.unknowns[i])] = static_cast<int>(i);
    sink_.local_of = local_of_.data();
    sink_.slots = fp.slots.data();
    sink_.k = static_cast<int>(fp.unknowns.size());
    try {
      devices[d]->evaluate(ctx);
    } catch (...) {
      // Keep the scratch map clean even when a device throws: a later
      // assemble() on this assembler must not see stale local indices.
      for (int u : fp.unknowns) local_of_[static_cast<std::size_t>(u)] = -1;
      throw;
    }
    for (int u : fp.unknowns) local_of_[static_cast<std::size_t>(u)] = -1;
  }
  if (sink_.missed > 0) {
    throw CircuitError("sparse MNA assembly: a device stamped outside the compiled "
                       "pattern (stamp_footprint() declaration is not a superset)");
  }
}

void MnaAssembler::assemble_parallel(const EvalCtx& ctx_proto, const DVector& x,
                                     DVector& f, DVector& q) {
  const auto n = static_cast<std::size_t>(pattern_.size());
  const auto nnz = pattern_.nonzeros();
  const auto& devices = circuit_.devices();
  const auto& footprints = pattern_.footprints();
  const auto ndev = devices.size();
  f.resize(n);
  q.resize(n);

  // Phase 1: chunked device evaluation into private per-device blocks. Each
  // device runs exactly once (stateful devices never race); each chunk has
  // its own local_of scratch and sink.
  pool_->run(threads_, [&](int chunk) {
    const std::size_t lo = ndev * static_cast<std::size_t>(chunk) /
                           static_cast<std::size_t>(threads_);
    const std::size_t hi = ndev * (static_cast<std::size_t>(chunk) + 1) /
                           static_cast<std::size_t>(threads_);
    auto& local_of = tl_local_of_[static_cast<std::size_t>(chunk)];

    SparseStampSink sink;
    sink.local_of = local_of.data();
    EvalCtx ctx = ctx_proto;
    ctx.x = &x;
    ctx.f = nullptr;
    ctx.q = nullptr;
    ctx.jf = nullptr;
    ctx.jq = nullptr;
    ctx.sparse = &sink;

    for (std::size_t d = lo; d < hi; ++d) {
      const auto& fp = footprints[d];
      const std::size_t k = fp.unknowns.size();
      const std::size_t boff = dev_block_off_[d];
      const std::size_t voff = dev_vec_off_[d];
      std::fill_n(dev_jf_.begin() + static_cast<std::ptrdiff_t>(boff), k * k, 0.0);
      std::fill_n(dev_jq_.begin() + static_cast<std::ptrdiff_t>(boff), k * k, 0.0);
      std::fill_n(dev_f_.begin() + static_cast<std::ptrdiff_t>(voff), k, 0.0);
      std::fill_n(dev_q_.begin() + static_cast<std::ptrdiff_t>(voff), k, 0.0);
      for (std::size_t i = 0; i < k; ++i)
        local_of[static_cast<std::size_t>(fp.unknowns[i])] = static_cast<int>(i);
      sink.slots = iota_slots_.data();
      sink.k = static_cast<int>(k);
      sink.jf_vals = dev_jf_.data() + boff;
      sink.jq_vals = dev_jq_.data() + boff;
      sink.f_local = dev_f_.data() + voff;
      sink.q_local = dev_q_.data() + voff;
      try {
        devices[d]->evaluate(ctx);
      } catch (...) {
        // A stale local_of entry would turn a later pass's stamps into
        // out-of-bounds block writes; clean up before the pool rethrows.
        for (int u : fp.unknowns) local_of[static_cast<std::size_t>(u)] = -1;
        throw;
      }
      for (int u : fp.unknowns) local_of[static_cast<std::size_t>(u)] = -1;
    }
    tl_missed_[static_cast<std::size_t>(chunk)] = sink.missed;
  });

  // Phase 2: ordered gather. Slot/row ranges are disjoint across chunks and
  // each reduction visits its sources in device order, so the result is
  // bit-identical to the serial scatter for any thread count.
  pool_->run(threads_, [&](int chunk) {
    const std::size_t c = static_cast<std::size_t>(chunk);
    const std::size_t t = static_cast<std::size_t>(threads_);
    const std::size_t s_lo = nnz * c / t;
    const std::size_t s_hi = nnz * (c + 1) / t;
    for (std::size_t s = s_lo; s < s_hi; ++s) {
      double af = 0.0;
      double aq = 0.0;
      for (int g = slot_gather_ptr_[s]; g < slot_gather_ptr_[s + 1]; ++g) {
        const auto src = static_cast<std::size_t>(slot_gather_src_[static_cast<std::size_t>(g)]);
        af += dev_jf_[src];
        aq += dev_jq_[src];
      }
      jf_vals_[s] = af;
      jq_vals_[s] = aq;
    }
    const std::size_t r_lo = n * c / t;
    const std::size_t r_hi = n * (c + 1) / t;
    for (std::size_t r = r_lo; r < r_hi; ++r) {
      double af = 0.0;
      double aq = 0.0;
      for (int g = row_gather_ptr_[r]; g < row_gather_ptr_[r + 1]; ++g) {
        const auto src = static_cast<std::size_t>(row_gather_src_[static_cast<std::size_t>(g)]);
        af += dev_f_[src];
        aq += dev_q_[src];
      }
      f[r] = af;
      q[r] = aq;
    }
  });

  long missed = 0;
  for (long m : tl_missed_) missed += m;
  if (missed > 0) {
    throw CircuitError("parallel MNA assembly: a device stamped outside its declared "
                       "footprint (cross-footprint stamps require serial assembly)");
  }
}

}  // namespace usys::spice
