#include "spice/mna.hpp"

#include <algorithm>
#include <numeric>

#include "spice/stamp_kernel.hpp"

namespace usys::spice {

namespace {

/// Compiles the flat stamp program inside the pattern's device walk, while
/// each device and its footprint are hot in cache: add() schedules a device
/// and records its Jacobian stamps as footprint-local entries (li * k + lj);
/// finish() maps them to CSR slots through the finished slot tables. Ops
/// grow in device order, so each keeps its devices and its stream in the
/// order the program runs them.
class ProgramBuilder {
 public:
  ProgramBuilder(std::size_t ndev, int n)
      : last_op_(static_cast<std::size_t>(n), -1), rec_(ndev) {}

  void add(std::size_t d, Device& dev, const std::vector<int>& unknowns) {
    const StampKernel kernel = dev.stamp_kernel();
    // Level schedule (mna.hpp): no earlier than every op already touching
    // one of the unknowns, one later when that op has another kernel.
    int bound = 0;
    for (int u : unknowns) {
      const int o = last_op_[static_cast<std::size_t>(u)];
      if (o >= 0) {
        bound = std::max(bound, ops_[static_cast<std::size_t>(o)].kernel == kernel ? o : o + 1);
      }
    }
    auto it = std::find_if(latest_.begin(), latest_.end(),
                           [kernel](const auto& kv) { return kv.first == kernel; });
    if (it == latest_.end()) it = latest_.insert(latest_.end(), {kernel, -1});
    if (it->second < bound) {
      it->second = static_cast<int>(ops_.size());
      ops_.push_back({kernel, {}, {}});
    }
    const int o = it->second;
    for (int u : unknowns) last_op_[static_cast<std::size_t>(u)] = o;
    Op& op = ops_[static_cast<std::size_t>(o)];
    op.index.push_back(static_cast<int>(d));
    if (kernel == nullptr) return;

    args_.unknowns = unknowns.data();
    args_.k = static_cast<int>(unknowns.size());
    args_.stream = &op.stream;
    rec_[d] = static_cast<int>(op.stream.size());
    Device* one = &dev;
    kernel(StampPass::record, &one, 1, args_);
    if (args_.missed) {
      throw CircuitError("stamp program: device '" + dev.name() +
                         "' stamps outside its declared footprint");
    }
  }

  /// Lays the ops out back to back, every array sized exactly, resolving
  /// each recorded entry to its CSR slot.
  void finish(const Circuit& circuit, const MnaPattern& pattern,
              std::vector<MnaPattern::StampOp>& ops, std::vector<Device*>& devices,
              std::vector<int>& index, std::vector<int>& slots) const {
    std::size_t ndev = 0, nslots = 0;
    for (const Op& op : ops_) {
      ndev += op.index.size();
      nslots += op.stream.size();
    }
    ops.reserve(ops_.size());
    devices.reserve(ndev);
    index.reserve(ndev);
    slots.reserve(nslots);
    for (const Op& op : ops_) {
      const auto first = static_cast<int>(index.size());
      ops.push_back({op.kernel, first, first + static_cast<int>(op.index.size()),
                     static_cast<int>(slots.size())});
      index.insert(index.end(), op.index.begin(), op.index.end());
      for (int d : op.index)
        devices.push_back(circuit.devices()[static_cast<std::size_t>(d)].get());
      if (op.kernel == nullptr) continue;
      // A device's entries run from its rec_ offset to the next device's.
      for (std::size_t i = 0; i < op.index.size(); ++i) {
        const auto d = static_cast<std::size_t>(op.index[i]);
        const auto end = i + 1 < op.index.size()
                             ? rec_[static_cast<std::size_t>(op.index[i + 1])]
                             : static_cast<int>(op.stream.size());
        const auto table = pattern.footprint(d).slots;
        for (int e = rec_[d]; e < end; ++e)
          slots.push_back(table[static_cast<std::size_t>(op.stream[static_cast<std::size_t>(e)])]);
      }
    }
  }

 private:
  struct Op {
    StampKernel kernel;
    std::vector<int> index;   ///< its devices, in device order
    std::vector<int> stream;  ///< footprint-local entries, in stamp order
  };
  std::vector<Op> ops_;
  StampArgs args_;  ///< the record pass's arguments, reused per device
  std::vector<int> last_op_;                         ///< unknown -> latest op touching it
  std::vector<std::pair<StampKernel, int>> latest_;  ///< kernel -> its latest op
  std::vector<int> rec_;  ///< kernel device -> start of its entries in its op's stream
};

}  // namespace

MnaPattern::MnaPattern(const Circuit& circuit) {
  if (!circuit.bound()) throw CircuitError("MnaPattern: circuit not bound");
  n_ = circuit.unknown_count();
  const auto n = static_cast<std::size_t>(n_);
  const auto& devices = circuit.devices();
  const std::size_t ndev = devices.size();

  // Walk the devices once: flat footprints, and the program's schedule and
  // stamp recording.
  fp_ptr_.assign(ndev + 1, 0);
  ProgramBuilder program(ndev, n_);
  std::vector<int> u;
  for (std::size_t d = 0; d < ndev; ++d) {
    u.clear();
    if (!devices[d]->stamp_footprint(u)) {
      fp_ptr_.clear();
      fp_unknowns_.clear();
      return;  // incomplete: the circuit stays on the dense path
    }
    // Ground pins (-1) stamp nowhere; drop them along with duplicates.
    u.erase(std::remove_if(u.begin(), u.end(), [this](int i) { return i < 0 || i >= n_; }),
            u.end());
    std::sort(u.begin(), u.end());
    u.erase(std::unique(u.begin(), u.end()), u.end());
    fp_unknowns_.insert(fp_unknowns_.end(), u.begin(), u.end());
    fp_ptr_[d + 1] = static_cast<int>(fp_unknowns_.size());
    program.add(d, *devices[d], u);
  }
  complete_ = true;
  fp_unknowns_.shrink_to_fit();

  fp_slot_ptr_.assign(ndev + 1, 0);
  for (std::size_t d = 0; d < ndev; ++d) {
    const int k = fp_ptr_[d + 1] - fp_ptr_[d];
    fp_slot_ptr_[d + 1] = fp_slot_ptr_[d] + k * k;
  }
  fp_slots_.resize(static_cast<std::size_t>(fp_slot_ptr_[ndev]));

  // Transpose: the devices whose footprint holds each unknown.
  std::vector<int> dev_ptr(n + 1, 0);
  for (int r : fp_unknowns_) ++dev_ptr[static_cast<std::size_t>(r) + 1];
  std::partial_sum(dev_ptr.begin(), dev_ptr.end(), dev_ptr.begin());
  std::vector<int> dev_of(fp_unknowns_.size());
  {
    std::vector<int> cursor(dev_ptr.begin(), dev_ptr.end() - 1);
    for (std::size_t d = 0; d < ndev; ++d) {
      for (int u : footprint(d).unknowns)
        dev_of[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] =
            static_cast<int>(d);
    }
  }

  // Row by row: row r holds the union of every footprint containing r plus
  // the diagonal (gmin lands on node rows, and a structurally present
  // diagonal gives the LU pivoting room on branch rows). Once the row is
  // sorted, a column -> slot map fills those footprints' row-r table rows;
  // every pair is present by construction.
  row_ptr_.assign(n + 1, 0);
  diag_slot_.resize(n);
  std::vector<int> mark(n, -1), slot_of(n);
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = static_cast<int>(r);
    const auto begin = col_idx_.size();
    mark[r] = row;
    col_idx_.push_back(row);
    const auto devs_begin = dev_of.begin() + dev_ptr[r];
    const auto devs_end = dev_of.begin() + dev_ptr[r + 1];
    for (auto it = devs_begin; it != devs_end; ++it) {
      for (int c : footprint(static_cast<std::size_t>(*it)).unknowns) {
        if (mark[static_cast<std::size_t>(c)] == row) continue;
        mark[static_cast<std::size_t>(c)] = row;
        col_idx_.push_back(c);
      }
    }
    std::sort(col_idx_.begin() + static_cast<std::ptrdiff_t>(begin), col_idx_.end());
    for (std::size_t j = begin; j < col_idx_.size(); ++j)
      slot_of[static_cast<std::size_t>(col_idx_[j])] = static_cast<int>(j);
    row_ptr_[r + 1] = static_cast<int>(col_idx_.size());
    diag_slot_[r] = slot_of[r];
    for (auto it = devs_begin; it != devs_end; ++it) {
      const auto d = static_cast<std::size_t>(*it);
      const auto fp = footprint(d);
      const auto k = fp.unknowns.size();
      const auto li = static_cast<std::size_t>(
          std::lower_bound(fp.unknowns.begin(), fp.unknowns.end(), row) - fp.unknowns.begin());
      int* table = fp_slots_.data() + fp_slot_ptr_[d] + li * k;
      for (std::size_t j = 0; j < k; ++j)
        table[j] = slot_of[static_cast<std::size_t>(fp.unknowns[j])];
    }
  }
  col_idx_.shrink_to_fit();
  program.finish(circuit, *this, ops_, prog_devices_, prog_index_, prog_slots_);
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
  const auto ndev = pattern_.device_count();
  const auto n = static_cast<std::size_t>(pattern_.size());

  dev_block_off_.assign(ndev + 1, 0);
  dev_vec_off_.assign(ndev + 1, 0);
  std::size_t max_k = 0;
  for (std::size_t d = 0; d < ndev; ++d) {
    const std::size_t k = pattern_.footprint(d).unknowns.size();
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
  for (std::size_t d = 0; d < ndev; ++d) {
    const auto fp = pattern_.footprint(d);
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
    const auto fp = pattern_.footprint(d);
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
    return;
  }
  std::fill(jf_vals_.begin(), jf_vals_.end(), 0.0);
  std::fill(jq_vals_.begin(), jq_vals_.end(), 0.0);
  run_program(StampPass::full, ctx_proto, x, f, q);
}

void MnaAssembler::assemble_values(const EvalCtx& ctx_proto, const DVector& x, DVector& f,
                                   DVector& q) {
  run_program(StampPass::values, ctx_proto, x, f, q);
}

void MnaAssembler::run_program(StampPass pass, const EvalCtx& ctx_proto, const DVector& x,
                               DVector& f, DVector& q) {
  const auto n = static_cast<std::size_t>(pattern_.size());
  f.assign(n, 0.0);
  q.assign(n, 0.0);
  const bool full = pass == StampPass::full;

  // Generic ops stamp through the virtual path: the sparse sink on a full
  // pass, discarded Jacobians on a value-only one.
  EvalCtx ctx = ctx_proto;
  ctx.x = &x;
  ctx.f = &f;
  ctx.q = &q;
  ctx.jf = nullptr;
  ctx.jq = nullptr;
  ctx.sparse = full ? &sink_ : nullptr;
  sink_.missed = 0;

  StampArgs args;
  args.mode = ctx.mode;
  args.integ_c0 = ctx.integ_c0;
  args.integ_c1 = ctx.integ_c1;
  args.x = x.data();
  args.f = f.data();
  args.q = q.data();
  args.jf = jf_vals_.data();
  args.jq = jq_vals_.data();

  const auto& devices = pattern_.program_devices();
  const auto& index = pattern_.program_index();
  for (const auto& op : pattern_.program()) {
    if (op.kernel != nullptr) {
      args.slots = pattern_.program_slots().data() + op.slots;
      op.kernel(pass, devices.data() + op.first, static_cast<std::size_t>(op.last - op.first),
                args);
      continue;
    }
    for (auto p = static_cast<std::size_t>(op.first); p < static_cast<std::size_t>(op.last);
         ++p) {
      Device& dev = *devices[p];
      if (!full) {
        dev.evaluate(ctx);
        continue;
      }
      const auto fp = pattern_.footprint(static_cast<std::size_t>(index[p]));
      for (std::size_t i = 0; i < fp.unknowns.size(); ++i)
        local_of_[static_cast<std::size_t>(fp.unknowns[i])] = static_cast<int>(i);
      sink_.local_of = local_of_.data();
      sink_.slots = fp.slots.data();
      sink_.k = static_cast<int>(fp.unknowns.size());
      try {
        dev.evaluate(ctx);
      } catch (...) {
        // Keep the scratch map clean even when a device throws: a later
        // assemble() on this assembler must not see stale local indices.
        for (int u : fp.unknowns) local_of_[static_cast<std::size_t>(u)] = -1;
        throw;
      }
      for (int u : fp.unknowns) local_of_[static_cast<std::size_t>(u)] = -1;
    }
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
      const auto fp = pattern_.footprint(d);
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
