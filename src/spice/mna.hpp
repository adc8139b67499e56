// Sparse pattern-cached MNA assembly, serial or deterministically parallel.
//
// The stamp structure of a bound circuit is fixed: every device touches the
// same (row, col) Jacobian entries on every Newton iteration and timestep.
// This layer exploits that once, up front:
//
//   * MnaPattern — at bind time each device registers its stamp footprint
//     (Device::stamp_footprint); the union of all footprint x footprint
//     blocks plus the gmin diagonal is compiled into a CSR layout, and each
//     device gets a precomputed local-slot table mapping its (row, col)
//     pairs to flat value indices.
//   * MnaAssembler — per-iteration assembly is then pure scatter writes
//     into two flat value arrays (Jf, Jq): no n x n zero-fill, no
//     reallocation, no search on the hot path. The values arrays share the
//     pattern's CSR layout, so they feed SparseLu (common/sparse_lu.hpp)
//     directly — and the combined Newton matrix Jf + a0*Jq is a single
//     O(nnz) vector fuse.
//
// Parallel assembly (assembly threads > 1) splits one stamp pass into two
// phases over a persistent thread pool:
//   1. evaluate — devices are chunked across threads; each device is
//      evaluated exactly ONCE (so stateful devices like the HDL bytecode VM
//      never race) into a private per-device value block (its k*k Jacobian
//      block plus k-long f/q vectors), captured via SparseStampSink's
//      block mode;
//   2. gather — each CSR slot / residual row is an ordered reduction over a
//      precompiled source list that visits contributions in DEVICE ORDER,
//      i.e. exactly the accumulation order of the serial scatter loop.
// Slot/row ranges are disjoint across threads, so the result is
// deterministic AND bit-identical to the serial path for any thread count
// (up to devices that stamp one entry twice in a single evaluate — none of
// the in-tree devices do). The parallel path requires every stamp to stay
// inside its device's declared footprint (no cross-footprint CSR escape);
// violations throw, as in serial mode.
//
// Devices that cannot (or do not) declare a footprint mark the pattern
// incomplete, which keeps the whole circuit on the dense fallback path —
// correctness never depends on footprint declarations being present, only
// the sparse speedup does.
#pragma once

#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "spice/circuit.hpp"

namespace usys::spice {

/// The union stamp pattern of a bound circuit, compiled to CSR, with
/// per-device precomputed value-slot tables. Build via Circuit::mna_pattern()
/// (cached) rather than constructing directly.
class MnaPattern {
 public:
  /// Requires a bound circuit (throws CircuitError otherwise).
  explicit MnaPattern(const Circuit& circuit);

  /// True when every device declared a footprint; false disables sparse.
  bool complete() const noexcept { return complete_; }
  int size() const noexcept { return n_; }
  std::size_t nonzeros() const noexcept { return col_idx_.size(); }
  const std::vector<int>& row_ptr() const noexcept { return row_ptr_; }
  const std::vector<int>& col_idx() const noexcept { return col_idx_; }

  /// Flat value slot of entry (r, c); -1 when outside the pattern.
  int slot(int r, int c) const noexcept;
  /// Flat value slot of diagonal entry (i, i) — always present.
  int diag_slot(int i) const noexcept { return diag_slot_[static_cast<std::size_t>(i)]; }

  /// One entry per circuit device, in Circuit::devices() order.
  struct DeviceFootprint {
    std::vector<int> unknowns;  ///< sorted + deduped, ground filtered out
    std::vector<int> slots;     ///< k*k table: local (row, col) -> flat slot
  };
  const std::vector<DeviceFootprint>& footprints() const noexcept { return footprints_; }

 private:
  int n_ = 0;
  bool complete_ = false;
  std::vector<int> row_ptr_, col_idx_, diag_slot_;
  std::vector<DeviceFootprint> footprints_;
};

/// Per-iteration sparse stamp pass over all devices. Owns the flat Jf/Jq
/// value arrays (CSR layout of the pattern) and the scatter workspace; all
/// storage — including the parallel-mode per-device blocks, gather lists,
/// and thread pool — is allocated once at construction.
class MnaAssembler {
 public:
  /// The pattern must be complete() and outlive the assembler. `threads`
  /// selects the assembly parallelism: 1 or negative = serial, 0 = auto
  /// (hardware concurrency), N = exactly N, capped at the device count. A
  /// parallel assembler owns its thread pool.
  MnaAssembler(Circuit& circuit, const MnaPattern& pattern, int threads = 1);

  /// One stamp pass at iterate `x`: fills f, q and the flat Jf/Jq values.
  /// Does NOT apply gmin (that is solver policy — see NewtonSolver).
  /// Throws CircuitError if any device stamps outside the pattern (serial)
  /// or outside its own declared footprint (parallel).
  void assemble(const EvalCtx& ctx_proto, const DVector& x, DVector& f, DVector& q);

  const MnaPattern& pattern() const noexcept { return pattern_; }
  const std::vector<double>& jf_values() const noexcept { return jf_vals_; }
  const std::vector<double>& jq_values() const noexcept { return jq_vals_; }

  /// Threads the assemble() pass actually uses (>= 1).
  int assembly_threads() const noexcept { return threads_; }

  /// Adds to the Jf diagonal of unknown `i` (the solver's gmin hook).
  void add_diag_jf(int i, double v) noexcept {
    jf_vals_[static_cast<std::size_t>(pattern_.diag_slot(i))] += v;
  }

 private:
  void assemble_serial(const EvalCtx& ctx_proto, const DVector& x, DVector& f, DVector& q);
  void assemble_parallel(const EvalCtx& ctx_proto, const DVector& x, DVector& f,
                         DVector& q);
  void compile_parallel();

  Circuit& circuit_;
  const MnaPattern& pattern_;
  std::vector<double> jf_vals_, jq_vals_;
  std::vector<int> local_of_;  ///< global unknown -> active device local idx (serial)
  SparseStampSink sink_;
  int threads_ = 1;

  // --- parallel-mode state (empty when threads_ == 1) -----------------------
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::size_t> dev_block_off_;  ///< device -> offset into dev_jf_/dev_jq_
  std::vector<std::size_t> dev_vec_off_;    ///< device -> offset into dev_f_/dev_q_
  std::vector<double> dev_jf_, dev_jq_;     ///< per-device k*k capture blocks
  std::vector<double> dev_f_, dev_q_;       ///< per-device k-long f/q captures
  std::vector<int> iota_slots_;             ///< identity slot table (size max_k^2)
  std::vector<int> slot_gather_ptr_;        ///< CSR slot -> range in slot_gather_src_
  std::vector<int> slot_gather_src_;        ///< indices into dev_jf_/dev_jq_, device order
  std::vector<int> row_gather_ptr_;         ///< row -> range in row_gather_src_
  std::vector<int> row_gather_src_;         ///< indices into dev_f_/dev_q_, device order
  std::vector<std::vector<int>> tl_local_of_;  ///< per-chunk local_of scratch
  std::vector<long> tl_missed_;                ///< per-chunk missed counters
};

}  // namespace usys::spice
