// Sparse pattern-cached MNA assembly: a flat stamp program, or a
// deterministically parallel pass.
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
//   * The flat stamp program — compiled with the pattern, so Circuit caches
//     it and it survives AnalysisEngine::rebind() (kernels read parameters
//     through the device, so set_param edits need no recompile). Devices
//     are grouped into ops: a batch of one native kernel type
//     (Device::stamp_kernel(), spice/stamp_kernel.hpp), run as one
//     non-virtual loop that writes straight into the CSR values through
//     slots recorded at compile time (ground stamps skipped on the pin
//     index), or a generic op whose devices run the virtual evaluate()
//     through SparseStampSink. A level schedule over footprints places
//     device d in the latest op of its kernel that runs no earlier than
//     every op already touching one of d's unknowns (one later when that
//     op has another kernel), else in a new op. Each unknown then sees its
//     devices in device order, so every slot and residual row sums its
//     contributions exactly as a device-order walk does: bit-identical to
//     the virtual path for every device that stamps inside its footprint.
//     A TRANSARRAY behind a source and a bus resistor compiles to 6 ops.
//   * MnaAssembler — per-iteration assembly runs the program (serial) into
//     two flat value arrays (Jf, Jq): no n x n zero-fill, no reallocation,
//     no search on the hot path. The values arrays share the pattern's CSR
//     layout, so they feed SparseLu (common/sparse_lu.hpp) directly — and
//     the combined Newton matrix Jf + a0*Jq is a single O(nnz) vector fuse.
//     assemble_values() runs the program's f/q-only instantiation.
//
// Parallel assembly (assembly threads > 1) calls every device's virtual
// evaluate() — it is the oracle the program is tested against — and splits
// one stamp pass into two phases over a persistent thread pool:
//   1. evaluate — devices are chunked across threads; each device is
//      evaluated exactly ONCE (so stateful devices like the HDL bytecode VM
//      never race) into a private per-device value block (its k*k Jacobian
//      block plus k-long f/q vectors), captured via SparseStampSink's
//      block mode;
//   2. gather — each CSR slot / residual row is an ordered reduction over a
//      precompiled source list that visits contributions in DEVICE ORDER,
//      i.e. exactly the accumulation order of the serial program.
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
#include <span>
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

  /// Flat value slot of diagonal entry (i, i) — always present.
  int diag_slot(int i) const noexcept { return diag_slot_[static_cast<std::size_t>(i)]; }

  /// Device d's footprint (d in Circuit::devices() order; views into the
  /// pattern's flat per-device arrays).
  struct Footprint {
    std::span<const int> unknowns;  ///< sorted + deduped, ground filtered out
    std::span<const int> slots;     ///< k*k table: local (row, col) -> flat slot
  };
  Footprint footprint(std::size_t d) const noexcept {
    const auto u = static_cast<std::size_t>(fp_ptr_[d]);
    const auto k = static_cast<std::size_t>(fp_ptr_[d + 1]) - u;
    const auto s = static_cast<std::size_t>(fp_slot_ptr_[d]);
    return {{fp_unknowns_.data() + u, k}, {fp_slots_.data() + s, k * k}};
  }
  /// Devices with a footprint: Circuit::devices().size() when complete().
  std::size_t device_count() const noexcept {
    return fp_ptr_.empty() ? 0 : fp_ptr_.size() - 1;
  }

  /// One op of the flat stamp program (empty when !complete()).
  struct StampOp {
    StampKernel kernel = nullptr;  ///< nullptr = generic op (virtual evaluate)
    int first = 0, last = 0;       ///< range in program_devices()/program_index()
    int slots = 0;                 ///< start of a kernel op's baked slot stream
  };
  const std::vector<StampOp>& program() const noexcept { return ops_; }
  /// The devices in program order, and their Circuit::devices() indices.
  const std::vector<Device*>& program_devices() const noexcept { return prog_devices_; }
  const std::vector<int>& program_index() const noexcept { return prog_index_; }
  /// Every kernel op's Jacobian slots, in stamp order.
  const std::vector<int>& program_slots() const noexcept { return prog_slots_; }

 private:
  int n_ = 0;
  bool complete_ = false;
  std::vector<int> row_ptr_, col_idx_, diag_slot_;
  std::vector<int> fp_ptr_, fp_unknowns_;    ///< device -> its unknowns
  std::vector<int> fp_slot_ptr_, fp_slots_;  ///< device -> its k*k slot table
  std::vector<StampOp> ops_;
  std::vector<Device*> prog_devices_;
  std::vector<int> prog_index_, prog_slots_;
};

/// Per-iteration sparse stamp pass over all devices. Owns the flat Jf/Jq
/// value arrays (CSR layout of the pattern) and the generic ops' scatter
/// workspace; all storage — including the parallel-mode per-device blocks,
/// gather lists, and thread pool — is allocated once at construction.
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

  /// f and q only, through the program's value-only instantiation (serial
  /// for any thread count); the Jf/Jq values are left untouched.
  void assemble_values(const EvalCtx& ctx_proto, const DVector& x, DVector& f, DVector& q);

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
  void run_program(StampPass pass, const EvalCtx& ctx_proto, const DVector& x, DVector& f,
                   DVector& q);
  void assemble_parallel(const EvalCtx& ctx_proto, const DVector& x, DVector& f,
                         DVector& q);
  void compile_parallel();

  Circuit& circuit_;
  const MnaPattern& pattern_;
  std::vector<double> jf_vals_, jq_vals_;
  std::vector<int> local_of_;  ///< global unknown -> active device local idx (generic ops)
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
