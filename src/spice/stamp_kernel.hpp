// Kernel side of the flat stamp program (spice/mna.hpp).
//
// A native device type with a kernel keeps ONE stamp body,
//
//   template <class S> void stamp(S& s) const;
//
// written against the EvalCtx interface (v, f_add, q_add, jf_add, jq_add
// and the analysis scalars mode/integ_c0/integ_c1). Its
// evaluate(EvalCtx&) is `stamp(ctx)`, and Device::stamp_kernel() returns
// `&stamp_batch<Type>`, which instantiates the same body three more times:
//
//   * StampRecorder (compile time, once): logs the CSR value slot of every
//     Jacobian stamp (via the device's footprint table), in call order,
//     skipping ground rows and columns. The sequence must not depend on
//     values.
//   * BakedStamper<true> (every assemble pass): replays that log; each
//     Jacobian stamp is `vals[*cur++] += v`, each f/q stamp a direct write
//     on the pin's row.
//   * BakedStamper<false> (value-only passes): f and q only; the Jacobian
//     writes compile out.
//
// So the physics exists once, and every pass performs exactly the
// arithmetic of the virtual evaluate() path.
#pragma once

#include <cstddef>
#include <type_traits>
#include <vector>

#include "spice/circuit.hpp"

namespace usys::spice {

/// Everything one kernel call reads and writes.
struct StampArgs {
  // Analysis scalars, copied from the pass's EvalCtx.
  AnalysisMode mode = AnalysisMode::dc;
  double integ_c0 = 0.0;
  double integ_c1 = 0.0;

  // full / values passes.
  const double* x = nullptr;
  double* f = nullptr;
  double* q = nullptr;
  double* jf = nullptr;        ///< CSR Jf values (full pass)
  double* jq = nullptr;        ///< CSR Jq values (full pass)
  const int* slots = nullptr;  ///< the batch's baked slot stream (full pass)

  // record pass: one device per call.
  const int* unknowns = nullptr;       ///< its footprint, sorted, ground dropped
  int k = 0;
  std::vector<int>* stream = nullptr;  ///< gets li * k + lj per stamp, in order
  bool missed = false;                 ///< a stamp fell outside the footprint
};

/// The analysis scalars every stamper exposes under EvalCtx's names (what
/// InternalState reads; a kernel type needing more adds it here).
struct StamperScalars {
  explicit StamperScalars(const StampArgs& a) noexcept
      : mode(a.mode), integ_c0(a.integ_c0), integ_c1(a.integ_c1) {}
  AnalysisMode mode;
  double integ_c0;
  double integ_c1;
};

/// The assemble-pass stamper: Jacobian stamps go to the next baked slot;
/// `Jacobian = false` keeps f and q only.
template <bool Jacobian>
class BakedStamper : public StamperScalars {
 public:
  explicit BakedStamper(const StampArgs& a) noexcept
      : StamperScalars(a), x_(a.x), f_(a.f), q_(a.q), jf_(a.jf), jq_(a.jq), cur_(a.slots) {}

  double v(int idx) const noexcept { return idx < 0 ? 0.0 : x_[idx]; }
  void f_add(int row, double val) noexcept {
    if (row >= 0) f_[row] += val;
  }
  void q_add(int row, double val) noexcept {
    if (row >= 0) q_[row] += val;
  }
  void jf_add([[maybe_unused]] int row, [[maybe_unused]] int col,
              [[maybe_unused]] double val) noexcept {
    if constexpr (Jacobian) {
      if (row >= 0 && col >= 0) jf_[*cur_++] += val;
    }
  }
  void jq_add([[maybe_unused]] int row, [[maybe_unused]] int col,
              [[maybe_unused]] double val) noexcept {
    if constexpr (Jacobian) {
      if (row >= 0 && col >= 0) jq_[*cur_++] += val;
    }
  }

 private:
  const double* x_;
  double* f_;
  double* q_;
  double* jf_;
  double* jq_;
  const int* cur_;
};

/// The compile-time stamper: logs each non-ground Jacobian stamp as an
/// entry of the device's k x k footprint table (which the pattern then maps
/// to its CSR slot). Reads every unknown as 0 and writes no value.
class StampRecorder : public StamperScalars {
 public:
  explicit StampRecorder(StampArgs& a) noexcept : StamperScalars(a), args_(a) {}

  double v(int /*idx*/) const noexcept { return 0.0; }
  void f_add(int /*row*/, double /*val*/) noexcept {}
  void q_add(int /*row*/, double /*val*/) noexcept {}
  void jf_add(int row, int col, double /*val*/) { record(row, col); }
  void jq_add(int row, int col, double /*val*/) { record(row, col); }

 private:
  int local(int u) const noexcept {
    for (int i = 0; i < args_.k; ++i)
      if (args_.unknowns[i] == u) return i;
    return -1;
  }
  void record(int row, int col) {
    if (row < 0 || col < 0) return;
    const int li = local(row);
    const int lj = local(col);
    if (li < 0 || lj < 0) {
      args_.missed = true;
      return;
    }
    args_.stream->push_back(li * args_.k + lj);
  }

  StampArgs& args_;
};

/// True for the compile-time instantiation: a stamp body must keep that
/// pass free of side effects (warnings, latched flags).
template <class S>
inline constexpr bool kRecordingPass = std::is_same_v<S, StampRecorder>;

/// The batch function of native type D (Device::stamp_kernel()). D must
/// declare `template <class S> void stamp(S&) const`, defined in the
/// translation unit that takes `&stamp_batch<D>`.
template <class D>
void stamp_batch(StampPass pass, Device* const* devices, std::size_t count, StampArgs& args) {
  const auto run = [&](auto& stamper) {
    for (std::size_t i = 0; i < count; ++i) static_cast<const D*>(devices[i])->stamp(stamper);
  };
  switch (pass) {
    case StampPass::full: {
      BakedStamper<true> s(args);
      run(s);
      break;
    }
    case StampPass::values: {
      BakedStamper<false> s(args);
      run(s);
      break;
    }
    case StampPass::record: {
      StampRecorder s(args);
      run(s);
      break;
    }
  }
}

}  // namespace usys::spice
