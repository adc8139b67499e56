// Flat stamp program oracle: the serial MnaAssembler runs the program
// (per-type kernels with baked CSR slots, generic ops through the virtual
// evaluate), the parallel one evaluates every device through the virtual
// path and gathers in device order. They must agree EXACTLY (==) on Jf,
// Jq, f and q for every kernel type, ground pins, collision clamping,
// interleaved device types on one slot, mixed generic/kernel circuits and
// parameter edits. Also the scale oracle's TRAN and AC parts: a dspread=0
// TRANSARRAY whose cells all see the single-cell bus voltage.
// GCC 12's libstdc++ trips a -Wrestrict false positive (GCC PR105651) on
// short string concatenations in some inlining contexts; no real aliasing
// exists. Scoped to GCC 12 so newer compilers keep the check.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <memory>
#include <string>

#include "api/api.hpp"
#include "common/log.hpp"
#include "core/transducers.hpp"
#include "hdl/interpreter.hpp"
#include "hdl/stdlib.hpp"
#include "spice/devices_controlled.hpp"
#include "spice/devices_nonlinear.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_source.hpp"
#include "spice/engine.hpp"
#include "spice/mna.hpp"
#include "spice/stamp_kernel.hpp"

namespace usys::spice {
namespace {

core::TransducerGeometry plate(double gap) {
  core::TransducerGeometry g;
  g.area = 1e-8;
  g.gap = gap;
  return g;
}

EvalCtx dc_ctx() { return EvalCtx{}; }

EvalCtx tran_ctx() {
  EvalCtx ctx;
  ctx.mode = AnalysisMode::transient;
  ctx.time = 1e-6;
  ctx.integ_c0 = 5e-8;
  ctx.integ_c1 = 5e-8;
  return ctx;
}

DVector iterate(const Circuit& ckt) {
  DVector x(static_cast<std::size_t>(ckt.unknown_count()));
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 0.3 + 0.1 * std::sin(1.7 * static_cast<double>(i));
  return x;
}

int kernel_ops(const MnaPattern& pattern) {
  int n = 0;
  for (const auto& op : pattern.program()) n += op.kernel != nullptr ? 1 : 0;
  return n;
}

/// Program (1 thread) against the virtual block-capture path (2 threads),
/// full and value-only passes.
void expect_program_matches_virtual(Circuit& ckt, const MnaPattern& pattern,
                                    const EvalCtx& ctx, const DVector& x) {
  MnaAssembler program(ckt, pattern, 1);
  MnaAssembler oracle(ckt, pattern, 2);
  ASSERT_EQ(oracle.assembly_threads(), 2);
  DVector f0, q0, f1, q1;
  program.assemble(ctx, x, f0, q0);
  oracle.assemble(ctx, x, f1, q1);
  EXPECT_EQ(program.jf_values(), oracle.jf_values());
  EXPECT_EQ(program.jq_values(), oracle.jq_values());
  EXPECT_EQ(f0, f1);
  EXPECT_EQ(q0, q1);
  DVector fv, qv;
  program.assemble_values(ctx, x, fv, qv);
  EXPECT_EQ(fv, f1);
  EXPECT_EQ(qv, q1);
}

/// Every kernel type, each with grounded and floating pins.
std::unique_ptr<Circuit> kernel_zoo() {
  auto ckt = std::make_unique<Circuit>();
  const int a = ckt->add_node("a", Nature::electrical);
  const int b = ckt->add_node("b", Nature::electrical);
  const int m = ckt->add_node("m", Nature::mechanical_translation);
  const int m2 = ckt->add_node("m2", Nature::mechanical_translation);
  ckt->add<Resistor>("R1", a, b, 1e3);
  ckt->add<Resistor>("R2", b, Circuit::kGround, 2e3);
  ckt->add<Capacitor>("C1", a, b, 1e-9);
  ckt->add<Capacitor>("C2", Circuit::kGround, a, 3e-9);
  ckt->add<Inductor>("L1", a, b, 1e-6);
  ckt->add<Inductor>("L2", Circuit::kGround, b, 2e-6);
  ckt->add<core::TransverseElectrostatic>("X1", a, b, m, m2, plate(2e-6));
  ckt->add<core::TransverseElectrostatic>("X2", a, Circuit::kGround, m2, Circuit::kGround,
                                          plate(3e-6));
  ckt->add<Mass>("M1", m, 1e-9);
  ckt->add<Spring>("K1", m, m2, 25.0);
  ckt->add<Spring>("K2", m2, Circuit::kGround, 30.0);
  ckt->add<Damper>("D1", m, m2, 1e-4);
  ckt->add<Damper>("D2", m2, Circuit::kGround, 2e-4);
  ckt->bind_all();
  return ckt;
}

TEST(StampProgram, EveryKernelTypeMatchesVirtualPath) {
  auto ckt = kernel_zoo();
  const MnaPattern& pattern = ckt->mna_pattern();
  ASSERT_TRUE(pattern.complete());
  // Resistor (+Damper), Capacitor (+Mass), Inductor (+Spring), transducer:
  // no generic op, and the mechanical twins share their twin's kernel.
  for (const auto& op : pattern.program()) EXPECT_NE(op.kernel, nullptr);
  EXPECT_EQ(ckt->find_device("D1")->stamp_kernel(), ckt->find_device("R1")->stamp_kernel());
  EXPECT_EQ(ckt->find_device("M1")->stamp_kernel(), ckt->find_device("C1")->stamp_kernel());
  EXPECT_EQ(ckt->find_device("K1")->stamp_kernel(), ckt->find_device("L1")->stamp_kernel());
  const DVector x = iterate(*ckt);
  expect_program_matches_virtual(*ckt, pattern, dc_ctx(), x);
  expect_program_matches_virtual(*ckt, pattern, tran_ctx(), x);
}

/// An initial displacement past the gap clamps it at every iterate.
/// Compiling runs the transducer's stamp body but must not fire or latch
/// its collision warning; the first real pass warns, as the virtual path
/// does.
TEST(StampProgram, CollisionClampedGapCompilesSilently) {
  auto ckt = std::make_unique<Circuit>();
  const int a = ckt->add_node("a", Nature::electrical);
  const int m = ckt->add_node("m", Nature::mechanical_translation);
  ckt->add<Resistor>("R1", a, Circuit::kGround, 1e3);
  auto& xd = ckt->add<core::TransverseElectrostatic>("X1", a, Circuit::kGround, m,
                                                     Circuit::kGround, plate(2e-6));
  xd.set_initial_displacement(-3e-6);
  ckt->add<Mass>("M1", m, 1e-9);
  ckt->add<Spring>("K1", m, Circuit::kGround, 25.0);
  ckt->bind_all();
  ASSERT_EQ(xd.effective_gap(-3e-6), 2e-9);

  const LogLevel saved = log_level();
  set_log_level(LogLevel::warn);
  testing::internal::CaptureStderr();
  const MnaPattern pattern(*ckt);
  const std::string compile_log = testing::internal::GetCapturedStderr();
  testing::internal::CaptureStderr();
  MnaAssembler program(*ckt, pattern, 1);
  DVector f, q;
  program.assemble(dc_ctx(), iterate(*ckt), f, q);
  const std::string pass_log = testing::internal::GetCapturedStderr();
  set_log_level(saved);

  EXPECT_EQ(compile_log, "");
  EXPECT_NE(pass_log.find("electrode collision"), std::string::npos) << pass_log;
  const DVector x = iterate(*ckt);
  expect_program_matches_virtual(*ckt, pattern, dc_ctx(), x);
  expect_program_matches_virtual(*ckt, pattern, tran_ctx(), x);
}

/// R/C/R/L/R (and a transducer between the capacitors) on one node pair.
/// Grouping by type alone would sum row a's currents as R1+R2+R3+L1 and
/// slot jq(a, a) as C1+C2+X1; the level schedule keeps device order.
TEST(StampProgram, InterleavedTypesKeepDeviceOrderPerSlot) {
  auto ckt = std::make_unique<Circuit>();
  const int a = ckt->add_node("a", Nature::electrical);
  const int b = ckt->add_node("b", Nature::electrical);
  const int c = ckt->add_node("c", Nature::electrical);
  const int d = ckt->add_node("d", Nature::electrical);
  const int m = ckt->add_node("m", Nature::mechanical_translation);
  ckt->add<Resistor>("R1", a, b, 1.0);
  ckt->add<Capacitor>("C1", a, b, 1.0);
  ckt->add<core::TransverseElectrostatic>("X1", a, b, m, Circuit::kGround, plate(2e-6));
  ckt->add<Capacitor>("C2", a, b, 1e-3);
  ckt->add<Resistor>("R2", a, d, 1.0);
  ckt->add<Inductor>("L1", a, b, 1e-6);
  ckt->add<Resistor>("R3", a, c, 1.0);
  ckt->add<Mass>("M1", m, 1e-9);
  ckt->add<Spring>("K1", m, Circuit::kGround, 25.0);
  ckt->bind_all();
  const MnaPattern& pattern = ckt->mna_pattern();
  // R, C, X, C, R, L, R: every type change on the shared pair opens a new
  // op; the cell's mass and spring join the second C and the L op.
  EXPECT_EQ(pattern.program().size(), 7u);
  EXPECT_EQ(kernel_ops(pattern), 7);

  // va = vd = 1, vb = 0, vc = 2, L1 current 1e-16: row a's currents are
  // R1 +1, R2 0, L1 +1e-16, R3 -1, and the order decides whether the
  // 1e-16 survives.
  DVector x(static_cast<std::size_t>(ckt->unknown_count()), 0.0);
  x[static_cast<std::size_t>(a)] = 1.0;
  x[static_cast<std::size_t>(c)] = 2.0;
  x[static_cast<std::size_t>(d)] = 1.0;
  const auto* l1 = dynamic_cast<const Inductor*>(ckt->find_device("L1"));
  ASSERT_NE(l1, nullptr);
  x[static_cast<std::size_t>(l1->branch())] = 1e-16;
  volatile double tiny = 1e-16;
  const double ordered = ((1.0 + 0.0) + tiny) + -1.0;
  const double grouped = ((1.0 + 0.0) + -1.0) + tiny;
  ASSERT_NE(ordered, grouped);  // the test can tell the two orders apart

  MnaAssembler program(*ckt, pattern, 1);
  DVector f, q;
  program.assemble(dc_ctx(), x, f, q);
  EXPECT_EQ(f[static_cast<std::size_t>(a)], ordered);
  expect_program_matches_virtual(*ckt, pattern, dc_ctx(), x);
  expect_program_matches_virtual(*ckt, pattern, tran_ctx(), iterate(*ckt));
}

/// Generic devices (source, diode, controlled source, interpreted HDL) run
/// the virtual path inside the program, interleaved with kernel batches.
TEST(StampProgram, MixedGenericAndKernelDevices) {
  auto ckt = std::make_unique<Circuit>();
  const int drive = ckt->add_node("drive", Nature::electrical);
  const int mid = ckt->add_node("mid", Nature::electrical);
  const int out = ckt->add_node("out", Nature::electrical);
  const int vel = ckt->add_node("vel", Nature::mechanical_translation);
  const int vel2 = ckt->add_node("vel2", Nature::mechanical_translation);
  ckt->add<VSource>("V1", drive, Circuit::kGround,
                    std::make_unique<PulseWave>(0.0, 10.0, 0.0, 1e-4, 1e-4, 0.05));
  ckt->add<Resistor>("R1", drive, mid, 100.0);
  ckt->add<Diode>("D1", mid, out);
  ckt->add<Capacitor>("C1", out, Circuit::kGround, 1e-6);
  ckt->add<Vcvs>("E1", out, Circuit::kGround, mid, Circuit::kGround, 0.5);
  ckt->add_device(hdl::instantiate("XT", hdl::stdlib::paper_listing1(), "eletran",
                                   {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}},
                                   {drive, Circuit::kGround, vel, Circuit::kGround}));
  ckt->add<Mass>("M1", vel, 1e-4);
  ckt->add<Spring>("K1", vel, Circuit::kGround, 200.0);
  ckt->add<Damper>("B1", vel, Circuit::kGround, 40e-3);
  ckt->add<core::TransverseElectrostatic>("X2", mid, Circuit::kGround, vel2,
                                          Circuit::kGround, plate(2e-6));
  ckt->add<Mass>("M2", vel2, 1e-9);
  ckt->add<Spring>("K2", vel2, Circuit::kGround, 25.0);
  ckt->bind_all();
  const MnaPattern& pattern = ckt->mna_pattern();
  ASSERT_TRUE(pattern.complete());
  EXPECT_GT(kernel_ops(pattern), 0);
  EXPECT_LT(kernel_ops(pattern), static_cast<int>(pattern.program().size()));
  const DVector x = iterate(*ckt);
  expect_program_matches_virtual(*ckt, pattern, dc_ctx(), x);
  expect_program_matches_virtual(*ckt, pattern, tran_ctx(), x);
}

/// A TRANSARRAY behind a source and a bus resistor compiles to 6 ops: the
/// source, the bus resistor, then one batch per cell device type.
TEST(StampProgram, TransArrayCompilesToSixOps) {
  auto ckt = std::make_unique<Circuit>();
  const int drv = ckt->add_node("drv", Nature::electrical);
  const int bus = ckt->add_node("bus", Nature::electrical);
  ckt->add<VSource>("V1", drv, Circuit::kGround, 2.0);
  ckt->add<Resistor>("Rb", drv, bus, 10.0);
  for (int i = 0; i < 50; ++i) {
    const int v = ckt->add_node("v" + std::to_string(i), Nature::mechanical_translation);
    ckt->add<core::TransverseElectrostatic>("X" + std::to_string(i), bus, Circuit::kGround,
                                            v, Circuit::kGround, plate(2e-6 + 1e-8 * i));
    ckt->add<Mass>("M" + std::to_string(i), v, 1e-9);
    ckt->add<Spring>("K" + std::to_string(i), v, Circuit::kGround, 25.0);
    ckt->add<Damper>("B" + std::to_string(i), v, Circuit::kGround, 1e-4);
  }
  ckt->bind_all();
  const MnaPattern& pattern = ckt->mna_pattern();
  const auto& ops = pattern.program();
  ASSERT_EQ(ops.size(), 6u);
  EXPECT_EQ(ops[0].kernel, nullptr);
  EXPECT_EQ(ops[0].last - ops[0].first, 1);
  EXPECT_EQ(ops[1].last - ops[1].first, 1);
  for (std::size_t o = 2; o < ops.size(); ++o) EXPECT_EQ(ops[o].last - ops[o].first, 50);
  EXPECT_EQ(ops[1].kernel, ops[5].kernel);  // bus resistor and dampers
  expect_program_matches_virtual(*ckt, pattern, tran_ctx(), iterate(*ckt));
}

/// set_param edits are read through the device pointer: the cached
/// pattern and its program survive rebind() untouched and stamp the new
/// value.
TEST(StampProgram, SetParamAndRebindNeedNoRecompile) {
  const auto build = [](double r_bus, double k) {
    auto ckt = std::make_unique<Circuit>();
    const int drv = ckt->add_node("drv", Nature::electrical);
    const int bus = ckt->add_node("bus", Nature::electrical);
    ckt->add<VSource>("V1", drv, Circuit::kGround, 5.0);
    ckt->add<Resistor>("Rb", drv, bus, r_bus);
    for (int i = 0; i < 8; ++i) {
      const int v = ckt->add_node("v" + std::to_string(i), Nature::mechanical_translation);
      ckt->add<core::TransverseElectrostatic>("X" + std::to_string(i), bus,
                                              Circuit::kGround, v, Circuit::kGround,
                                              plate(2e-6));
      ckt->add<Mass>("M" + std::to_string(i), v, 1e-9);
      ckt->add<Spring>("K" + std::to_string(i), v, Circuit::kGround, k);
    }
    return ckt;
  };
  DcOptions dc;
  dc.newton.backend = MatrixBackend::sparse;

  auto ckt = build(10.0, 25.0);
  AnalysisEngine engine(*ckt);
  ASSERT_TRUE(engine.run_op(dc).converged);
  const MnaPattern* pattern = &ckt->mna_pattern();
  const auto* ops = pattern->program().data();
  ASSERT_TRUE(ckt->find_device("Rb")->set_param("r", 20.0));
  ASSERT_TRUE(ckt->find_device("K3")->set_param("k", 40.0));
  engine.rebind();
  const OpResult edited = engine.run_op(dc);
  ASSERT_TRUE(edited.converged);
  EXPECT_EQ(&ckt->mna_pattern(), pattern);
  EXPECT_EQ(ckt->mna_pattern().program().data(), ops);

  expect_program_matches_virtual(*ckt, *pattern, tran_ctx(), iterate(*ckt));
  auto fresh = build(20.0, 25.0);
  ASSERT_TRUE(fresh->find_device("K3")->set_param("k", 40.0));
  fresh->bind_all();
  MnaAssembler a(*ckt, *pattern, 1);
  MnaAssembler b(*fresh, fresh->mna_pattern(), 1);
  DVector f0, q0, f1, q1;
  const DVector x = iterate(*ckt);
  a.assemble(tran_ctx(), x, f0, q0);
  b.assemble(tran_ctx(), x, f1, q1);
  EXPECT_EQ(a.jf_values(), b.jf_values());
  EXPECT_EQ(a.jq_values(), b.jq_values());
  EXPECT_EQ(f0, f1);
  EXPECT_EQ(q0, q1);
  const OpResult ref = AnalysisEngine(*fresh).run_op(dc);
  ASSERT_TRUE(ref.converged);
  for (std::size_t i = 0; i < ref.x.size(); ++i)
    EXPECT_NEAR(edited.x[i], ref.x[i], 1e-12 * std::max(1.0, std::abs(ref.x[i]))) << i;
}

/// Declares only its first pin but stamps the pair: a generic op whose
/// stamp leaves the compiled pattern.
class EscapingDevice final : public Device {
 public:
  EscapingDevice(std::string name, int a, int b) : Device(std::move(name)), a_(a), b_(b) {}
  void bind(Binder& /*binder*/) override {}
  void evaluate(EvalCtx& ctx) override { ctx.jf_add(a_, b_, 1.0); }
  bool stamp_footprint(std::vector<int>& out) const override {
    out.push_back(a_);
    return true;
  }

 private:
  int a_, b_;
};

/// The same stamp through a kernel: caught when the program records it.
class EscapingKernelDevice final : public Device {
 public:
  EscapingKernelDevice(std::string name, int a, int b)
      : Device(std::move(name)), a_(a), b_(b) {}
  void bind(Binder& /*binder*/) override {}
  void evaluate(EvalCtx& ctx) override { stamp(ctx); }
  bool stamp_footprint(std::vector<int>& out) const override {
    out.push_back(a_);
    return true;
  }
  StampKernel stamp_kernel() const override { return &stamp_batch<EscapingKernelDevice>; }
  template <class S>
  void stamp(S& s) const {
    s.jf_add(a_, b_, 1.0);
  }

 private:
  int a_, b_;
};

TEST(StampProgram, StampOutsideFootprintRaises) {
  {
    Circuit ckt;
    const int a = ckt.add_node("a", Nature::electrical);
    const int b = ckt.add_node("b", Nature::electrical);
    const int c = ckt.add_node("c", Nature::electrical);
    ckt.add<Resistor>("R1", a, Circuit::kGround, 1.0);
    ckt.add<Resistor>("R2", b, c, 1.0);
    ckt.add<EscapingDevice>("Y1", a, b);  // (a, b) is in no footprint
    ckt.bind_all();
    const MnaPattern& pattern = ckt.mna_pattern();
    MnaAssembler program(ckt, pattern, 1);
    DVector x(3, 0.0), f, q;
    EXPECT_THROW(program.assemble(dc_ctx(), x, f, q), CircuitError);
  }
  {
    Circuit ckt;
    const int a = ckt.add_node("a", Nature::electrical);
    const int b = ckt.add_node("b", Nature::electrical);
    ckt.add<Resistor>("R1", a, b, 1.0);  // (a, b) is in the pattern
    ckt.add<EscapingKernelDevice>("Y1", a, b);
    ckt.bind_all();
    EXPECT_THROW(MnaPattern{ckt}, CircuitError);
  }
}

// --- scale oracle: TRAN and AC ----------------------------------------------

/// A dspread=0 TRANSARRAY behind a bus resistor of R/n: n identical cells
/// draw n times the single cell's current through 1/n of its resistance,
/// so every cell sees the single-cell bus voltage. n = 1 runs the dense
/// path, n = 1000 the flat stamp program on the sparse path.
std::string scale_netlist(int cells, const std::string& drive, const std::string& card) {
  return "* scale oracle\nV1 drv 0 " + drive + "\nRb drv bus " +
         std::to_string(1e4 / cells) + "\nXA bus 0 TRANSARRAY n=" + std::to_string(cells) +
         " a=1e-8 d=2e-6 m=1e-9 k=25 alpha=1e-4 dspread=0\n" + card + "\n.end\n";
}

TEST(ScaleOracle, TransArrayTranMatchesSingleCell) {
  TranResult ref;
  int bus_ref = -1, v0_ref = -1;
  for (int cells : {1, 1000}) {
    api::Session session(
        scale_netlist(cells, "PULSE(0 5 1u 1u 1u 3u 8u)", ".tran 0.1u 10u"));
    api::JobResult r = session.run();
    ASSERT_TRUE(r.ok) << r.error;
    TranResult& tr = r.analyses.back().tran;
    const int bus = session.circuit().node("bus");
    const int v0 = session.circuit().node("XA_v0");
    if (cells == 1) {
      ref = std::move(tr);
      bus_ref = bus;
      v0_ref = v0;
      continue;
    }
    // The same accepted steps to within rounding of the step sizes, and
    // the bus and cell-0 velocity within 1e-5 of their peaks (measured:
    // 2.7e-7 of tstop, 2.5e-7 and 4.4e-7: the n-fold bus current rounds
    // differently, and step control carries that forward).
    ASSERT_EQ(tr.time.size(), ref.time.size());
    double bus_peak = 0.0, v0_peak = 0.0;
    for (std::size_t k = 0; k < ref.time.size(); ++k) {
      bus_peak = std::max(bus_peak, std::abs(ref.at(k, bus_ref)));
      v0_peak = std::max(v0_peak, std::abs(ref.at(k, v0_ref)));
    }
    double dt = 0.0, dbus = 0.0, dv0 = 0.0;
    for (std::size_t k = 0; k < ref.time.size(); ++k) {
      dt = std::max(dt, std::abs(tr.time[k] - ref.time[k]) / ref.time.back());
      dbus = std::max(dbus, std::abs(tr.at(k, bus) - ref.at(k, bus_ref)) / bus_peak);
      dv0 = std::max(dv0, std::abs(tr.at(k, v0) - ref.at(k, v0_ref)) / v0_peak);
    }
    EXPECT_LE(dt, 1e-6) << "n=" << cells;
    EXPECT_LE(dbus, 1e-5) << "n=" << cells;
    EXPECT_LE(dv0, 1e-5) << "n=" << cells;
  }
}

TEST(ScaleOracle, TransArrayAcMatchesSingleCell) {
  AcResult ref;
  int bus_ref = -1, v0_ref = -1;
  for (int cells : {1, 1000}) {
    api::Session session(scale_netlist(cells, "2 AC 1", ".ac dec 10 1k 100meg"));
    api::JobResult r = session.run();
    ASSERT_TRUE(r.ok) << r.error;
    AcResult& ac = r.analyses.back().ac;
    const int bus = session.circuit().node("bus");
    const int v0 = session.circuit().node("XA_v0");
    if (cells == 1) {
      ref = std::move(ac);
      bus_ref = bus;
      v0_ref = v0;
      continue;
    }
    // Within 1e-6 relative at every frequency (measured: 1.0e-8 bus,
    // 2.0e-8 velocity, from the operating points' Newton tolerance).
    ASSERT_EQ(ac.freq, ref.freq);
    double dbus = 0.0, dv0 = 0.0;
    for (std::size_t k = 0; k < ref.freq.size(); ++k) {
      const auto rb = ref.at(k, bus_ref);
      const auto rv = ref.at(k, v0_ref);
      ASSERT_GT(std::abs(rv), 0.0);
      dbus = std::max(dbus, std::abs(ac.at(k, bus) - rb) / std::abs(rb));
      dv0 = std::max(dv0, std::abs(ac.at(k, v0) - rv) / std::abs(rv));
    }
    EXPECT_LE(dbus, 1e-6) << "n=" << cells;
    EXPECT_LE(dv0, 1e-6) << "n=" << cells;
  }
}

}  // namespace
}  // namespace usys::spice
