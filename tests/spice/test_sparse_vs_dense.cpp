// Integration regression: DC, transient, and AC results must be identical
// (to tight relative tolerance) between the dense and the sparse
// pattern-cached MNA paths, on linear ladders, an RLC tank, the
// electromagnetic relay pull-in circuit, and an interpreted HDL model.
// Also pins the "symbolic factorization at most once per analysis"
// guarantee via the solver stats.
// GCC 12's libstdc++ trips a -Wrestrict false positive (GCC PR105651) on
// short string concatenations in some inlining contexts; no real aliasing
// exists. Scoped to GCC 12 so newer compilers keep the check.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "api/api.hpp"
#include "core/transducers.hpp"
#include "hdl/interpreter.hpp"
#include "hdl/stdlib.hpp"
#include "spice/analysis.hpp"
#include "spice/devices_controlled.hpp"
#include "spice/devices_nonlinear.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_source.hpp"

namespace usys::spice {
namespace {

using CircuitBuilder = std::function<std::unique_ptr<Circuit>()>;

/// Max relative mismatch between two unknown vectors.
double rel_diff(const DVector& a, const DVector& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({std::abs(a[i]), std::abs(b[i]), 1e-12});
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

/// Newton options tightened far below the 1e-9 comparison tolerance so both
/// backends converge to (near) machine precision on identical iterates.
NewtonOptions tight_newton(MatrixBackend backend) {
  NewtonOptions o;
  o.reltol = 1e-12;
  o.backend = backend;
  return o;
}

// --- circuits ---------------------------------------------------------------

std::unique_ptr<Circuit> rc_ladder(int sections) {
  auto ckt = std::make_unique<Circuit>();
  int prev = ckt->add_node("in", Nature::electrical);
  ckt->add<VSource>("V1", prev, Circuit::kGround,
                    std::make_unique<PulseWave>(0.0, 1.0, 0.0, 1e-6, 1e-6, 1.0),
                    Nature::electrical, /*ac_mag=*/1.0);
  for (int k = 0; k < sections; ++k) {
    const int node = ckt->add_node("n" + std::to_string(k), Nature::electrical);
    ckt->add<Resistor>("R" + std::to_string(k), prev, node, 1e3);
    ckt->add<Capacitor>("C" + std::to_string(k), node, Circuit::kGround, 1e-9);
    prev = node;
  }
  return ckt;
}

std::unique_ptr<Circuit> rlc_tank() {
  auto ckt = std::make_unique<Circuit>();
  const int in = ckt->add_node("in", Nature::electrical);
  const int mid = ckt->add_node("mid", Nature::electrical);
  ckt->add<VSource>("V1", in, Circuit::kGround,
                    std::make_unique<PulseWave>(0.0, 1.0, 0.0, 1e-7, 1e-7, 1.0),
                    Nature::electrical, /*ac_mag=*/1.0);
  ckt->add<Resistor>("R1", in, mid, 50.0);
  ckt->add<Inductor>("L1", mid, Circuit::kGround, 1e-3);
  ckt->add<Capacitor>("C1", mid, Circuit::kGround, 1e-6);
  ckt->add<Diode>("D1", mid, Circuit::kGround);
  return ckt;
}

/// The relay pull-in circuit of examples/relay_pull_in.cpp, driven below
/// the pull-in threshold (strongly nonlinear but deterministic endpoint).
std::unique_ptr<Circuit> relay(double v_coil) {
  core::TransducerGeometry g;
  g.area = 4e-5;
  g.gap = 0.4e-3;
  g.turns = 600;
  auto ckt = std::make_unique<Circuit>();
  const int drive = ckt->add_node("drive", Nature::electrical);
  const int coil = ckt->add_node("coil", Nature::electrical);
  const int vel = ckt->add_node("vel", Nature::mechanical_translation);
  const int disp = ckt->add_node("disp", Nature::mechanical_translation);
  ckt->add<VSource>(
      "V1", drive, Circuit::kGround,
      std::make_unique<PwlWave>(std::vector<std::pair<double, double>>{
          {0.0, 0.0}, {1e-3, v_coil}, {1.0, v_coil}}));
  ckt->add<Resistor>("Rcoil", drive, coil, 60.0);
  ckt->add<core::ElectromagneticTransducer>("Xrel", coil, Circuit::kGround, vel,
                                            Circuit::kGround, g);
  ckt->add<Mass>("Marm", vel, 2e-3);
  ckt->add<Spring>("Karm", vel, Circuit::kGround, 900.0);
  ckt->add<Damper>("Darm", vel, Circuit::kGround, 0.8);
  ckt->add<StateIntegrator>("XD", disp, vel);
  return ckt;
}

/// Interpreted HDL transducer (paper Listing 1) in a resonator, exercising
/// the HdlDevice footprint and the cross-footprint CSR fallback.
std::unique_ptr<Circuit> hdl_resonator() {
  auto ckt = std::make_unique<Circuit>();
  const int drive = ckt->add_node("drive", Nature::electrical);
  const int vel = ckt->add_node("vel", Nature::mechanical_translation);
  ckt->add<VSource>("V1", drive, Circuit::kGround,
                    std::make_unique<PulseWave>(0.0, 10.0, 0.0, 1e-4, 1e-4, 0.05));
  ckt->add_device(hdl::instantiate(
      "XT", hdl::stdlib::paper_listing1(), "eletran",
      {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}},
      {drive, Circuit::kGround, vel, Circuit::kGround}));
  ckt->add<Mass>("M1", vel, 1e-4);
  ckt->add<Spring>("K1", vel, Circuit::kGround, 200.0);
  ckt->add<Damper>("D1", vel, Circuit::kGround, 40e-3);
  return ckt;
}

// --- parity harnesses -------------------------------------------------------

void expect_dc_parity(const CircuitBuilder& build) {
  DcOptions dense;
  dense.newton = tight_newton(MatrixBackend::dense);
  DcOptions sparse;
  sparse.newton = tight_newton(MatrixBackend::sparse);

  auto ckt_d = build();
  const DcResult rd = api::solve_dc(*ckt_d, dense);
  auto ckt_s = build();
  // A cold pattern: an earlier test's solver on the same circuit would
  // have left a pivot record that this one replays (0 searches).
  SymbolicCache::process().clear();
  const DcResult rs = api::solve_dc(*ckt_s, sparse);

  ASSERT_TRUE(rd.converged);
  ASSERT_TRUE(rs.converged);
  EXPECT_FALSE(rd.used_sparse);
  EXPECT_TRUE(rs.used_sparse);
  EXPECT_LT(rel_diff(rd.x, rs.x), 1e-9);
  // One analysis, one symbolic factorization — every Newton iteration (and
  // gmin stage) reuses it.
  EXPECT_EQ(rs.symbolic_factorizations, 1);
}

void expect_tran_parity(const CircuitBuilder& build, double tstop, double dt) {
  TranOptions opts;
  opts.tstop = tstop;
  opts.dt_init = dt;
  opts.dt_max = dt;
  opts.adaptive = false;  // identical step sequences on both backends
  opts.newton = tight_newton(MatrixBackend::dense);
  opts.dc.newton = tight_newton(MatrixBackend::dense);

  auto ckt_d = build();
  const TranResult rd = api::transient(*ckt_d, opts);

  opts.newton.backend = MatrixBackend::sparse;
  opts.dc.newton.backend = MatrixBackend::sparse;
  auto ckt_s = build();
  const TranResult rs = api::transient(*ckt_s, opts);

  ASSERT_TRUE(rd.ok) << rd.error;
  ASSERT_TRUE(rs.ok) << rs.error;
  EXPECT_FALSE(rd.used_sparse);
  EXPECT_TRUE(rs.used_sparse);
  ASSERT_EQ(rd.time.size(), rs.time.size());
  double worst = 0.0;
  for (std::size_t k = 0; k < rd.x.size(); ++k) worst = std::max(worst, rel_diff(rd.x[k], rs.x[k]));
  EXPECT_LT(worst, 1e-9);
  EXPECT_EQ(rs.symbolic_factorizations, 1);
}

void expect_ac_parity(const CircuitBuilder& build) {
  AcOptions opts;
  opts.f_start = 1.0;
  opts.f_stop = 1e6;
  opts.points = 20;
  opts.dc.newton = tight_newton(MatrixBackend::dense);

  auto ckt_d = build();
  const AcResult rd = api::ac_sweep(*ckt_d, opts);

  opts.dc.newton.backend = MatrixBackend::sparse;
  auto ckt_s = build();
  const AcResult rs = api::ac_sweep(*ckt_s, opts);

  ASSERT_TRUE(rd.ok) << rd.error;
  ASSERT_TRUE(rs.ok) << rs.error;
  EXPECT_FALSE(rd.used_sparse);
  EXPECT_TRUE(rs.used_sparse);
  ASSERT_EQ(rd.freq.size(), rs.freq.size());
  for (std::size_t k = 0; k < rd.x.size(); ++k) {
    for (std::size_t i = 0; i < rd.x[k].size(); ++i) {
      const double scale =
          std::max({std::abs(rd.x[k][i]), std::abs(rs.x[k][i]), 1e-12});
      EXPECT_LT(std::abs(rd.x[k][i] - rs.x[k][i]) / scale, 1e-9)
          << "f=" << rd.freq[k] << " unknown=" << i;
    }
  }
}

// --- cases ------------------------------------------------------------------

TEST(SparseVsDense, DcRcLadder) {
  expect_dc_parity([] { return rc_ladder(40); });
}

TEST(SparseVsDense, DcRelay) {
  expect_dc_parity([] { return relay(6.0); });
}

TEST(SparseVsDense, TranRcLadder) {
  expect_tran_parity([] { return rc_ladder(25); }, 2e-5, 2e-7);
}

TEST(SparseVsDense, TranRlcWithDiode) {
  expect_tran_parity([] { return rlc_tank(); }, 5e-4, 1e-6);
}

TEST(SparseVsDense, TranRelayPullIn) {
  expect_tran_parity([] { return relay(6.0); }, 1e-2, 2e-5);
}

TEST(SparseVsDense, TranHdlListing1) {
  expect_tran_parity([] { return hdl_resonator(); }, 5e-3, 5e-5);
}

TEST(SparseVsDense, AcRcLadder) {
  expect_ac_parity([] { return rc_ladder(40); });
}

TEST(SparseVsDense, AcRlc) {
  expect_ac_parity([] { return rlc_tank(); });
}

TEST(SparseVsDense, AcSymbolicFactorizationComputedOncePerSweep) {
  AcOptions opts;
  opts.points = 30;
  opts.dc.newton = tight_newton(MatrixBackend::sparse);
  auto ckt = rc_ladder(40);
  const AcResult r = api::ac_sweep(*ckt, opts);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.used_sparse);
  EXPECT_EQ(r.symbolic_factorizations, 1);
}

TEST(SparseVsDense, AutoSelectCrossesOverOnSize) {
  // Small circuit: auto stays dense. Large ladder: auto goes sparse.
  {
    auto small = rlc_tank();
    DcOptions opts;  // default backend = auto_select
    const DcResult r = api::solve_dc(*small, opts);
    ASSERT_TRUE(r.converged);
    EXPECT_FALSE(r.used_sparse);
  }
  {
    auto big = rc_ladder(100);
    DcOptions opts;
    const DcResult r = api::solve_dc(*big, opts);
    ASSERT_TRUE(r.converged);
    EXPECT_TRUE(r.used_sparse);
  }
}

/// A device that declines to declare its footprint must force the whole
/// circuit onto the dense path — silently correct, never wrong.
class OpaqueResistor final : public Resistor {
 public:
  using Resistor::Resistor;
  bool stamp_footprint(std::vector<int>& out) const override {
    (void)out;
    return false;
  }
};

TEST(SparseVsDense, UnknownFootprintFallsBackToDense) {
  auto ckt = rc_ladder(30);
  const int a = ckt->node("n3");
  const int b = ckt->node("n7");
  ckt->add<OpaqueResistor>("Ropaque", a, b, 2e3);
  DcOptions opts;
  opts.newton = tight_newton(MatrixBackend::sparse);  // forced, but incomplete
  const DcResult r = api::solve_dc(*ckt, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_FALSE(r.used_sparse);
  EXPECT_EQ(r.symbolic_factorizations, 0);
}

}  // namespace
}  // namespace usys::spice
