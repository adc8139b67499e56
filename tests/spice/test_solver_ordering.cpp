// Sparse LU ordering at the circuit level: result parity of the AMD-ordered
// sparse path against the unordered dense path on the relay and HDL
// circuits (the ordering must never change physics, only fill), pinned
// AMD fill on the bench topologies (the quality number bench_solver_scaling
// reports), and the TRANSARRAY scale oracle: n identical cells on one bus
// must reproduce the single-cell operating point.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>

#include "api/api.hpp"
#include "core/netlist_ext.hpp"
#include "core/transducers.hpp"
#include "hdl/interpreter.hpp"
#include "hdl/stdlib.hpp"
#include "spice/devices_controlled.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_source.hpp"
#include "spice/engine.hpp"

namespace usys::spice {
namespace {

double rel_diff(const DVector& a, const DVector& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({std::abs(a[i]), std::abs(b[i]), 1e-12});
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

// --- circuits (mirroring tests/spice/test_engine.cpp) -----------------------

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

std::unique_ptr<Circuit> hdl_resonator() {
  auto ckt = std::make_unique<Circuit>();
  const int drive = ckt->add_node("drive", Nature::electrical);
  const int vel = ckt->add_node("vel", Nature::mechanical_translation);
  ckt->add<VSource>("V1", drive, Circuit::kGround,
                    std::make_unique<PulseWave>(0.0, 10.0, 0.0, 1e-4, 1e-4, 0.05),
                    Nature::electrical, /*ac_mag=*/1.0);
  ckt->add_device(hdl::instantiate(
      "XT", hdl::stdlib::paper_listing1(), "eletran",
      {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}},
      {drive, Circuit::kGround, vel, Circuit::kGround}));
  ckt->add<Mass>("M1", vel, 1e-4);
  ckt->add<Spring>("K1", vel, Circuit::kGround, 200.0);
  ckt->add<Damper>("D1", vel, Circuit::kGround, 40e-3);
  return ckt;
}

std::string tag(const char* prefix, int i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

/// The two bench_solver_scaling topology families, sized by unknown count.
std::unique_ptr<Circuit> rc_ladder(int sections) {
  auto ckt = std::make_unique<Circuit>();
  int prev = ckt->add_node("in", Nature::electrical);
  ckt->add<VSource>("V1", prev, Circuit::kGround, 1.0);
  for (int k = 0; k < sections; ++k) {
    const int node = ckt->add_node(tag("n", k), Nature::electrical);
    ckt->add<Resistor>(tag("R", k), prev, node, 1e3);
    ckt->add<Capacitor>(tag("C", k), node, Circuit::kGround, 1e-9);
    prev = node;
  }
  return ckt;
}

std::unique_ptr<Circuit> resonator_array(int count) {
  auto ckt = std::make_unique<Circuit>();
  const int first = ckt->add_node("m0", Nature::mechanical_translation);
  ckt->add<ForceSource>("F1", first, 1e-3);
  int prev = first;
  for (int k = 0; k < count; ++k) {
    const int node =
        k == 0 ? first : ckt->add_node(tag("m", k), Nature::mechanical_translation);
    ckt->add<Mass>(tag("M", k), node, 1e-4);
    ckt->add<Damper>(tag("D", k), node, Circuit::kGround, 1e-2);
    if (k > 0) ckt->add<Spring>(tag("K", k), prev, node, 250.0);
    ckt->add<Spring>(tag("Kg", k), node, Circuit::kGround, 400.0);
    prev = node;
  }
  return ckt;
}

/// A TRANSARRAY on a 10 ohm bus driven at 5 V DC (the usysbench array
/// shape).
std::string transarray_netlist(int cells, double dspread) {
  return "* transducer array\nV1 drv 0 5\nRb drv bus 10\nXA bus 0 TRANSARRAY n=" +
         std::to_string(cells) + " a=1e-8 d=2e-6 m=1e-9 k=25 alpha=1e-4 dspread=" +
         std::to_string(dspread) + "\n.op\n.end\n";
}

TranOptions tran_opts(double tstop, double dt) {
  TranOptions opts;
  opts.tstop = tstop;
  opts.dt_init = dt;
  opts.dt_max = dt;
  opts.adaptive = false;
  return opts;
}

// --- AMD-ordered sparse vs unordered dense result parity --------------------

/// The column ordering changes fill and flop order, not the solution: DC,
/// transient, and AC results of the AMD-ordered sparse path must agree to
/// 1e-12 with the dense path, which factors in the natural column order.
void expect_ordering_parity(const std::function<std::unique_ptr<Circuit>()>& build,
                            double tstop, double dt, bool with_ac) {
  DcOptions dc_amd;
  dc_amd.newton.backend = MatrixBackend::sparse;
  DcOptions dc_dense = dc_amd;
  dc_dense.newton.backend = MatrixBackend::dense;

  auto ckt_amd = build();
  auto ckt_dense = build();
  AnalysisEngine eng_amd(*ckt_amd);
  AnalysisEngine eng_dense(*ckt_dense);

  const DcResult dc_a = eng_amd.run_dc(dc_amd);
  const DcResult dc_d = eng_dense.run_dc(dc_dense);
  ASSERT_TRUE(dc_a.converged);
  ASSERT_TRUE(dc_d.converged);
  EXPECT_TRUE(dc_a.used_sparse);
  EXPECT_FALSE(dc_d.used_sparse);
  EXPECT_LT(rel_diff(dc_a.x, dc_d.x), 1e-12);

  TranOptions topts_amd = tran_opts(tstop, dt);
  topts_amd.newton = dc_amd.newton;
  topts_amd.dc = dc_amd;
  TranOptions topts_dense = tran_opts(tstop, dt);
  topts_dense.newton = dc_dense.newton;
  topts_dense.dc = dc_dense;
  const TranResult tr_a = eng_amd.run_tran(topts_amd);
  const TranResult tr_d = eng_dense.run_tran(topts_dense);
  ASSERT_TRUE(tr_a.ok) << tr_a.error;
  ASSERT_TRUE(tr_d.ok) << tr_d.error;
  ASSERT_EQ(tr_a.time.size(), tr_d.time.size());
  double worst = 0.0;
  for (std::size_t k = 0; k < tr_a.x.size(); ++k)
    worst = std::max(worst, rel_diff(tr_a.x[k], tr_d.x[k]));
  EXPECT_LT(worst, 1e-12);

  if (with_ac) {
    AcOptions ac_amd;
    ac_amd.points = 10;
    ac_amd.dc = dc_amd;
    AcOptions ac_dense = ac_amd;
    ac_dense.dc = dc_dense;
    const AcResult ac_a = eng_amd.run_ac(ac_amd);
    const AcResult ac_d = eng_dense.run_ac(ac_dense);
    ASSERT_TRUE(ac_a.ok) << ac_a.error;
    ASSERT_TRUE(ac_d.ok) << ac_d.error;
    ASSERT_EQ(ac_a.freq.size(), ac_d.freq.size());
    for (std::size_t k = 0; k < ac_a.x.size(); ++k) {
      for (std::size_t i = 0; i < ac_a.x[k].size(); ++i) {
        const double scale =
            std::max({std::abs(ac_a.x[k][i]), std::abs(ac_d.x[k][i]), 1e-12});
        EXPECT_LT(std::abs(ac_a.x[k][i] - ac_d.x[k][i]) / scale, 1e-12)
            << "f=" << ac_a.freq[k] << " unknown=" << i;
      }
    }
  }
}

TEST(SolverOrdering, ParityRelayPullIn) {
  expect_ordering_parity([] { return relay(6.0); }, 1e-2, 2e-5, /*with_ac=*/false);
}

TEST(SolverOrdering, ParityHdlListing1) {
  expect_ordering_parity([] { return hdl_resonator(); }, 5e-3, 5e-5, /*with_ac=*/true);
}

// --- AMD fill on the bench topologies ---------------------------------------

/// The acceptance number: the exact L+U entry counts AMD produces on the
/// ~500-unknown bench topologies (bench_solver_scaling records them too). A
/// change to the ordering that costs fill fails here.
TEST(SolverOrdering, AmdFillOnBenchTopologies) {
  const auto fill_of = [](Circuit& ckt) {
    ckt.bind_all();
    const MnaPattern& pattern = ckt.mna_pattern();
    EXPECT_TRUE(pattern.complete());
    const auto n = static_cast<std::size_t>(ckt.unknown_count());
    NewtonOptions nopts;
    nopts.max_iters = 1;
    nopts.backend = MatrixBackend::sparse;
    NewtonSolver solver(ckt, nopts);
    EXPECT_TRUE(solver.sparse_active());
    EvalCtx ctx;
    ctx.mode = AnalysisMode::transient;
    ctx.time = 1e-6;
    ctx.integ_c1 = 1e-6;
    DVector x(n, 0.0), f, q;
    solver.assemble_sparse(ctx, x, f, q);
    const auto& jfv = solver.sparse_jf();
    const auto& jqv = solver.sparse_jq();
    std::vector<double> jac(jfv.size());
    const double a0 = 1e6;  // backward Euler at dt = 1 us, as in the bench
    for (std::size_t k = 0; k < jac.size(); ++k) jac[k] = jfv[k] + a0 * jqv[k];
    DSparseLu lu;
    lu.analyze(pattern.size(), pattern.row_ptr(), pattern.col_idx());
    lu.factor(jac);
    return lu.factor_nonzeros();
  };

  auto ladder = rc_ladder(498);  // 500 unknowns, 1498 pattern entries
  EXPECT_EQ(fill_of(*ladder), 1998u);
  auto res = resonator_array(250);  // 749 unknowns, 2743 pattern entries
  EXPECT_EQ(fill_of(*res), 3492u);
  // The bus row of a 1000-cell array is dense (degree 1001 against a cut
  // of 10 sqrt(n)) and AMD orders it last. The cells keep their full-graph
  // order only because every degree counts the postponed bus: without that
  // offset each mechanical node moves ahead of its spring branch and the
  // factors grow to 10011 entries.
  auto parser = core::make_full_parser();
  const auto array = parser.parse(transarray_netlist(1000, 0.1));
  EXPECT_EQ(fill_of(*array.circuit), 8011u);
}

// --- scale oracle ------------------------------------------------------------

/// With dspread = 0 every cell of a TRANSARRAY is identical, and at DC no
/// current flows into the transducers, so the bus voltage and each cell's
/// spring displacement do not depend on the cell count. n = 1 runs the
/// dense path; 1000 and 20000 run the AMD-ordered sparse path with the bus
/// postponed as a dense row.
TEST(ScaleOracle, TransArrayOpMatchesSingleCell) {
  double bus_ref = 0.0, disp_ref = 0.0;
  for (int cells : {1, 1000, 20000}) {
    api::Session session(transarray_netlist(cells, 0.0));
    const api::JobResult r = session.run();
    ASSERT_TRUE(r.ok) << r.error;
    const OpResult& op = r.analyses.back().op;
    const auto* spring = dynamic_cast<const Spring*>(session.circuit().find_device("XA_0_k"));
    ASSERT_NE(spring, nullptr);
    const double bus = op.at(session.circuit().node("bus"));
    const double disp = spring->displacement(op.x);
    ASSERT_GT(std::abs(disp), 0.0);
    if (cells == 1) {
      bus_ref = bus;
      disp_ref = disp;
      continue;
    }
    EXPECT_LE(std::abs(bus - bus_ref), 1e-12 * std::abs(bus_ref)) << "n=" << cells;
    EXPECT_LE(std::abs(disp - disp_ref), 1e-12 * std::abs(disp_ref)) << "n=" << cells;
  }
}

}  // namespace
}  // namespace usys::spice
