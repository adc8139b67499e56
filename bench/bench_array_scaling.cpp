// Device-array scaling: MNA assembly on N-element transverse-transducer
// arrays (the thousand-transducer MEMS workload the sparse path was built
// for) — the serial flat stamp program against the parallel virtual pass,
// plus the program's compile cost and batch sweep throughput via
// SweepRunner.
//
// The arrays are built through the netlist front end's one-line constructs
// (`X... TRANSARRAY n=N ...`), so this bench also covers the ARRAY parse
// path at scale. Assembly benches time ONE MnaAssembler::assemble pass —
// the per-Newton-iteration device-evaluation and scatter cost. The summary
// table at exit reports the parallel pass against the serial program at 2
// and 4 threads; results are bit-identical for any thread count, and the
// parallel pass is kept only while it wins end to end (docs/architecture.md).
//
// CI smoke mode: --benchmark_min_time=0.02s --benchmark_format=json
//                --benchmark_out=BENCH_array_scaling.json
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "core/netlist_ext.hpp"
#include "spice/engine.hpp"
#include "spice/sweep.hpp"

using namespace usys;

namespace {

std::string array_netlist(int elements, double gap) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "* transducer array\n"
                "V1 drive 0 2\n"
                "Xarr drive 0 TRANSARRAY n=%d a=1e-8 d=%g m=1e-9 k=25 "
                "alpha=1e-4 dspread=0.1\n",
                elements, gap);
  return buf;
}

std::unique_ptr<spice::Circuit> build_array(int elements, double gap = 2e-6) {
  auto parser = core::make_full_parser();
  return parser.parse(array_netlist(elements, gap)).circuit;
}

struct AssembleHarness {
  std::unique_ptr<spice::Circuit> ckt;
  std::unique_ptr<spice::MnaAssembler> assembler;
  DVector x, f, q;
  spice::EvalCtx ctx;

  AssembleHarness(int elements, int threads) : ckt(build_array(elements)) {
    ckt->bind_all();
    const spice::MnaPattern& pattern = ckt->mna_pattern();
    assembler = std::make_unique<spice::MnaAssembler>(*ckt, pattern, threads);
    x.assign(static_cast<std::size_t>(ckt->unknown_count()), 1e-3);
    ctx.mode = spice::AnalysisMode::transient;
    ctx.time = 1e-6;
    ctx.integ_c1 = 1e-6;
  }

  void run_one() {
    assembler->assemble(ctx, x, f, q);
    benchmark::DoNotOptimize(f.data());
  }
};

void BM_Assemble(benchmark::State& state) {
  AssembleHarness harness(static_cast<int>(state.range(0)),
                          static_cast<int>(state.range(1)));
  for (auto _ : state) harness.run_one();
  state.counters["unknowns"] = static_cast<double>(harness.ckt->unknown_count());
  state.counters["threads"] =
      static_cast<double>(harness.assembler->assembly_threads());
}

BENCHMARK(BM_Assemble)
    ->ArgsProduct({{256, 1024, 4096}, {1, 2, 4}})
    ->Unit(benchmark::kMicrosecond);

/// Compile cost of the flat stamp program: everything a cold job builds
/// between binding and its first assemble pass — the MnaPattern walk (CSR
/// layout, per-device slot tables, and the program's schedule and slot
/// recording) plus the serial assembler's storage. The same code times the
/// pattern alone on a tree without the program, so the difference is the
/// program's compile; its budget is one serial BM_Assemble pass of the
/// same circuit.
void BM_AssembleCompile(benchmark::State& state) {
  auto ckt = build_array(static_cast<int>(state.range(0)));
  ckt->bind_all();
  for (auto _ : state) {
    const spice::MnaPattern pattern(*ckt);
    const spice::MnaAssembler assembler(*ckt, pattern, 1);
    benchmark::DoNotOptimize(assembler.jf_values().data());
  }
  state.counters["unknowns"] = static_cast<double>(ckt->unknown_count());
}

BENCHMARK(BM_AssembleCompile)->Arg(1024)->Arg(20000)->Unit(benchmark::kMicrosecond);

/// Batch sweep: a 16-point gap x drive grid of operating points on a
/// 64-element array per point, fanned across the pool.
void BM_SweepOpGrid(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto grid =
      spice::sweep_grid({spice::SweepAxis::linspace("gap", 1.5e-6, 2.5e-6, 4),
                         spice::SweepAxis::linspace("vd", 0.5, 2.0, 4)});
  spice::SweepRunner runner(threads);
  int failures = 0;
  for (auto _ : state) {
    const auto results = runner.run(grid, [](const spice::SweepPoint& p) {
      auto ckt = build_array(64, p.value("gap"));
      spice::AnalysisEngine engine(*ckt);
      const spice::OpResult op = engine.run_op();
      spice::SweepOutcome out;
      out.ok = op.converged;
      return out;
    });
    for (const auto& r : results) failures += r.ok ? 0 : 1;
  }
  if (failures > 0) state.SkipWithError("sweep points failed");
  state.counters["points"] = static_cast<double>(grid.size());
}

BENCHMARK(BM_SweepOpGrid)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

/// Direct wall-clock summary (independent of google-benchmark's repetition
/// policy) — this is the table the acceptance criterion reads.
void print_summary() {
  using clock = std::chrono::steady_clock;
  std::printf("\n=== serial program vs parallel assembly: time per stamp pass ===\n");
  std::printf("(hardware concurrency: %u)\n", std::thread::hardware_concurrency());
  std::printf("%8s %10s %14s %14s %14s %10s %10s\n", "elements", "unknowns",
              "serial [ms]", "2 thr [ms]", "4 thr [ms]", "speedup2", "speedup4");
  for (int elements : {256, 1024, 4096}) {
    double times[3] = {0.0, 0.0, 0.0};
    int unknowns = 0;
    const int variants[3] = {1, 2, 4};
    for (int v = 0; v < 3; ++v) {
      AssembleHarness harness(elements, variants[v]);
      unknowns = harness.ckt->unknown_count();
      harness.run_one();  // warm-up
      const int reps = elements >= 4096 ? 10 : 40;
      const auto t0 = clock::now();
      for (int r = 0; r < reps; ++r) harness.run_one();
      times[v] =
          std::chrono::duration<double, std::milli>(clock::now() - t0).count() / reps;
    }
    std::printf("%8d %10d %14.3f %14.3f %14.3f %9.2fx %9.2fx\n", elements, unknowns,
                times[0], times[1], times[2], times[0] / times[1], times[0] / times[2]);
  }
  std::printf("\nserial = the flat stamp program; N thr = the parallel virtual pass,\n"
              "which gathers each CSR slot in device order, so any thread count is\n"
              "bit-identical to serial. Speedups need physical cores to show.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_summary();
  return 0;
}
