// Closed-loop Session jobs and the layer probes (workloads.cpp), shared by
// every workload including mc_server (mc_server.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "bench.hpp"

namespace usysbench {

/// Output check of one job: "" when its outputs are right.
using Check = std::function<std::string(usys::api::Session&, const usys::api::JobResult&)>;

struct JobSpec {
  std::string text;
  Check check;
  int traced_jobs = 1;  ///< jobs in the traced pass (each followed by probes)
};

struct Job {
  std::unique_ptr<usys::api::Session> session;
  usys::api::JobResult result;
  double setup_ms = 0.0;
  double run_ms = 0.0;
  std::string problem;  ///< "" when the job ran and its outputs check out
};

/// One job: a fresh api::Session (set-up), then Session::run.
Job run_job(const JobSpec& spec, Tracer& tracer, long id);

struct Pass {
  std::vector<double> setup_ms, run_ms, latency_ms;
  double elapsed_s = 0.0;
};

/// The untraced closed loop: one discarded warm-up job, then jobs back to
/// back until `seconds` have passed (at least one), under a CpuRotator.
/// Every job is an attempted op in `report`.
Pass timed_pass(const JobSpec& spec, double seconds, Report& report);

/// Peak resident memory of this process.
double peak_rss_mb();

/// Where the per-iteration kernels are timed: a job's final solution.
struct OperatingPoint {
  usys::DVector x;
  usys::spice::AnalysisMode mode = usys::spice::AnalysisMode::dc;
  double time = 0.0;
  double dt = 0.0;  ///< last accepted step (transient only)
};
OperatingPoint operating_point_of(const usys::api::JobResult& result);

/// Exact per-job counts from the result structs.
struct EngineCounts {
  long newton_iters = 0;
  long accepted_steps = 0;
  long rejected_steps = 0;
  long symbolic_factorizations = 0;
};
EngineCounts engine_counts_of(const usys::api::JobResult& result);

/// Calls each layer's entry point on `text`, in spans: netlist.parse,
/// mna.bind, lint.preflight, lu.analyze, lu.factor_symbolic (and sets
/// lu.fill_nnz), then per-call batches of mna.assemble, lu.factor (numeric
/// refactorization) and lu.solve at `op`.
void layer_probe(const std::string& text, const OperatingPoint& op, Tracer& tracer, long job,
                 Report& report);

/// The HDL layer on the Fig. 3 model: hdl.compile (instantiate + bind of
/// Listing 1) and hdl.stamp (NewtonSolver::stamp on the Fig. 3 circuit).
void hdl_probe(std::uint64_t seed, Tracer& tracer, Report& report);

/// Server, sweep and stats layers: a fixed-count traced mc_server session
/// at `size`, then api::run_sweep_point / stats distillation probes. Sets
/// the server.* metrics and returns the session's median latency [ms].
double server_probe(const RunConfig& cfg, Size size, Tracer& tracer, Report& report);

/// Turns the traced spans into the per-layer metrics (medians per call)
/// and sets the engine.* counts; `run_ms` is the traced jobs' median run.
void layer_metrics(const Tracer& tracer, const EngineCounts& counts, double run_ms,
                   Report& report);

/// Times `call` in batches of about 2 ms each (sized from one untimed
/// call), `batches` times, one span per batch carrying its call count.
template <typename Fn>
void kernel_batches(Tracer& tracer, const char* name, long job, int batches, Fn&& call) {
  const auto t0 = Clock::now();
  call();
  const double one_ms = ms_between(t0, Clock::now());
  const long per_batch =
      one_ms >= 2.0 ? 1L : (one_ms <= 2e-5 ? 100000L : static_cast<long>(2.0 / one_ms));
  for (int b = 0; b < batches; ++b) {
    Span span(tracer, name, job);
    for (long k = 0; k < per_batch; ++k) call();
    span.calls(per_batch);
  }
}

/// Shared tail of a workload run: end-to-end metrics of an untraced pass.
void end_to_end(const Pass& pass, Report& report);

}  // namespace usysbench
