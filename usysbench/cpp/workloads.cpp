// The three Session workloads (fig3_hdl, array_tran_1k, array_op_20k) and
// the layer probes every traced run shares.
//
// A job is what a user of the simulator pays for one answer: a fresh
// api::Session (parse + bind + preflight + HDL compile), then Session::run.
// Jobs run back to back in a closed loop with one client.
//
// The untraced pass times whole jobs only. The traced pass wraps the same
// two calls in spans and, after each job, calls each layer's own entry
// point on the same netlist: NetlistParser::parse, Circuit::bind_all +
// mna_pattern, lint_circuit, SparseLu::analyze / factor / solve and
// MnaAssembler::assemble at the job's final operating point.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>

#include "api/api.hpp"
#include "common/sparse_lu.hpp"
#include "core/netlist_ext.hpp"
#include "hdl/interpreter.hpp"
#include "hdl/stdlib.hpp"
#include "layers.hpp"
#include "netlists.hpp"
#include "spice/devices_passive.hpp"
#include "spice/lint.hpp"
#include "spice/mna.hpp"
#include "spice/solver.hpp"

namespace usysbench {

namespace api = usys::api;
namespace spice = usys::spice;

namespace {

// Recorded reference values of the probed cell's displacement [m], per
// input size. The physics does not depend on the seed, so one value per
// size pins the answer; a regression in any layer that changes the result
// beyond kProbeRelTol fails the output check.
constexpr double kTranProbeFull = -4.2850250381267617e-09;
constexpr double kTranProbeSmall = -4.2847967508643001e-09;
constexpr double kOpProbeFull = -1.1844285017800765e-08;
constexpr double kOpProbeSmall = -1.1844203329132914e-08;
constexpr double kProbeRelTol = 1e-6;

// The paper's static deflection of the Fig. 3 plate at 10 V (pinned in
// tests/spice/test_netlist.cpp).
constexpr double kFig3Deflection = -9.84e-9;
constexpr double kFig3Tolerance = 0.5e-9;

}  // namespace

Job run_job(const JobSpec& spec, Tracer& tracer, long id) {
  Job job;
  const Span span(tracer, "job", id);
  const auto t0 = Clock::now();
  try {
    {
      const Span s(tracer, "api.Session", id);
      job.session = std::make_unique<api::Session>(spec.text);
    }
    const auto t1 = Clock::now();
    {
      const Span s(tracer, "api.Session.run", id);
      job.result = job.session->run();
    }
    const auto t2 = Clock::now();
    job.setup_ms = ms_between(t0, t1);
    job.run_ms = ms_between(t1, t2);
  } catch (const std::exception& e) {
    job.problem = std::string("job threw: ") + e.what();
    return job;
  }
  if (!job.result.ok)
    job.problem = "job failed: " + job.result.error;
  else
    job.problem = spec.check(*job.session, job.result);
  return job;
}

Pass timed_pass(const JobSpec& spec, double seconds, Report& report) {
  Tracer off(false);
  report.op(run_job(spec, off, 0).problem);  // warm-up: counted, not timed
  Pass pass;
  const auto start = Clock::now();
  long id = 1;
  const CpuRotator rotate;
  do {
    const Job job = run_job(spec, off, id++);
    report.op(job.problem);
    if (!job.problem.empty()) continue;
    pass.setup_ms.push_back(job.setup_ms);
    pass.run_ms.push_back(job.run_ms);
    pass.latency_ms.push_back(job.setup_ms + job.run_ms);
  } while (ms_between(start, Clock::now()) < seconds * 1000.0);
  pass.elapsed_s = ms_between(start, Clock::now()) / 1000.0;
  return pass;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec and would count the
  // launcher's memory.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

OperatingPoint operating_point_of(const api::JobResult& result) {
  OperatingPoint op;
  const api::AnalysisOutcome& a = result.analyses.back();
  if (a.kind == spice::AnalysisCard::Kind::tran && a.tran.time.size() >= 2) {
    const std::size_t k = a.tran.time.size() - 1;
    op.x = a.tran.x[k];
    op.mode = spice::AnalysisMode::transient;
    op.time = a.tran.time[k];
    op.dt = a.tran.time[k] - a.tran.time[k - 1];
  } else {
    op.x = a.op.x;
  }
  return op;
}

EngineCounts engine_counts_of(const api::JobResult& result) {
  EngineCounts c;
  for (const api::AnalysisOutcome& a : result.analyses) {
    if (a.kind == spice::AnalysisCard::Kind::tran) {
      c.newton_iters += a.tran.total_newton_iters;
      c.accepted_steps += a.tran.time.empty() ? 0 : static_cast<long>(a.tran.time.size()) - 1;
      c.rejected_steps += a.tran.rejected_steps;
    } else {
      c.newton_iters += a.op.newton_iterations;
    }
  }
  c.symbolic_factorizations = result.symbolic_factorizations;
  return c;
}

void end_to_end(const Pass& pass, Report& report) {
  const long n = static_cast<long>(pass.latency_ms.size());
  report.set("setup_s", median(pass.setup_ms) / 1000.0, "s", n);
  report.set("run_s", median(pass.run_ms) / 1000.0, "s", n);
  report.set("jobs_per_s", pass.elapsed_s > 0.0 ? n / pass.elapsed_s : 0.0, "1/s", n);
  report.set("latency_p50_ms", median(pass.latency_ms), "ms", n);
  // The highest percentile, up to p95, with at least ten jobs beyond it;
  // the median when a run has fewer than 20 jobs (array_op_20k). A tail
  // percentile of a handful of jobs only says how loaded the host was.
  const double q = n >= 20 ? std::min(0.95, 1.0 - 10.0 / static_cast<double>(n)) : 0.5;
  report.set("latency_p95_ms", quantile(pass.latency_ms, q), "ms", n);
  report.set("latency_p95_ms.percentile", 100.0 * q, "%");
}

namespace {

Report run_session_workload(const RunConfig& cfg, const JobSpec& spec, Tracer& tracer) {
  Report report;
  if (!cfg.trace) {
    end_to_end(timed_pass(spec, cfg.seconds, report), report);
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }
  // Traced run: an untraced reference pass, then the traced jobs, each
  // followed by the layer probes on the same netlist.
  const Pass reference = timed_pass(spec, cfg.seconds / 2.0, report);
  std::vector<double> traced_latency, traced_run;
  EngineCounts counts;
  const CpuRotator rotate;
  for (int j = 0; j < spec.traced_jobs; ++j) {
    const long id = 1000 + j;
    const Job job = run_job(spec, tracer, id);
    report.op(job.problem);
    if (!job.problem.empty()) continue;
    traced_latency.push_back(job.setup_ms + job.run_ms);
    traced_run.push_back(job.run_ms);
    counts = engine_counts_of(job.result);
    layer_probe(spec.text, operating_point_of(job.result), tracer, id, report);
  }
  hdl_probe(cfg.seed, tracer, report);
  server_probe(cfg, Size::small, tracer, report);
  layer_metrics(tracer, counts, median(traced_run), report);
  const double ref = median(reference.latency_ms);
  report.set("trace.overhead_pct",
             ref > 0.0 ? 100.0 * (median(traced_latency) - ref) / ref : 0.0, "%",
             static_cast<long>(traced_latency.size()));
  return report;
}

std::string probe_check(api::Session& session, const api::JobResult& result,
                        const std::string& spring, double reference) {
  const auto* dev = dynamic_cast<const spice::Spring*>(session.circuit().find_device(spring));
  if (dev == nullptr) return "probe spring '" + spring + "' missing";
  const api::AnalysisOutcome& a = result.analyses.back();
  const usys::DVector& x =
      a.kind == spice::AnalysisCard::Kind::tran ? a.tran.x.back() : a.op.x;
  const double got = dev->displacement(x);
  if (reference == 0.0 || !(std::abs(got - reference) <= kProbeRelTol * std::abs(reference))) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "probe %s displacement %.17g, recorded %.17g",
                  spring.c_str(), got, reference);
    return buf;
  }
  return "";
}

}  // namespace

// ---------------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------------

namespace {

void layer_probe_or_throw(const std::string& text, const OperatingPoint& op, Tracer& tracer,
                          long job, Report& report) {
  auto parser = usys::core::make_full_parser();
  spice::Netlist net;
  {
    const Span s(tracer, "netlist.parse", job);
    net = parser.parse(text);
  }
  spice::Circuit& circuit = *net.circuit;
  {
    const Span s(tracer, "mna.bind", job);
    circuit.bind_all();
    circuit.mna_pattern();
  }
  {
    // The engine's errors-only preflight options (spice/engine.cpp).
    spice::LintOptions lo;
    lo.matching = false;
    lo.hdl = false;
    const Span s(tracer, "lint.preflight", job);
    spice::lint_circuit(circuit, lo);
  }
  const spice::MnaPattern& pattern = circuit.mna_pattern();
  usys::DSparseLu lu;
  {
    const Span s(tracer, "lu.analyze", job);
    lu.analyze(pattern.size(), pattern.row_ptr(), pattern.col_idx());
  }
  if (!pattern.complete() || static_cast<int>(op.x.size()) != pattern.size()) {
    report.op("kernel probe: incomplete pattern or operating point size mismatch");
    return;
  }

  spice::MnaAssembler assembler(circuit, pattern, 1);
  spice::EvalCtx ctx;
  ctx.mode = op.mode;
  ctx.time = op.time;
  double a0 = 0.0;
  if (op.mode == spice::AnalysisMode::transient) {
    ctx.integ_c0 = ctx.integ_c1 = op.dt / 2.0;  // trapezoidal, the default method
    a0 = 2.0 / op.dt;
  }
  usys::DVector f, q;
  kernel_batches(tracer, "mna.assemble", job, 5,
                 [&] { assembler.assemble(ctx, op.x, f, q); });

  // The Newton matrix Jf + a0*Jq with the solver's gmin on node rows.
  std::vector<double> jac(pattern.nonzeros());
  const auto& jf = assembler.jf_values();
  const auto& jq = assembler.jq_values();
  for (std::size_t k = 0; k < jac.size(); ++k) jac[k] = jf[k] + a0 * jq[k];
  for (int i = 0; i < circuit.node_count(); ++i)
    jac[static_cast<std::size_t>(pattern.diag_slot(i))] += 1e-12;
  {
    const Span s(tracer, "lu.factor_symbolic", job);
    lu.factor(jac);  // the pivot-searching factorization
  }
  report.set("lu.fill_nnz", static_cast<double>(lu.factor_nonzeros()), "count");
  kernel_batches(tracer, "lu.factor", job, 5, [&] { lu.factor(jac); });
  const std::vector<double> rhs = f;
  std::vector<double> b(rhs.size());
  kernel_batches(tracer, "lu.solve", job, 5, [&] {
    std::copy(rhs.begin(), rhs.end(), b.begin());
    lu.solve(b);
  });
}

}  // namespace

void layer_probe(const std::string& text, const OperatingPoint& op, Tracer& tracer, long job,
                 Report& report) {
  try {
    layer_probe_or_throw(text, op, tracer, job, report);
  } catch (const std::exception& e) {
    report.op(std::string("layer probe: ") + e.what());
  }
}

void hdl_probe(std::uint64_t seed, Tracer& tracer, Report& report) {
  constexpr long kJob = 900000;
  for (int rep = 0; rep < 5; ++rep) {
    // Lex + parse + elaborate (hdl::instantiate) and the bind-time bytecode
    // compile + verify of the Listing 1 model, on a one-device circuit.
    const Span s(tracer, "hdl.compile", kJob);
    spice::Circuit c;
    const int drive = c.add_node("drive", usys::Nature::electrical);
    const int vel = c.add_node("vel", usys::Nature::mechanical_translation);
    c.add_device(usys::hdl::instantiate(
        "XT", usys::hdl::stdlib::paper_listing1(), "eletran",
        {{"A", 1e-4}, {"d", 0.15e-3}, {"er", 1.0}},
        {drive, spice::Circuit::kGround, vel, spice::Circuit::kGround}));
    c.bind_all();
  }
  // NewtonSolver::stamp on the Fig. 3 circuit at the end of its transient.
  const Fig3Netlist fig3 = fig3_netlist(seed);
  api::Session session(fig3.text);
  const api::JobResult result = session.run();
  if (!result.ok) {
    report.op("hdl probe: Fig. 3 job failed: " + result.error);
    return;
  }
  const OperatingPoint op = operating_point_of(result);
  spice::NewtonSolver solver(session.circuit(), spice::NewtonOptions{});
  spice::EvalCtx ctx;
  ctx.mode = op.mode;
  ctx.time = op.time;
  ctx.integ_c0 = ctx.integ_c1 = op.dt / 2.0;
  usys::DVector f, q;
  usys::DMatrix jf, jq;
  kernel_batches(tracer, "hdl.stamp", kJob, 10,
                 [&] { solver.stamp(ctx, op.x, f, q, jf, jq); });
}

void layer_metrics(const Tracer& tracer, const EngineCounts& counts, double run_ms,
                   Report& report) {
  const auto med = [&tracer](const char* span) {
    const std::vector<double> v = tracer.per_call_ms(span);
    return std::make_pair(median(v), static_cast<long>(v.size()));
  };
  const auto put = [&](const char* metric, const char* span, double scale, const char* unit) {
    const auto [value, n] = med(span);
    report.set(metric, value * scale, unit, n);
  };
  put("netlist.parse_ms", "netlist.parse", 1.0, "ms");
  put("mna.bind_ms", "mna.bind", 1.0, "ms");
  put("lint.preflight_ms", "lint.preflight", 1.0, "ms");
  put("hdl.compile_ms", "hdl.compile", 1.0, "ms");
  put("lu.analyze_ms", "lu.analyze", 1.0, "ms");
  put("mna.assemble_us", "mna.assemble", 1000.0, "us");
  put("lu.factor_us", "lu.factor", 1000.0, "us");
  put("lu.solve_us", "lu.solve", 1000.0, "us");
  put("hdl.stamp_us", "hdl.stamp", 1000.0, "us");
  put("sweep.point_ms", "api.run_sweep_point", 1.0, "ms");
  put("stats.distill_ms", "stats.distill", 1.0, "ms");

  report.set("engine.newton_iters", static_cast<double>(counts.newton_iters), "count");
  report.set("engine.accepted_steps", static_cast<double>(counts.accepted_steps), "count");
  report.set("engine.rejected_steps", static_cast<double>(counts.rejected_steps), "count");
  report.set("engine.symbolic_factorizations",
             static_cast<double>(counts.symbolic_factorizations), "count");
  // Computed, not measured: the share of a job's run time outside the three
  // per-iteration kernels, taking each kernel at its probed per-call cost.
  const double kernels_ms = (med("mna.assemble").first + med("lu.factor").first +
                             med("lu.solve").first) *
                            static_cast<double>(counts.newton_iters);
  report.set("engine.control_share", run_ms > 0.0 ? 1.0 - kernels_ms / run_ms : 0.0,
             "fraction");
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

Report run_fig3_hdl(const RunConfig& cfg, Tracer& tracer) {
  const Fig3Netlist net = fig3_netlist(cfg.seed);
  JobSpec spec;
  spec.text = net.text;
  spec.traced_jobs = 40;
  spec.check = [disp = net.disp_node](api::Session& s, const api::JobResult& r) -> std::string {
    const int node = s.circuit().node(disp);
    const double x = r.analyses.back().tran.sample(60e-3, node);
    if (std::abs(x - kFig3Deflection) <= kFig3Tolerance) return "";
    char buf[128];
    std::snprintf(buf, sizeof buf, "fig3 deflection %.4g m, want %.4g +- %.2g m", x,
                  kFig3Deflection, kFig3Tolerance);
    return buf;
  };
  return run_session_workload(cfg, spec, tracer);
}

Report run_array_tran(const RunConfig& cfg, Tracer& tracer) {
  const ArrayNetlist net = array_tran_netlist(cfg.seed, cfg.size);
  JobSpec spec;
  spec.text = net.text;
  spec.traced_jobs = 6;
  const double ref = cfg.size == Size::full ? kTranProbeFull : kTranProbeSmall;
  spec.check = [spring = net.probe_spring, ref](api::Session& s, const api::JobResult& r) {
    return probe_check(s, r, spring, ref);
  };
  return run_session_workload(cfg, spec, tracer);
}

Report run_array_op(const RunConfig& cfg, Tracer& tracer) {
  const ArrayNetlist net = array_op_netlist(cfg.seed, cfg.size);
  JobSpec spec;
  spec.text = net.text;
  spec.traced_jobs = 2;
  const double ref = cfg.size == Size::full ? kOpProbeFull : kOpProbeSmall;
  spec.check = [spring = net.probe_spring, ref](api::Session& s, const api::JobResult& r) {
    return probe_check(s, r, spring, ref);
  };
  return run_session_workload(cfg, spec, tracer);
}

}  // namespace usysbench
