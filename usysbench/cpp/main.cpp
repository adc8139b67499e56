// usysbench — runs one workload and prints its metrics.
//
//   usysbench --workload fig3_hdl|array_tran_1k|array_op_20k|mc_server
//             --seed N --seconds S --trace 0|1 [--size full|small]
//             [--out-dir DIR] [--commit ID] [--source-digest HEX]
//
// Prints a stamp line, one human-readable line per metric (with its sample
// count), and as the last line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. Every metric with its sample count goes to
// DIR/result-<workload>-seed<N>[-trace].json, and a traced run's spans to
// DIR/trace-<workload>-seed<N>-trace.json.
// Exit status: 0 ok, 1 an output check failed, 2 usage error.
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/json.hpp"

namespace {

using usysbench::Report;

#ifndef USYSBENCH_BUILD_TYPE
#define USYSBENCH_BUILD_TYPE "unknown"
#endif
#ifndef USYSBENCH_COMPILER
#define USYSBENCH_COMPILER "unknown"
#endif

const std::vector<const char*> kEndToEnd = {"setup_s",        "run_s",          "jobs_per_s",
                                            "latency_p50_ms", "latency_p95_ms", "peak_rss_mb"};

const std::vector<const char*> kPerLayer = {
    "netlist.parse_ms",       "mna.bind_ms",          "lint.preflight_ms",
    "hdl.compile_ms",         "lu.analyze_ms",        "lu.fill_nnz",
    "mna.assemble_us",        "lu.factor_us",         "lu.solve_us",
    "hdl.stamp_us",           "engine.newton_iters",  "engine.accepted_steps",
    "engine.rejected_steps",  "engine.symbolic_factorizations",
    "engine.control_share",   "server.queue_wait_ms", "server.engine_hit_ratio",
    "server.result_hit_ratio", "server.parses",       "server.symbolic_factorizations",
    "server.busy_rejected",   "sweep.point_ms",       "stats.distill_ms",
    "trace.overhead_pct"};

int usage(const char* why) {
  std::fprintf(stderr,
               "usysbench: %s\nusage: usysbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|small] [--out-dir DIR] [--commit ID] "
               "[--source-digest HEX]\n",
               why);
  return 2;
}

std::string json_str(const std::string& s) {
  std::string out;
  usys::json_append_escaped(out, s);
  return out;
}

std::string json_num(double v) {
  std::string out;
  usys::json_append_double(out, v);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process: with glibc's defaults every job of a
  // large circuit maps and unmaps its big arrays, and the page faults that
  // follow cost a varying amount on a shared virtual host. Jobs after the
  // warm-up reuse the same pages, so the timings measure the library.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, -1);
  usysbench::RunConfig cfg;
  cfg.out_dir = ".";
  std::string commit = "unknown";
  std::string digest = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = val;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && cfg.seconds > 0.0;
    } else if (arg == "--trace") {
      have_trace = val == "0" || val == "1";
      cfg.trace = val == "1";
    } else if (arg == "--size") {
      if (val != "full" && val != "small") return usage("--size is full or small");
      cfg.size = val == "full" ? usysbench::Size::full : usysbench::Size::small;
    } else if (arg == "--out-dir") {
      cfg.out_dir = val;
    } else if (arg == "--commit") {
      commit = val;
    } else if (arg == "--source-digest") {
      digest = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds and --trace are required");

  Report (*run)(const usysbench::RunConfig&, usysbench::Tracer&) = nullptr;
  if (cfg.workload == "fig3_hdl") run = usysbench::run_fig3_hdl;
  if (cfg.workload == "array_tran_1k") run = usysbench::run_array_tran;
  if (cfg.workload == "array_op_20k") run = usysbench::run_array_op;
  if (cfg.workload == "mc_server") run = usysbench::run_mc_server;
  if (run == nullptr) return usage(("unknown workload '" + cfg.workload + "'").c_str());
  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);

  // The stamp: which machine, build and input a result came from.
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const std::string stamp =
      "{\"workload\":" + json_str(cfg.workload) + ",\"seed\":" + std::to_string(cfg.seed) +
      ",\"size\":" + json_str(cfg.size == usysbench::Size::full ? "full" : "small") +
      ",\"trace\":" + (cfg.trace ? "true" : "false") +
      ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ",\"l3_bytes\":" + std::to_string(l3 > 0 ? l3 : 0) +
      ",\"build_type\":" + json_str(USYSBENCH_BUILD_TYPE) +
      ",\"compiler\":" + json_str(USYSBENCH_COMPILER) + ",\"git_commit\":" + json_str(commit) +
      ",\"source_digest\":" + json_str(digest) + "}";
  std::printf("usysbench stamp %s\n", stamp.c_str());
  std::fflush(stdout);

  usysbench::Tracer tracer(cfg.trace);
  const Report report = run(cfg, tracer);

  const std::vector<const char*>& names = cfg.trace ? kPerLayer : kEndToEnd;
  std::string metrics;
  std::string full = "{";  // every metric the run produced, with sample counts
  bool complete = true;
  for (const char* name : names) {
    const auto it = report.metrics.find(name);
    if (it == report.metrics.end()) {
      std::fprintf(stderr, "usysbench: metric %s was not produced\n", name);
      complete = false;
      continue;
    }
    if (!metrics.empty()) metrics += ',';
    metrics += json_str(name) + ":{\"value\":" + json_num(it->second.value) +
               ",\"unit\":" + json_str(it->second.unit) + "}";
  }
  for (const auto& [name, m] : report.metrics) {
    std::printf("  %-32s %14.6g %-8s", name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::printf(" (n=%ld)", m.samples);
    std::printf("\n");
    if (full.size() > 1) full += ',';
    full += json_str(name) + ":{\"value\":" + json_num(m.value) + ",\"unit\":" +
            json_str(m.unit) + ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  full += "}";
  const double error_rate =
      report.attempted > 0 ? static_cast<double>(report.failed) / report.attempted : 1.0;
  std::printf("  %-32s %14.6g %-8s (%ld of %ld ops)\n", "error_rate", error_rate, "fraction",
              report.failed, report.attempted);
  for (const std::string& p : report.check_failures)
    std::fprintf(stderr, "usysbench: check failed: %s\n", p.c_str());

  const std::string tag = cfg.workload + "-seed" + std::to_string(cfg.seed) +
                          (cfg.trace ? "-trace" : "");
  std::ofstream(cfg.out_dir + "/result-" + tag + ".json")
      << "{\"stamp\":" << stamp << ",\"attempted\":" << report.attempted
      << ",\"failed\":" << report.failed << ",\"error_rate\":" << json_num(error_rate)
      << ",\"metrics\":" << full << "}\n";
  if (cfg.trace) {
    const std::string path = cfg.out_dir + "/trace-" + tag + ".json";
    if (!tracer.write_chrome(path, stamp)) {
      std::fprintf(stderr, "usysbench: cannot write %s\n", path.c_str());
      complete = false;
    } else {
      std::printf("  trace written to %s\n", path.c_str());
    }
  }

  const bool correct = complete && report.failed == 0 && report.attempted > 0;
  std::printf("{\"correct\":%s,\"attempted\":%ld,\"failed\":%ld,\"metrics\":{%s}}\n",
              correct ? "true" : "false", report.attempted, report.failed, metrics.c_str());
  return correct ? 0 : 1;
}
