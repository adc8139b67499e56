// Shared vocabulary of the usysbench program: the in-memory span tracer,
// order statistics, the per-run report, and the workload entry points.
//
// The program times the usys library's public entry points from outside.
// Every span is recorded here, in the benchmark's own files, around one call
// into one layer; nothing inside the library is instrumented.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace usysbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One closed span. Times are microseconds since the tracer's epoch; `calls`
/// is how many identical calls the span covers (kernel spans batch short
/// calls so clock reads stay negligible against the work).
struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  ///< index of the enclosing span on the same thread
  long job = -1;    ///< job id shared by every span of one job
  int tid = 0;      ///< 0 = main thread, 1.. = client threads
  long calls = 1;
};

/// Keeps spans in memory (thread-safe) and writes them out as Chrome
/// trace-event JSON at exit. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  /// Opens a span and returns its index (-1 when disabled).
  int begin(std::string_view name, long job, int tid);
  /// Closes span `id`, recording how many calls it covered.
  void end(int id, long calls = 1);

  /// Per-call durations, in milliseconds, of every span named `name`.
  std::vector<double> per_call_ms(std::string_view name) const;

  /// Writes {"traceEvents":[...],"metadata":{...}}; `metadata_json` must be
  /// a JSON object. False when the file cannot be written.
  bool write_chrome(const std::string& path, const std::string& metadata_json) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;  ///< guards spans_ and open_
  std::vector<SpanRecord> spans_;
  std::map<int, std::vector<int>> open_;  ///< tid -> stack of open span ids
};

/// RAII span; `calls(n)` sets the call count recorded at close.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name, long job, int tid = 0)
      : tracer_(tracer), id_(tracer.begin(name, job, tid)) {}
  ~Span() { tracer_.end(id_, calls_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void calls(long n) noexcept { calls_ = n; }

 private:
  Tracer& tracer_;
  int id_;
  long calls_ = 1;
};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double median(std::vector<double> v);
/// Linear-interpolation quantile (type 7), q in [0, 1]; 0 for no samples.
double quantile(std::vector<double> v, double q);

/// While alive, migrates the constructing thread round robin over the CPUs
/// of its affinity mask every 10 ms, then restores the mask. On a shared
/// host each virtual CPU is slowed by its neighbours at different times;
/// spreading one job over all CPUs averages that out, which made run-to-run
/// medians several times steadier than leaving a job where it started.
class CpuRotator {
 public:
  CpuRotator();
  ~CpuRotator();
  CpuRotator(const CpuRotator&) = delete;
  CpuRotator& operator=(const CpuRotator&) = delete;

 private:
  pid_t tid_;
  std::mutex mu_;  ///< guards stop_
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// SplitMix64: the one generator every seeded input is drawn from.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  long samples = 0;  ///< sample count behind a median / percentile (0 = n/a)
};

/// What one workload run hands back to main(): metrics by name, the
/// operation counts, and the output-check verdicts.
struct Report {
  std::map<std::string, Metric> metrics;
  long attempted = 0;
  long failed = 0;  ///< failed, refused (busy) or failed an output check
  std::vector<std::string> check_failures;  ///< first few, for stderr

  void set(const std::string& name, double value, const std::string& unit,
           long samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  /// Counts one attempted operation; a non-empty `problem` fails it.
  void op(const std::string& problem = "");
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Input size: `full` is the benchmark; `small` keeps every code path and
/// output check but shrinks the circuits so the benchmark's own tests run
/// in seconds.
enum class Size { full, small };

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::full;
  std::string out_dir;  ///< result and trace files, the mc_server socket
};

/// Each runs one workload: the untraced pass (end-to-end metrics) when
/// cfg.trace is false; otherwise an untraced reference pass, then the
/// traced pass (per-layer metrics, trace.overhead_pct).
Report run_fig3_hdl(const RunConfig& cfg, Tracer& tracer);
Report run_array_tran(const RunConfig& cfg, Tracer& tracer);
Report run_array_op(const RunConfig& cfg, Tracer& tracer);
Report run_mc_server(const RunConfig& cfg, Tracer& tracer);

}  // namespace usysbench
