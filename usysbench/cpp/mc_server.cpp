// mc_server: an in-process SimServer (2 workers) driven by 2 closed-loop
// client connections over its Unix socket, with a seeded request mix on one
// TRANSARRAY .op topology.
//
// Request classes (server/protocol.hpp):
//   cold   — a `run` whose text carries a new drive value: new hash, same
//            topology, so the server parses, binds and orders from scratch;
//   delta  — a `run` of the client's latest cold text with a `set` override
//            of the drive back to its previous cold value, `no_cache`: the
//            warm engine's rebind path;
//   replay — an exact repeat of the client's latest cold request: a
//            result-cache hit;
//   mc     — a `sweep` op of normal(gap) x uniform(vdrive) draws with a
//            `.measure`: the sweep fabric and the stats distillation.
// Each client draws blocks of 20 requests holding exactly kMix of each
// class in seeded order, so the mix is the same for every seed. Cold sits
// at ranks 35-90% of the latency distribution and mc at 90-100%, so p50
// falls inside the cold class and p95 inside the mc class.
//
// The schedule keeps every cache outcome independent of how the two
// clients interleave: replay and delta only target the client's own recent
// colds, which neither cache can have dropped (result cache 32 entries,
// engine cache 8 warm + 8 cooled), and clients never share a hash. So the
// server's counters repeat exactly for a fixed seed and request count.
#include <unistd.h>

#include <array>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <thread>

#include "common/json.hpp"
#include "common/socket.hpp"
#include "layers.hpp"
#include "netlists.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "spice/stats.hpp"
#include "spice/sweep.hpp"

namespace usysbench {

namespace api = usys::api;
namespace spice = usys::spice;
namespace srv = usys::server;

namespace {

enum class Kind { cold, delta, replay, mc };
constexpr const char* kKindSpan[] = {"server.cold", "server.delta", "server.replay",
                                     "server.mc"};
constexpr int kMix[] = {11, 2, 5, 2};  // per block of 20, indexed by Kind
constexpr int kClients = 2;
constexpr int kWarmupColds = 2;  ///< per client, before the timed window
constexpr int kMcDraws = 4;

/// The frames of one response that the checks and metrics read.
struct Response {
  bool done = false;  ///< a done frame arrived
  bool ok = false;
  bool busy = false;
  double elapsed_ms = 0.0;  ///< server-side, from enqueue to done
  double latency_ms = 0.0;  ///< client-side, connect to end of stream
  std::vector<std::string> series;  ///< series / rows / end_series, verbatim
  std::string sweep_stats;          ///< the sweep_stats frame, verbatim
  std::string error;
};

std::string frame_type(const std::string& line) {
  static const std::string key = "\"frame\":\"";
  const auto p = line.find(key);
  if (p == std::string::npos) return "";
  const auto q = line.find('"', p + key.size());
  return q == std::string::npos ? "" : line.substr(p + key.size(), q - p - key.size());
}

Response submit(const std::string& socket_path, const srv::Request& req) {
  Response r;
  const auto t0 = Clock::now();
  usys::UnixConn conn = usys::UnixConn::connect_to(socket_path);
  if (!conn.valid() || !conn.write_all(srv::build_request(req) + "\n")) {
    r.error = "cannot reach the server";
    return r;
  }
  // Reading to end of stream, not just to the done frame: the server stores
  // a result for replay before it closes the connection.
  std::string line;
  while (conn.read_line(line, 120000)) {
    const std::string type = frame_type(line);
    if (type == "series" || type == "rows" || type == "end_series") {
      r.series.push_back(line);
    } else if (type == "sweep_stats") {
      r.sweep_stats = line;
    } else if (type == "done") {
      const auto v = usys::json_parse(line);
      r.done = v.has_value();
      r.ok = v && v->get_bool("ok");
      r.elapsed_ms = v ? v->get_number("elapsed_ms") : 0.0;
    } else if (type == "busy") {
      r.busy = true;
    } else if (type == "error") {
      r.error = line;
    }
  }
  r.latency_ms = ms_between(t0, Clock::now());
  return r;
}

/// Value of `column` in the single row of an .op response; nullopt when the
/// frames do not have that shape.
std::optional<double> op_value(const std::vector<std::string>& series, const std::string& column) {
  if (series.size() < 2) return std::nullopt;
  const auto head = usys::json_parse(series[0]);
  const auto rows = usys::json_parse(series[1]);
  if (!head || !rows) return std::nullopt;
  const usys::JsonValue* cols = head->find("columns");
  const usys::JsonValue* data = rows->find("data");
  if (cols == nullptr || data == nullptr || data->items().empty()) return std::nullopt;
  const auto& row = data->items()[0].items();
  for (std::size_t i = 0; i < cols->items().size() && i < row.size(); ++i)
    if (cols->items()[i].as_string() == column) return row[i].as_number();
  return std::nullopt;
}

struct Cold {
  std::string drive;
  srv::Request request;
  std::vector<std::string> series;
};

/// One closed-loop client: its seeded schedule, its recent colds, and the
/// log of what it measured.
class Client {
 public:
  Client(std::uint64_t seed, int index, int cells)
      : rng_(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(index) + 1),
        index_(index),
        cells_(cells) {
    SeedRng base(seed ^ 0x5eedull);
    drive_offset_uv_ = static_cast<long>(base.below(500000));
    for (auto& s : mc_seeds_) s = std::to_string(rng_.below(1000000000ull));
  }

  Kind next_kind() {
    if (block_.empty()) {
      for (int k = 0; k < 4; ++k) block_.insert(block_.end(), kMix[k], static_cast<Kind>(k));
      for (std::size_t i = block_.size() - 1; i > 0; --i)
        std::swap(block_[i], block_[rng_.below(i + 1)]);
    }
    const Kind k = block_.back();
    block_.pop_back();
    return k;
  }

  /// `kind`, or cold when replay/delta have no two earlier colds to target
  /// (only after a failed warm-up cold).
  Kind usable(Kind kind) const {
    return (kind == Kind::replay || kind == Kind::delta) && history_.size() < 2 ? Kind::cold
                                                                                 : kind;
  }

  srv::Request build(Kind kind) {
    srv::Request req;
    switch (kind) {
      case Kind::cold: {
        // Distinct per client and request, so every cold is a new hash.
        const long uv = 4000000 + drive_offset_uv_ + index_ + kClients * colds_++;
        char drive[32];
        std::snprintf(drive, sizeof drive, "%ld.%06ld", uv / 1000000, uv % 1000000);
        pending_drive_ = drive;
        req.netlist = mc_run_netlist(cells_, drive);
        break;
      }
      case Kind::replay:
        req = history_.back().request;
        break;
      case Kind::delta:
        req = history_.back().request;
        req.set_specs = {"Vd.dc=" + history_.front().drive};
        req.no_cache = true;
        break;
      case Kind::mc:
        req.op = srv::Request::Op::sweep;
        req.netlist = mc_sweep_netlist(cells_);
        req.mc = kMcDraws;
        req.seed = mc_seeds_[rng_.below(mc_seeds_.size())];
        break;
    }
    return req;
  }

  /// Output check of one response; "" when right. Records colds.
  std::string check(Kind kind, const srv::Request& req, const Response& r) {
    if (r.busy) return "busy";
    if (!r.done || !r.ok) return "request failed: " + (r.error.empty() ? "no done frame" : r.error);
    switch (kind) {
      case Kind::cold: {
        const auto bus = op_value(r.series, "bus");
        const double want = std::stod(pending_drive_);
        history_.push_back({pending_drive_, req, r.series});
        if (history_.size() > 2) history_.pop_front();
        if (!bus || !(std::abs(*bus - want) <= 1e-9 * want))
          return "cold: bus voltage does not match the drive " + pending_drive_;
        return "";
      }
      case Kind::replay:
        return r.series == history_.back().series ? "" : "replay: series differ from the cold run";
      case Kind::delta:
        return r.series == history_.front().series ? ""
                                                   : "delta: series differ from the cold run";
      case Kind::mc: {
        if (r.sweep_stats.empty()) return "mc: no sweep_stats frame";
        auto [it, fresh] = sweep_stats_.emplace(req.seed, r.sweep_stats);
        return fresh || it->second == r.sweep_stats ? "" : "mc: sweep_stats differ for one seed";
      }
    }
    return "";
  }

  std::vector<double> latency_ms, queue_wait_ms;
  std::vector<std::string> problems;  ///< one entry per op, "" = ok
  long timed = 0;                     ///< requests completed in the window
  Clock::time_point last_done;

 private:
  SeedRng rng_;
  int index_;
  int cells_;
  long drive_offset_uv_ = 0;
  long colds_ = 0;
  std::vector<Kind> block_;
  std::deque<Cold> history_;  ///< the client's last two colds, oldest first
  std::string pending_drive_;
  std::array<std::string, 3> mc_seeds_;
  std::map<std::string, std::string> sweep_stats_;  ///< mc seed -> frame
};

struct SessionPlan {
  Size size = Size::full;
  std::uint64_t seed = 0;
  /// Timed windows of client traffic on one server. Before each, the
  /// caller's thread runs `between` while the clients wait.
  int rounds = 1;
  std::function<void()> between;
  double seconds = 0.0;         ///< > 0: each window lasts this long
  int requests_per_client = 0;  ///< otherwise: this many requests each, one window
  std::string socket_path;
};

struct SessionResult {
  std::vector<double> latency_ms, queue_wait_ms;
  long requests = 0;
  double elapsed_s = 0.0;  ///< summed over the windows
  srv::StatsSnapshot stats;
};

SessionResult serve(const SessionPlan& plan, Tracer& tracer, Report& report) {
  SessionResult out;
  srv::ServerOptions opts;
  opts.socket_path = plan.socket_path;
  opts.workers = 2;
  srv::SimServer server(opts);
  std::string error;
  if (!server.start(&error)) {
    report.op("server start failed: " + error);
    return out;
  }
  const int cells = mc_cells(plan.size);
  std::vector<Client> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(plan.seed, c, cells);
  // The clients and this thread meet after the warm-ups, then at the start
  // and the end of every window.
  std::barrier sync(kClients + 1);
  Clock::time_point window_start;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client& cl = clients[static_cast<std::size_t>(c)];
      long seq = 0;
      const auto one = [&](Kind drawn, bool timed) {
        const Kind kind = cl.usable(drawn);
        const srv::Request req = cl.build(kind);
        Response r;
        {
          const Span span(tracer, kKindSpan[static_cast<int>(kind)],
                          (c + 1) * 1000000L + seq++, c + 1);
          r = submit(plan.socket_path, req);
        }
        cl.problems.push_back(cl.check(kind, req, r));
        if (!timed || !cl.problems.back().empty()) return;
        cl.latency_ms.push_back(r.latency_ms);
        cl.queue_wait_ms.push_back(r.latency_ms - r.elapsed_ms);
        ++cl.timed;
        cl.last_done = Clock::now();
      };
      for (int w = 0; w < kWarmupColds; ++w) one(Kind::cold, false);
      sync.arrive_and_wait();
      for (int round = 0; round < plan.rounds; ++round) {
        sync.arrive_and_wait();
        cl.last_done = window_start;
        if (plan.seconds > 0.0) {
          while (ms_between(window_start, Clock::now()) < plan.seconds * 1000.0)
            one(cl.next_kind(), true);
        } else {
          for (int k = 0; k < plan.requests_per_client; ++k) one(cl.next_kind(), true);
        }
        sync.arrive_and_wait();
      }
    });
  }
  sync.arrive_and_wait();
  for (int round = 0; round < plan.rounds; ++round) {
    if (plan.between) plan.between();
    window_start = Clock::now();
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    Clock::time_point end = window_start;
    for (const Client& cl : clients) end = std::max(end, cl.last_done);
    out.elapsed_s += ms_between(window_start, end) / 1000.0;
  }
  for (auto& t : threads) t.join();
  out.stats = server.stats();
  server.stop();

  for (const Client& cl : clients) {
    for (const std::string& p : cl.problems) report.op(p);
    out.latency_ms.insert(out.latency_ms.end(), cl.latency_ms.begin(), cl.latency_ms.end());
    out.queue_wait_ms.insert(out.queue_wait_ms.end(), cl.queue_wait_ms.begin(),
                             cl.queue_wait_ms.end());
    out.requests += cl.timed;
  }
  return out;
}

std::string socket_path(const RunConfig& cfg) {
  return cfg.out_dir + "/mc-" + std::to_string(::getpid()) + ".sock";
}

/// api::run_sweep_point over one mc request's draws, then the server's
/// stats distillation of their outcomes (StatsRun + sweep_stats frame).
void sweep_probe(int cells, std::uint64_t seed, Tracer& tracer, Report& report) {
  constexpr long kJob = 800000;
  const std::string text = mc_sweep_netlist(cells);
  const std::vector<spice::ParamDist> dists = spice::parse_param_dists(text);
  const std::vector<spice::MeasureSpec> measures = spice::parse_measures(text);
  spice::McOptions mc;
  mc.seed = seed;
  mc.samples = kMcDraws;
  const std::vector<spice::SweepPoint> grid = spice::mc_grid({}, dists, mc);
  std::vector<spice::SweepOutcome> outcomes;
  for (const spice::SweepPoint& p : grid) {
    const Span span(tracer, "api.run_sweep_point", kJob);
    outcomes.push_back(api::run_sweep_point(text, p, "", api::JobOptions{}, 0));
  }
  for (const auto& o : outcomes) report.op(o.ok ? "" : "sweep point failed: " + o.error);
  std::size_t bytes = 0;
  kernel_batches(tracer, "stats.distill", kJob, 5, [&] {
    spice::StatsRun run;
    run.seed_text = std::to_string(seed);
    run.total_points = static_cast<long>(grid.size());
    run.mc = kMcDraws;
    run.measures = measures;
    for (std::size_t i = 0; i < grid.size(); ++i)
      run.add_outcome(static_cast<long>(i), grid[i], outcomes[i]);
    bytes += srv::sweep_stats_frame(run).size();
  });
  if (bytes == 0) report.op("stats distill produced no frame");
}

}  // namespace

double server_probe(const RunConfig& cfg, Size size, Tracer& tracer, Report& report) {
  SessionPlan plan;
  plan.size = size;
  plan.seed = cfg.seed;
  plan.requests_per_client = size == Size::full ? 100 : 30;
  plan.socket_path = socket_path(cfg);
  const SessionResult s = serve(plan, tracer, report);
  const srv::StatsSnapshot& st = s.stats;
  const double lookups = static_cast<double>(st.parses + st.exact_hits + st.delta_hits);
  report.set("server.queue_wait_ms", median(s.queue_wait_ms), "ms",
             static_cast<long>(s.queue_wait_ms.size()));
  report.set("server.engine_hit_ratio",
             lookups > 0.0 ? static_cast<double>(st.exact_hits + st.delta_hits) / lookups : 0.0,
             "fraction");
  report.set("server.result_hit_ratio",
             lookups + static_cast<double>(st.result_hits) > 0.0
                 ? static_cast<double>(st.result_hits) / (lookups + static_cast<double>(st.result_hits))
                 : 0.0,
             "fraction");
  report.set("server.parses", static_cast<double>(st.parses), "count");
  report.set("server.symbolic_factorizations", static_cast<double>(st.symbolic_factorizations),
             "count");
  report.set("server.busy_rejected", static_cast<double>(st.busy_rejected), "count");
  sweep_probe(mc_cells(size), cfg.seed, tracer, report);
  return median(s.latency_ms);
}

Report run_mc_server(const RunConfig& cfg, Tracer& tracer) {
  Report report;
  const int cells = mc_cells(cfg.size);
  JobSpec spec;
  spec.text = mc_run_netlist(cells, "5");
  spec.check = [](api::Session& s, const api::JobResult& r) -> std::string {
    const int bus = s.circuit().node("bus");
    const double v = r.analyses.back().op.at(bus);
    return std::abs(v - 5.0) <= 5e-9 ? "" : "in-process cold job: bus voltage is not the drive";
  };

  SessionPlan plan;
  plan.size = cfg.size;
  plan.seed = cfg.seed;
  plan.socket_path = socket_path(cfg);
  if (!cfg.trace) {
    // Set-up and time to solution of one cold job come from in-process
    // jobs run between four windows of server traffic, so both sample the
    // whole run rather than one stretch of the host's varying load.
    Pass cold;
    plan.rounds = 4;
    plan.seconds = 0.75 * cfg.seconds / plan.rounds;
    plan.between = [&] {
      const Pass p = timed_pass(spec, 0.25 * cfg.seconds / plan.rounds, report);
      cold.setup_ms.insert(cold.setup_ms.end(), p.setup_ms.begin(), p.setup_ms.end());
      cold.run_ms.insert(cold.run_ms.end(), p.run_ms.begin(), p.run_ms.end());
    };
    Tracer off(false);
    const SessionResult s = serve(plan, off, report);
    const long n = static_cast<long>(s.latency_ms.size());
    report.set("setup_s", median(cold.setup_ms) / 1000.0, "s",
               static_cast<long>(cold.setup_ms.size()));
    report.set("run_s", median(cold.run_ms) / 1000.0, "s", static_cast<long>(cold.run_ms.size()));
    report.set("jobs_per_s", s.elapsed_s > 0.0 ? static_cast<double>(s.requests) / s.elapsed_s : 0.0,
               "1/s", n);
    report.set("latency_p50_ms", median(s.latency_ms), "ms", n);
    report.set("latency_p95_ms", quantile(s.latency_ms, 0.95), "ms", n);
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }

  // Traced run: an untraced reference session, the traced fixed-count
  // session with the sweep/stats probes, then one in-process cold job with
  // the layer probes on the same topology.
  plan.seconds = cfg.seconds / 3.0;
  Tracer off(false);
  const SessionResult reference = serve(plan, off, report);
  const double traced_p50 = server_probe(cfg, cfg.size, tracer, report);
  EngineCounts counts;
  double run_ms = 0.0;
  const Job job = run_job(spec, tracer, 1000);
  report.op(job.problem);
  if (job.problem.empty()) {
    counts = engine_counts_of(job.result);
    run_ms = job.run_ms;
    layer_probe(spec.text, operating_point_of(job.result), tracer, 1000, report);
  }
  hdl_probe(cfg.seed, tracer, report);
  layer_metrics(tracer, counts, run_ms, report);
  const double ref = median(reference.latency_ms);
  report.set("trace.overhead_pct", ref > 0.0 ? 100.0 * (traced_p50 - ref) / ref : 0.0, "%",
             static_cast<long>(reference.latency_ms.size()));
  return report;
}

}  // namespace usysbench
