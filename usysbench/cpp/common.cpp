#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.hpp"

namespace usysbench {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

int Tracer::begin(std::string_view name, long job, int tid) {
  if (!enabled_) return -1;
  const double now = std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int>& stack = open_[tid];
  SpanRecord rec;
  rec.name = std::string(name);
  rec.start_us = now;
  rec.parent = stack.empty() ? -1 : stack.back();
  rec.job = job;
  rec.tid = tid;
  spans_.push_back(std::move(rec));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack.push_back(id);
  return id;
}

void Tracer::end(int id, long calls) {
  if (id < 0) return;
  const double now = std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord& rec = spans_[static_cast<std::size_t>(id)];
  rec.end_us = now;
  rec.calls = calls < 1 ? 1 : calls;
  std::vector<int>& stack = open_[rec.tid];
  if (!stack.empty() && stack.back() == id) stack.pop_back();
}

std::vector<double> Tracer::per_call_ms(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name)
      out.push_back((s.end_us - s.start_us) / 1000.0 / static_cast<double>(s.calls));
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path, const std::string& metadata_json) const {
  std::ofstream os(path);
  if (!os) return false;
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"usysbench\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"job\":%ld,\"calls\":%ld}}%s\n",
                  s.name.c_str(), s.start_us, s.end_us - s.start_us, s.tid, i, s.parent,
                  s.job, s.calls, i + 1 < spans_.size() ? "," : "");
    os << buf;
  }
  os << "],\"displayTimeUnit\":\"ms\",\"metadata\":" << metadata_json << "}\n";
  return static_cast<bool>(os);
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::uint64_t SeedRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

CpuRotator::CpuRotator() : tid_(gettid()) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(tid_, sizeof mask, &mask) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &mask)) cpus.push_back(c);
  if (cpus.size() < 2) return;
  thread_ = std::thread([this, mask, cpus] {
    std::unique_lock<std::mutex> lock(mu_);
    for (std::size_t k = 0; !stop_; ++k) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[k % cpus.size()], &one);
      sched_setaffinity(tid_, sizeof one, &one);
      cv_.wait_for(lock, std::chrono::milliseconds(10), [this] { return stop_; });
    }
    sched_setaffinity(tid_, sizeof mask, &mask);
  });
}

CpuRotator::~CpuRotator() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Report::op(const std::string& problem) {
  ++attempted;
  if (problem.empty()) return;
  ++failed;
  if (check_failures.size() < 5) check_failures.push_back(problem);
}

}  // namespace usysbench
