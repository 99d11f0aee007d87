// Statistics helpers and the span tracer (see bench.h).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "bench.h"
#include "support/percentile.h"

namespace perfbench {

double median(std::vector<double> xs) {
  return formad::support::percentileOf(std::move(xs), 50);
}

double tailLatency(const std::vector<double>& xs, double& percentile) {
  const double n = static_cast<double>(xs.size());
  percentile = 50;
  for (const double p : {99.0, 95.0, 90.0, 75.0}) {
    if (n * (100.0 - p) / 100.0 >= 10.0) {
      percentile = p;
      break;
    }
  }
  return formad::support::percentileOf(xs, percentile);
}

void addLatencyMetrics(Result& r, const std::vector<double>& latenciesMs,
                       std::vector<double> doneAt, double windowSeconds) {
  const std::string samples =
      std::to_string(latenciesMs.size()) + " samples";
  r.add("latency_p50_ms", median(latenciesMs), "ms", samples);
  double p = 0;
  const double tail = tailLatency(latenciesMs, p);
  char note[64];
  std::snprintf(note, sizeof note, "p%g, %zu samples", p, latenciesMs.size());
  r.add("latency_tail_ms", tail, "ms", note);

  const auto seconds = static_cast<size_t>(windowSeconds);
  double throughput = 0;
  std::string how;
  if (seconds >= 2) {
    std::vector<double> perSecond(seconds, 0.0);
    for (const double t : doneAt)
      if (t >= 0 && t < static_cast<double>(seconds))
        perSecond[static_cast<size_t>(t)] += 1;
    throughput = median(perSecond);
    how = "median of " + std::to_string(seconds) + " one-second slices";
  } else if (windowSeconds > 0) {
    throughput = static_cast<double>(doneAt.size()) / windowSeconds;
    how = "whole window";
  }
  r.add("throughput_per_s", throughput, "1/s",
        std::to_string(doneAt.size()) + " calls, " + how);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double relDiff(double a, double b) {
  return std::fabs(a - b) /
         std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// ----------------------------------------------------------------- tracing

namespace {

thread_local long long tlsCurrentSpan = 0;

int threadIndex() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Span::Span(Tracer& tracer, const char* name, long long requestId) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  name_ = name;
  request_ = requestId;
  id_ = tracer.nextId_.fetch_add(1, std::memory_order_relaxed);
  parent_ = tlsCurrentSpan;
  tlsCurrentSpan = id_;
  start_ = nowSeconds();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const double end = nowSeconds();
  tlsCurrentSpan = parent_;
  std::lock_guard<std::mutex> lk(tracer_->mu_);
  tracer_->records_.push_back(
      Record{name_, id_, parent_, request_, threadIndex(), start_, end});
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::unordered_map<long long, double> childTime;
  for (const Record& r : records_)
    if (r.parent != 0) childTime[r.parent] += r.end - r.start;
  std::map<std::string, double> self;
  for (const Record& r : records_) {
    const auto it = childTime.find(r.id);
    self[r.name] +=
        (r.end - r.start) - (it == childTime.end() ? 0.0 : it->second);
  }
  return self;
}

bool Tracer::writeChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream out(path);
  if (!out) return false;
  double origin = 0;
  if (!records_.empty())
    origin = std::min_element(records_.begin(), records_.end(),
                              [](const Record& a, const Record& b) {
                                return a.start < b.start;
                              })
                 ->start;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                  "\"id\":%lld,\"parent\":%lld,\"request\":%lld}}",
                  i == 0 ? "" : ",", r.name, r.thread,
                  (r.start - origin) * 1e6, (r.end - r.start) * 1e6, r.id,
                  r.parent, r.request);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void finishTrace(const Options& opts, const Tracer& tracer, Result& result) {
  result.selfSeconds = tracer.selfSeconds();
  const std::filesystem::path dir =
      std::filesystem::path(opts.workDir) / "traces";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = (dir / (opts.workload + "-seed" +
                                   std::to_string(opts.seed) + ".json"))
                               .string();
  if (!tracer.writeChromeTrace(path))
    result.errors.push_back("cannot write trace file " + path);
  result.tracePath = path;
}

}  // namespace perfbench
