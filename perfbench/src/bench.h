// Shared pieces of the perfbench harness: run options, results, timing and
// statistics helpers, and the span tracer.
//
// Every workload measures the library from outside: it times calls into
// public entry points (parser, FormAD model/exploit, race checker, reverse
// builder, C backend, executor, linter, daemon) and reads counters the
// library already returns. Nothing here reaches into library internals.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (temporary stores, generated C,
  /// traces, counter baselines).
  std::string workDir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Printed beside the value in the summary (e.g. the tail percentile).
  std::string note;
};

struct Result {
  long long attempted = 0;
  long long failed = 0;
  /// Failed correctness checks and deterministic-counter drift. Any entry
  /// makes the run incorrect.
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// Work counters that must repeat exactly for the same seed.
  std::map<std::string, long long> counters;
  /// Traced runs: self seconds per span name, and the trace file written.
  std::map<std::string, double> selfSeconds;
  std::string tracePath;

  void add(std::string name, double value, std::string unit,
           std::string note = {}) {
    metrics.push_back(
        Metric{std::move(name), value, std::move(unit), std::move(note)});
  }
  /// Records a failed check; the first few are kept verbatim.
  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

[[nodiscard]] inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] double median(std::vector<double> xs);

/// The tail the benchmark reports: the highest of p99/p95/p90/p75/p50
/// that leaves at least ten samples above it. Returns the value and sets
/// `percentile`. The ladder stops at p99 so that a workload's sample count
/// stays far from the next rung on every run (a rung change between runs
/// would read as a jump in the metric).
[[nodiscard]] double tailLatency(const std::vector<double>& xs,
                                 double& percentile);

/// Appends latency_p50_ms, latency_tail_ms and throughput_per_s.
/// `doneAt` holds each completed call's finish time in seconds since the
/// window opened; throughput is the median number completed per whole
/// second of the window, which a brief stall of the host cannot move.
void addLatencyMetrics(Result& r, const std::vector<double>& latenciesMs,
                       std::vector<double> doneAt, double windowSeconds);

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peakRssMb();

/// |a - b| / max(1, |a|, |b|).
[[nodiscard]] double relDiff(double a, double b);

/// Renders seconds with enough digits for the summary table.
[[nodiscard]] std::string fmt(double v);

// ----------------------------------------------------------------- tracing

/// Records one span per public-layer call: name, start, end, parent span
/// and request id, kept in memory and written out as Chrome trace-event
/// JSON when the run ends. When disabled, opening a span is one branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  class Span {
   public:
    Span(Tracer& tracer, const char* name, long long requestId);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // null when tracing is off
    const char* name_ = nullptr;
    long long request_ = 0;
    long long id_ = 0;
    long long parent_ = 0;
    double start_ = 0;
  };

  /// Self seconds per span name: each span's duration minus the time its
  /// direct children cover.
  [[nodiscard]] std::map<std::string, double> selfSeconds() const;

  /// Writes every recorded span as Chrome trace-event JSON ("X" events,
  /// microseconds). Returns false if the file cannot be written.
  bool writeChromeTrace(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    long long id;
    long long parent;
    long long request;
    int thread;
    double start;
    double end;
  };

  const bool enabled_;
  std::atomic<long long> nextId_{1};
  mutable std::mutex mu_;
  std::vector<Record> records_;  // guarded by mu_
};

/// Ends a traced run: writes the Chrome trace to
/// <workDir>/traces/<workload>-seed<seed>.json and copies the per-layer
/// self times into `result`.
void finishTrace(const Options& opts, const Tracer& tracer, Result& result);

}  // namespace perfbench
