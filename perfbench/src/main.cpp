// perfbench: the repository benchmark.
//
//   perfbench --workload <analyze_cold|native_adjoint|serve_warm_edits>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// Prints a human-readable summary, then, as the last line of standard
// output, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics; traced runs report the
// per-layer metrics (spans around each public-layer call, self times,
// library counters) and write a Chrome trace into <dir>/traces.
//
// Deterministic work counters are compared with the previous run of the
// same binary and seed (kept in <dir>/counters); any drift is an error.
#include <sys/stat.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Mirrors "end_to_end" in BENCHMARK.json.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},  {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

std::vector<MetricSpec> layerMetrics() {
  std::vector<MetricSpec> m = {
      {"parser.parse_s", "s"},
      {"formad.model_s", "s"},
      {"formad.exploit_s", "s"},
      {"formad.model_assertions", "count"},
      {"formad.queries", "count"},
      {"smt.tier0", "count"},
      {"smt.tier1", "count"},
      {"smt.tier2_checks", "count"},
      {"smt.cache_hits", "count"},
      {"racecheck.check_s", "s"},
      {"ad.reverse_s", "s"},
      {"ad.adjoint_stmts", "count"},
      {"codegen.c_bytes", "bytes"},
      {"codegen.emit_s", "s"},
      {"codegen.cc_s", "s"},
      {"exec.reference_s", "s"},
      {"native.adjoint_s", "s"},
      {"native.guarded_adjoint_s", "s"},
      {"native.adjoint_over_primal", "ratio"},
      {"server.analyze_p50_ms", "ms"},
      {"server.racecheck_p50_ms", "ms"},
      {"server.lint_p50_ms", "ms"},
      {"store.task_hit_rate", "ratio"},
      {"store.memory_hits", "count"},
      {"store.disk_hits", "count"},
      {"store.disk_stores", "count"},
      {"store.flight_joins", "count"},
      {"pool.tasks_stolen", "count"},
      {"absint.lint_s", "s"},
      {"trace.overhead_pct", "%"},
  };
  return m;
}

/// Mirrors "per_layer" in BENCHMARK.json.
std::vector<std::pair<std::string, std::string>> perLayer() {
  std::vector<std::pair<std::string, std::string>> l;
  for (const MetricSpec& m : layerMetrics()) l.emplace_back(m.name, m.unit);
  for (const char* k : {"stencil_r1", "stencil_r8", "gfmc_split",
                        "greengauss"}) {
    const std::string p = std::string("native.") + k;
    l.emplace_back(p + ".primal_s", "s");
    l.emplace_back(p + ".formad_s", "s");
    l.emplace_back(p + ".atomic_s", "s");
    l.emplace_back(p + ".formad_scaling", "ratio");
  }
  return l;
}

/// Traced runs report the full per-layer set, in BENCHMARK.json order; a
/// layer the workload does not exercise reads 0.
void completeLayerMetrics(Result& result) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : perLayer()) {
    Metric m{name, 0.0, unit, "not exercised by this workload"};
    for (const Metric& have : result.metrics)
      if (have.name == name) m = have;
    ordered.push_back(m);
  }
  result.metrics = std::move(ordered);
}

/// Untraced runs report exactly the end-to-end set; a missing one is an
/// error in the workload.
void checkEndToEndMetrics(Result& result) {
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : kEndToEnd) {
    bool found = false;
    for (const Metric& have : result.metrics)
      if (have.name == spec.name) {
        ordered.push_back(have);
        found = true;
      }
    if (!found)
      result.errors.push_back(std::string("missing end-to-end metric ") +
                              spec.name);
  }
  result.metrics = std::move(ordered);
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Identifies this build of the benchmark, so a counter baseline is only
/// compared with runs of the same code.
std::string binaryIdentity() {
  struct stat st {};
  if (stat("/proc/self/exe", &st) != 0) return "unknown";
  return std::to_string(st.st_size) + ":" + std::to_string(st.st_mtim.tv_sec) +
         "." + std::to_string(st.st_mtim.tv_nsec);
}

/// Compares the deterministic counters with the previous run of the same
/// binary and seed, then records them. Drift is an error, not noise.
void checkCounters(const Options& opts, Result& result) {
  if (result.counters.empty()) return;
  const std::filesystem::path dir =
      std::filesystem::path(opts.workDir) / "counters";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path path =
      dir / (opts.workload + "-seed" + std::to_string(opts.seed) + ".txt");
  const std::string identity = binaryIdentity();

  std::ifstream in(path);
  std::string header;
  if (in && std::getline(in, header) && header == identity) {
    std::string name;
    long long value = 0;
    while (in >> name >> value) {
      const auto it = result.counters.find(name);
      if (it == result.counters.end()) continue;
      if (it->second != value)
        result.errors.push_back("deterministic counter drift: " + name +
                                " = " + std::to_string(it->second) +
                                ", previous run of this seed had " +
                                std::to_string(value));
    }
    return;
  }
  std::ofstream out(path);
  out << identity << "\n";
  for (const auto& [name, value] : result.counters)
    out << name << " " << value << "\n";
}

void printSummary(const Options& opts, const Result& r) {
  std::printf("perfbench %s seed %llu, %s run, %.0f s\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed),
              opts.trace ? "traced" : "untraced", opts.seconds);
  for (const Metric& m : r.metrics)
    std::printf("  %-36s %14s %-6s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str(), m.note.c_str());
  std::printf("  %-36s %14s %-6s %lld of %lld failed\n", "fail_rate",
              fmt(r.attempted > 0 ? static_cast<double>(r.failed) /
                                        static_cast<double>(r.attempted)
                                  : 1.0)
                  .c_str(),
              "ratio", r.failed, r.attempted);
  for (const auto& [name, value] : r.counters)
    std::printf("  counter %-28s %14lld\n", name.c_str(), value);
  if (opts.trace) {
    std::printf("  self time by span (s):\n");
    for (const auto& [name, s] : r.selfSeconds)
      std::printf("    %-40s %12s\n", name.c_str(), fmt(s).c_str());
    std::printf("  trace written to %s\n", r.tracePath.c_str());
  }
  for (const std::string& e : r.errors) std::printf("  ERROR %s\n", e.c_str());
}

void printJson(const Result& r) {
  std::ostringstream os;
  const bool correct = r.errors.empty() && r.failed == 0 && r.attempted > 0;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i == 0 ? "" : ", ") << jsonString(m.name)
       << ": {\"value\": " << jsonNumber(m.value)
       << ", \"unit\": " << jsonString(m.unit) << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<analyze_cold|native_adjoint|serve_warm_edits> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir>\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") opts.workload = val;
      else if (key == "--seed") opts.seed = std::stoull(val);
      else if (key == "--seconds") opts.seconds = std::stod(val);
      else if (key == "--trace") opts.trace = std::stoi(val) != 0;
      else if (key == "--workdir") opts.workDir = val;
      else return usage(("unknown flag " + key).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (opts.workDir.empty()) return usage("--workdir is required");
  if (!(opts.seconds > 0)) return usage("--seconds must be positive");

  Result result;
  try {
    if (opts.workload == "analyze_cold") runAnalyzeCold(opts, result);
    else if (opts.workload == "native_adjoint") runNativeAdjoint(opts, result);
    else if (opts.workload == "serve_warm_edits")
      runServeWarmEdits(opts, result);
    else return usage(("unknown workload " + opts.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }

  if (opts.trace)
    completeLayerMetrics(result);
  else
    checkEndToEndMetrics(result);
  checkCounters(opts, result);
  printSummary(opts, result);
  printJson(result);
  return 0;
}
