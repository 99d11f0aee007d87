// High-traffic serving workload for the analysis daemon (DESIGN.md §11).
//
// Replays a mixed batch of protocol requests — analyze on the paper
// kernels (stencils, GFMC, Green-Gauss, indirect gather, LBM), racecheck
// on the racy mutants, lint, stats, plus a family of localized-edit
// gather variants (the same kernel with a shifting constant offset, the
// serving analogue of bench/incremental's edited phase) — against an
// in-process AnalysisServer, from several concurrent client threads.
//
// Two phases over one persistent store directory:
//
//   cold  fresh daemon, empty store: every task is proven and persisted;
//   warm  fresh daemon, populated store: repeated kernels splice from
//         disk into the shared memory layer and every later repetition
//         hits memory.
//
// Reports throughput, per-request latency percentiles (p50/p95/p99), and
// the task-level cache hit rate per phase into BENCH_serve.json. The warm
// phase must reach a >= 90% analyze-task hit rate and every response must
// come back ok — either failure exits nonzero (the CI serve-smoke job
// keys off this).
//
//   bench/serve [--smoke]   (--smoke shrinks kernel sizes, not the
//                            request count: both modes replay >= 200)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "kernels/gfmc.h"
#include "kernels/greengauss.h"
#include "kernels/indirect.h"
#include "kernels/lbm.h"
#include "kernels/mutants.h"
#include "kernels/stencil.h"
#include "server/json.h"
#include "server/server.h"
#include "support/diagnostics.h"
#include "support/percentile.h"

using namespace formad;
using server::JsonValue;

namespace {

struct WorkItem {
  std::string frame;
  std::string what;  // label for failure messages
};

std::string analyzeFrame(const kernels::KernelSpec& spec, int id) {
  JsonValue req = JsonValue::object();
  req.set("id", JsonValue::integer(id));
  req.set("op", JsonValue::str("analyze"));
  req.set("source", JsonValue::str(spec.source));
  JsonValue indeps = JsonValue::array();
  for (const auto& v : spec.independents) indeps.push(JsonValue::str(v));
  req.set("independents", std::move(indeps));
  JsonValue deps = JsonValue::array();
  for (const auto& v : spec.dependents) deps.push(JsonValue::str(v));
  req.set("dependents", std::move(deps));
  return req.dump();
}

std::string racecheckFrame(const kernels::KernelSpec& spec, int id) {
  JsonValue req = JsonValue::object();
  req.set("id", JsonValue::integer(id));
  req.set("op", JsonValue::str("racecheck"));
  req.set("source", JsonValue::str(spec.source));
  return req.dump();
}

std::string lintFrame(const kernels::KernelSpec& spec, int id) {
  JsonValue req = JsonValue::object();
  req.set("id", JsonValue::integer(id));
  req.set("op", JsonValue::str("lint"));
  req.set("source", JsonValue::str(spec.source));
  return req.dump();
}

std::string statsFrame(int id) {
  JsonValue req = JsonValue::object();
  req.set("id", JsonValue::integer(id));
  req.set("op", JsonValue::str("stats"));
  return req.dump();
}

/// The localized-edit family: one gather kernel per constant offset. Each
/// offset is distinct content (distinct task fingerprints), so the cold
/// phase proves each once; repetitions within and across phases hit.
kernels::KernelSpec gatherVariant(int offset) {
  kernels::KernelSpec spec;
  spec.name = "gather_off" + std::to_string(offset);
  spec.source =
      "kernel " + spec.name +
      "(n: int in, x: real[] in, y: real[] inout) {\n"
      "  parallel for i = 0 : n shared(y, x) {\n"
      "    y[i] = y[i] + x[i + " + std::to_string(offset) + "];\n"
      "  }\n"
      "}\n";
  spec.independents = {"x"};
  spec.dependents = {"y"};
  return spec;
}

/// One round of the mixed workload (17 requests). `round` seeds ids only.
void appendRound(std::vector<WorkItem>& out, int round, bool smoke) {
  int id = round * 100;
  auto add = [&](std::string frame, const std::string& what) {
    out.push_back(WorkItem{std::move(frame), what});
  };
  // Paper kernels under analyze.
  add(analyzeFrame(kernels::stencilSpec(1), ++id), "analyze stencil1");
  add(analyzeFrame(kernels::stencilSpec(smoke ? 2 : 4), ++id),
      "analyze stencil_large");
  add(analyzeFrame(kernels::gfmcSplitSpec(), ++id), "analyze gfmc_split");
  add(analyzeFrame(kernels::gfmcFusedSpec(), ++id), "analyze gfmc_fused");
  add(analyzeFrame(kernels::greenGaussSpec(), ++id), "analyze greengauss");
  add(analyzeFrame(kernels::indirectSpec(), ++id), "analyze indirect");
  if (!smoke) add(analyzeFrame(kernels::lbmSpec(), ++id), "analyze lbm");
  // Localized-edit variants: four offsets per round.
  for (int off = 0; off < 4; ++off)
    add(analyzeFrame(gatherVariant(off), ++id),
        "analyze gather_off" + std::to_string(off));
  // Racecheck on the racy mutants (and one clean kernel).
  add(racecheckFrame(kernels::stencilRacySpec(), ++id),
      "racecheck stencil_racy");
  add(racecheckFrame(kernels::gatherRacySpec(), ++id),
      "racecheck gather_racy");
  add(racecheckFrame(kernels::sumRacySpec(), ++id), "racecheck sum_racy");
  add(racecheckFrame(kernels::stencilSpec(1), ++id), "racecheck stencil1");
  // Lint + stats round out the mix.
  add(lintFrame(kernels::greenGaussSpec(), ++id), "lint greengauss");
  add(statsFrame(++id), "stats");
}

using support::percentileOf;

struct PhaseStats {
  double wallSeconds = 0;
  std::vector<double> latenciesMs;
  long long failures = 0;
  double taskHitRate = 0;
  long long taskMemoryHits = 0;

  [[nodiscard]] double percentile(double p) const {
    return percentileOf(latenciesMs, p);
  }
};

/// Replays the workload from `clients` threads against a fresh daemon on
/// `cacheDir`, checking every response parses and reports ok.
PhaseStats runPhase(const std::vector<WorkItem>& work, int clients,
                    int sessions, const std::string& cacheDir) {
  server::ServeOptions opts;
  opts.sessions = sessions;
  opts.analysisThreads = 1;
  opts.cacheDir = cacheDir;
  server::AnalysisServer daemon(opts);

  PhaseStats stats;
  stats.latenciesMs.resize(work.size(), 0.0);
  std::vector<long long> failures(static_cast<size_t>(clients), 0);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Client c takes every clients-th request: all clients interleave
      // over the same mixed stream.
      for (size_t i = static_cast<size_t>(c); i < work.size();
           i += static_cast<size_t>(clients)) {
        const auto s0 = std::chrono::steady_clock::now();
        const std::string line = daemon.process(work[i].frame);
        const auto s1 = std::chrono::steady_clock::now();
        stats.latenciesMs[i] =
            std::chrono::duration<double, std::milli>(s1 - s0).count();
        try {
          JsonValue resp = server::parseJson(line);
          const JsonValue* ok = resp.find("ok");
          if (ok == nullptr || ok->kind() != JsonValue::Kind::Bool ||
              !ok->asBool()) {
            ++failures[static_cast<size_t>(c)];
            std::cerr << "FAIL " << work[i].what << ": " << line << "\n";
          }
        } catch (const Error& e) {
          ++failures[static_cast<size_t>(c)];
          std::cerr << "FAIL " << work[i].what
                    << ": unparseable response: " << e.what() << "\n";
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();
  stats.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
  for (long long f : failures) stats.failures += f;

  const smt::PersistentVerdictStore::Stats s = daemon.store().stats();
  const long long lookups = s.taskHits + s.taskMisses;
  stats.taskHitRate =
      lookups == 0 ? 0.0
                   : static_cast<double>(s.taskHits) /
                         static_cast<double>(lookups);
  stats.taskMemoryHits = s.taskMemoryHits;
  return stats;
}

// ------------------------------------------------ contention section
//
// K clients race the SAME cold kernel through a shared-pool daemon while
// a lint/stats background churns the other dispatch threads (DESIGN.md
// §12). Single-flight must collapse the duplicate proofs: across every
// racing client and round, the store performs exactly as many fresh task
// evaluations as ONE single-session cold run — everything else joins
// in-flight work or hits the shared memory layer.

struct ContentionStats {
  double wallSeconds = 0;
  std::vector<double> analyzeLatenciesMs;  // the racing analyzes only
  long long failures = 0;
  long long taskStores = 0;
  long long taskHits = 0;
  long long flightClaims = 0;
  long long flightJoins = 0;
  long long flightUnclaims = 0;
  double dedupRate = 0;  // duplicates absorbed / duplicate opportunities
};

/// One single-session daemon analyzing `hot` once: the fresh-work
/// reference the contention floor is measured against.
long long referenceTaskStores(const kernels::KernelSpec& hot) {
  server::ServeOptions opts;
  opts.sessions = 1;
  server::AnalysisServer daemon(opts);
  const std::string line = daemon.process(analyzeFrame(hot, 1));
  JsonValue resp = server::parseJson(line);
  const JsonValue* ok = resp.find("ok");
  if (ok == nullptr || !ok->asBool()) {
    std::cerr << "FAIL contention reference: " << line << "\n";
    return -1;
  }
  return daemon.store().stats().taskStores;
}

ContentionStats runContention(const kernels::KernelSpec& hot, int clients,
                              int rounds) {
  server::ServeOptions opts;
  opts.sessions = clients;  // one dispatch thread per racing client
  opts.analysisThreads = 0;
  server::AnalysisServer daemon(opts);

  ContentionStats stats;
  stats.analyzeLatenciesMs.resize(
      static_cast<size_t>(clients) * static_cast<size_t>(rounds), 0.0);
  std::vector<long long> failures(static_cast<size_t>(clients), 0);
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c, round] {
        auto check = [&](const std::string& line, const char* what) {
          try {
            JsonValue resp = server::parseJson(line);
            const JsonValue* ok = resp.find("ok");
            if (ok == nullptr ||
                ok->kind() != JsonValue::Kind::Bool ||
                !ok->asBool()) {
              ++failures[static_cast<size_t>(c)];
              std::cerr << "FAIL contention " << what << ": " << line
                        << "\n";
            }
          } catch (const Error& e) {
            ++failures[static_cast<size_t>(c)];
            std::cerr << "FAIL contention " << what
                      << ": unparseable response: " << e.what() << "\n";
          }
        };
        const int id = round * 1000 + c * 10;
        const auto s0 = std::chrono::steady_clock::now();
        const std::string line = daemon.process(analyzeFrame(hot, id));
        const auto s1 = std::chrono::steady_clock::now();
        stats.analyzeLatenciesMs[static_cast<size_t>(round) *
                                     static_cast<size_t>(clients) +
                                 static_cast<size_t>(c)] =
            std::chrono::duration<double, std::milli>(s1 - s0).count();
        check(line, "analyze");
        // Mixed background on the same dispatch threads: lint + stats
        // churn dispatch without touching the verdict store, so the
        // store-level accounting below stays exact.
        check(daemon.process(lintFrame(kernels::greenGaussSpec(), id + 1)),
              "lint");
        check(daemon.process(statsFrame(id + 2)), "stats");
      });
    }
    for (auto& t : threads) t.join();
  }
  const auto t1 = std::chrono::steady_clock::now();
  stats.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
  for (long long f : failures) stats.failures += f;

  const smt::PersistentVerdictStore::Stats s = daemon.store().stats();
  stats.taskStores = s.taskStores;
  stats.taskHits = s.taskHits;
  stats.flightClaims = s.flightClaims;
  stats.flightJoins = s.flightJoins;
  stats.flightUnclaims = s.flightUnclaims;
  // Duplicate opportunities: every task lookup beyond the fresh ones.
  const long long lookups = s.taskHits + s.taskMisses;
  const long long duplicates = lookups - s.taskStores;
  stats.dedupRate =
      duplicates <= 0 ? 1.0
                      : static_cast<double>(s.taskHits + s.flightJoins) /
                            static_cast<double>(duplicates);
  return stats;
}

JsonValue contentionJson(const ContentionStats& s, int clients, int rounds,
                         long long refTaskStores) {
  JsonValue j = JsonValue::object();
  j.set("clients", JsonValue::integer(clients));
  j.set("rounds", JsonValue::integer(rounds));
  j.set("wall_s", JsonValue::number(s.wallSeconds));
  JsonValue lat = JsonValue::object();
  lat.set("p50", JsonValue::number(percentileOf(s.analyzeLatenciesMs, 50)));
  lat.set("p95", JsonValue::number(percentileOf(s.analyzeLatenciesMs, 95)));
  lat.set("p99", JsonValue::number(percentileOf(s.analyzeLatenciesMs, 99)));
  j.set("analyze_latency_ms", std::move(lat));
  j.set("task_stores", JsonValue::integer(s.taskStores));
  j.set("reference_task_stores", JsonValue::integer(refTaskStores));
  j.set("task_hits", JsonValue::integer(s.taskHits));
  j.set("flight_claims", JsonValue::integer(s.flightClaims));
  j.set("flight_joins", JsonValue::integer(s.flightJoins));
  j.set("flight_unclaims", JsonValue::integer(s.flightUnclaims));
  j.set("dedup_rate", JsonValue::number(s.dedupRate));
  j.set("failures", JsonValue::integer(s.failures));
  return j;
}

JsonValue phaseJson(const std::string& name, const PhaseStats& s,
                    size_t requests) {
  JsonValue j = JsonValue::object();
  j.set("phase", JsonValue::str(name));
  j.set("requests", JsonValue::integer(static_cast<long long>(requests)));
  j.set("wall_s", JsonValue::number(s.wallSeconds));
  j.set("throughput_rps",
        JsonValue::number(s.wallSeconds > 0
                             ? static_cast<double>(requests) / s.wallSeconds
                             : 0));
  JsonValue lat = JsonValue::object();
  lat.set("p50", JsonValue::number(s.percentile(50)));
  lat.set("p95", JsonValue::number(s.percentile(95)));
  lat.set("p99", JsonValue::number(s.percentile(99)));
  j.set("latency_ms", std::move(lat));
  j.set("task_hit_rate", JsonValue::number(s.taskHitRate));
  j.set("task_memory_hits", JsonValue::integer(s.taskMemoryHits));
  j.set("failures", JsonValue::integer(s.failures));
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--smoke") smoke = true;

  const int kRounds = 13;  // 13 rounds x >= 16 requests/round >= 208
  const int kClients = 4;
  const int kSessions = 2;

  std::vector<WorkItem> work;
  for (int round = 0; round < kRounds; ++round)
    appendRound(work, round, smoke);
  std::cout << "serve workload: " << work.size() << " requests ("
            << kRounds << " rounds), " << kClients << " clients, "
            << kSessions << " sessions" << (smoke ? ", smoke" : "") << "\n";

  const std::string cacheDir =
      (std::filesystem::temp_directory_path() / "formad_bench_serve_store")
          .string();
  std::filesystem::remove_all(cacheDir);

  const PhaseStats cold = runPhase(work, kClients, kSessions, cacheDir);
  const PhaseStats warm = runPhase(work, kClients, kSessions, cacheDir);
  std::filesystem::remove_all(cacheDir);

  // Contention: racing identical cold analyzes + mixed background. Smoke
  // shrinks the kernel and the fan-out, not the shape of the check.
  const int kContClients = smoke ? 4 : 8;
  const int kContRounds = smoke ? 2 : 3;
  const kernels::KernelSpec hot = kernels::stencilSpec(smoke ? 2 : 4);
  std::cout << "contention: " << kContClients << " clients x "
            << kContRounds << " rounds, kernel " << hot.name << "\n";
  const long long refTaskStores = referenceTaskStores(hot);
  const ContentionStats cont =
      runContention(hot, kContClients, kContRounds);

  for (const auto* phase : {&cold, &warm}) {
    const bool isCold = phase == &cold;
    std::printf(
        "%-5s %4zu req  %7.2f req/s  p50 %6.2f ms  p95 %6.2f ms  p99 %6.2f "
        "ms  task hit rate %.3f  failures %lld\n",
        isCold ? "cold" : "warm", work.size(),
        phase->wallSeconds > 0
            ? static_cast<double>(work.size()) / phase->wallSeconds
            : 0,
        phase->percentile(50), phase->percentile(95), phase->percentile(99),
        phase->taskHitRate, phase->failures);
  }
  std::printf(
      "cont  %4zu req  p50 %6.2f ms  p95 %6.2f ms  p99 %6.2f ms  "
      "fresh %lld/%lld  joins %lld  hits %lld  dedup %.3f  failures %lld\n",
      cont.analyzeLatenciesMs.size(), percentileOf(cont.analyzeLatenciesMs, 50),
      percentileOf(cont.analyzeLatenciesMs, 95),
      percentileOf(cont.analyzeLatenciesMs, 99), cont.taskStores,
      refTaskStores, cont.flightJoins, cont.taskHits, cont.dedupRate,
      cont.failures);

  JsonValue body = JsonValue::object();
  body.set("smoke", JsonValue::boolean(smoke));
  body.set("clients", JsonValue::integer(kClients));
  body.set("sessions", JsonValue::integer(kSessions));
  JsonValue phases = JsonValue::array();
  phases.push(phaseJson("cold", cold, work.size()));
  phases.push(phaseJson("warm", warm, work.size()));
  body.set("phases", std::move(phases));
  body.set("contention",
           contentionJson(cont, kContClients, kContRounds, refTaskStores));
  bench::writeBenchFile("serve", body);

  bool ok = true;
  if (cold.failures + warm.failures > 0) {
    std::cout << "FAIL: " << (cold.failures + warm.failures)
              << " request(s) did not come back ok\n";
    ok = false;
  }
  if (warm.taskHitRate < 0.9) {
    std::cout << "FAIL: warm task hit rate " << warm.taskHitRate
              << " below the 0.9 floor\n";
    ok = false;
  }
  if (work.size() < 200) {
    std::cout << "FAIL: workload shrank below 200 requests\n";
    ok = false;
  }
  // Contention floors: no failures, and dedup must be EFFECTIVE — the
  // racing clients' fresh task work collapses to exactly one cold run.
  if (refTaskStores < 0 || cont.failures > 0) {
    std::cout << "FAIL: contention section had failing requests\n";
    ok = false;
  }
  if (cont.taskStores != refTaskStores) {
    std::cout << "FAIL: contention performed " << cont.taskStores
              << " fresh task evaluations; single-flight floor is "
              << refTaskStores << " (one cold run)\n";
    ok = false;
  }
  if (cont.taskHits + cont.flightJoins <= 0) {
    std::cout << "FAIL: contention absorbed no duplicates "
              << "(joins + hits == 0)\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
