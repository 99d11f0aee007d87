// serve_warm_edits: closed loop, two client threads, against an in-process
// server::AnalysisServer (2 sessions, auto-sized shared pool) over a
// disk-backed verdict store that set-up has already warmed.
//
// A round is 16 requests in seeded order: analyze on the six Table 1
// kernels (store reads), analyze on one edit kernel at an offset no earlier
// round used (a miss that proves and persists: writes beside reads), race
// checks of the four racy mutants, three lints and two stats. Each client
// takes whole rounds and waits for every reply before sending the next
// request. Most requests are light, so the median request sits among the
// store reads and protocol round trips the workload is about; LBM's warm
// analyze and the edit miss make the tail.
//
// Oracles: every response is ok, and every report is byte-identical to the
// in-process reference (driver::analyze, racecheck::checkKernelRaces,
// absint::lintKernel at one thread, no store). Edit references are made
// after the timed window, one per offset served.
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include "absint/lint.h"
#include "formad/formad.h"
#include "kernels/gfmc.h"
#include "kernels/greengauss.h"
#include "kernels/lbm.h"
#include "kernels/mutants.h"
#include "kernels/stencil.h"
#include "parser/parser.h"
#include "pipeline.h"
#include "racecheck/racecheck.h"
#include "server/json.h"
#include "server/server.h"
#include "support/diagnostics.h"
#include "workloads.h"

namespace perfbench {

using namespace formad;
using server::JsonValue;

namespace {

constexpr int kClients = 2;
constexpr int kSessions = 2;
constexpr int kStatsPerRound = 2;

enum class Op { Analyze, Edit, Racecheck, Lint, Stats };

struct Request {
  Op op = Op::Stats;
  std::string frame;
  const std::string* reference = nullptr;  // expected report
  int offset = 0;                          // Op::Edit
};

struct Catalog {
  std::vector<kernels::KernelSpec> analyze, racecheck, lint;
  std::vector<std::string> analyzeRef, racecheckRef, lintRef;
};

JsonValue strings(const std::vector<std::string>& xs) {
  JsonValue a = JsonValue::array();
  for (const auto& x : xs) a.push(JsonValue::str(x));
  return a;
}

std::string frame(const char* op, const kernels::KernelSpec* spec,
                  long long id) {
  JsonValue req = JsonValue::object();
  req.set("id", JsonValue::integer(id));
  req.set("op", JsonValue::str(op));
  if (spec != nullptr) {
    req.set("source", JsonValue::str(spec->source));
    if (std::string(op) == "analyze") {
      req.set("independents", strings(spec->independents));
      req.set("dependents", strings(spec->dependents));
    }
  }
  return req.dump();
}

std::string analyzeReference(const kernels::KernelSpec& spec) {
  auto k = parser::parseKernel(spec.source);
  driver::DriverOptions d;
  d.analysisThreads = 1;
  return analysisReport(
      driver::analyze(*k, spec.independents, spec.dependents, d));
}

Catalog makeCatalog(Tracer& tracer) {
  Catalog c;
  c.analyze = {kernels::stencilSpec(1),  kernels::stencilSpec(8),
               kernels::gfmcSplitSpec(), kernels::gfmcFusedSpec(),
               kernels::lbmSpec(),       kernels::greenGaussSpec()};
  c.racecheck = {kernels::stencilRacySpec(), kernels::stencilStrideRacySpec(),
                 kernels::gatherRacySpec(), kernels::sumRacySpec()};
  c.lint = {kernels::greenGaussSpec(), kernels::stencilSpec(8),
            kernels::gfmcSplitSpec()};
  Tracer::Span span(tracer, "serve_warm_edits.references", 0);
  for (const auto& s : c.analyze) c.analyzeRef.push_back(analyzeReference(s));
  for (const auto& s : c.racecheck) {
    auto k = parser::parseKernel(s.source);
    c.racecheckRef.push_back(racecheck::checkKernelRaces(*k).describe());
  }
  for (const auto& s : c.lint) {
    auto k = parser::parseKernel(s.source);
    Tracer::Span span(tracer, "absint.lintKernel", 0);
    c.lintRef.push_back(absint::lintKernel(*k).render());
  }
  return c;
}

server::ServeOptions serveOptions(const std::string& dir) {
  server::ServeOptions o;
  o.sessions = kSessions;
  o.analysisThreads = 0;
  o.cacheDir = dir;
  return o;
}

/// The requests of round `round`, in seeded order.
std::vector<Request> makeRound(const Catalog& c, std::uint64_t seed,
                               int editBase, int round) {
  std::vector<Request> reqs;
  long long id = static_cast<long long>(round) * 100;
  for (size_t i = 0; i < c.analyze.size(); ++i)
    reqs.push_back({Op::Analyze, frame("analyze", &c.analyze[i], ++id),
                    &c.analyzeRef[i], 0});
  const int off = editBase + round;
  const kernels::KernelSpec edit = gatherEditSpec(off);
  reqs.push_back({Op::Edit, frame("analyze", &edit, ++id), nullptr, off});
  for (size_t i = 0; i < c.racecheck.size(); ++i)
    reqs.push_back({Op::Racecheck, frame("racecheck", &c.racecheck[i], ++id),
                    &c.racecheckRef[i], 0});
  for (size_t i = 0; i < c.lint.size(); ++i)
    reqs.push_back(
        {Op::Lint, frame("lint", &c.lint[i], ++id), &c.lintRef[i], 0});
  for (int i = 0; i < kStatsPerRound; ++i)
    reqs.push_back({Op::Stats, frame("stats", nullptr, ++id), nullptr, 0});
  std::mt19937_64 rng(seed * 7919 + static_cast<std::uint64_t>(round));
  std::shuffle(reqs.begin(), reqs.end(), rng);
  return reqs;
}

/// Per-client observations, merged after the clients join.
struct ClientLog {
  std::vector<double> latencyMs[5];  // by Op
  std::vector<std::pair<double, bool>> timed;  // latency, traced round
  std::vector<double> doneAt;  // finish time, seconds into the window
  /// Edit responses by report text (they share a few texts), checked
  /// after the window.
  std::map<std::string, std::vector<int>> editReports;
  long long attempted = 0;
  std::vector<std::string> failures;
  long long queries = 0, tier0 = 0, tier1 = 0, tier2 = 0, cached = 0;
};

long long member(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->kind() == JsonValue::Kind::Int ? v->asInt() : 0;
}

void checkResponse(const Request& req, const std::string& line,
                   ClientLog& log) {
  JsonValue resp;
  try {
    resp = server::parseJson(line);
  } catch (const Error& e) {
    log.failures.push_back(std::string("unparseable response: ") + e.what());
    return;
  }
  const JsonValue* ok = resp.find("ok");
  if (ok == nullptr || ok->kind() != JsonValue::Kind::Bool || !ok->asBool()) {
    log.failures.push_back("response not ok: " + line.substr(0, 300));
    return;
  }
  if (req.op == Op::Stats) return;
  const JsonValue* report = resp.find("report");
  if (report == nullptr || report->kind() != JsonValue::Kind::String) {
    log.failures.push_back("response without report: " + line.substr(0, 300));
    return;
  }
  if (req.op == Op::Racecheck) {
    const JsonValue* verdict = resp.find("verdict");
    if (verdict == nullptr || verdict->kind() != JsonValue::Kind::String ||
        verdict->asString() != "RACY")
      log.failures.push_back("mutant not reported Racy: " +
                             line.substr(0, 300));
  }
  if (req.op == Op::Edit) {
    log.editReports[report->asString()].push_back(req.offset);
  } else if (report->asString() != *req.reference) {
    log.failures.push_back("report differs from the in-process reference: " +
                           line.substr(0, 300));
  }
  if (const JsonValue* tiers = resp.find("tiers")) {
    log.queries += member(*tiers, "queries");
    log.tier0 += member(*tiers, "tier0");
    log.tier1 += member(*tiers, "tier1");
    log.tier2 += member(*tiers, "tier2");
    log.cached += member(*tiers, "cached");
  }
}

long long tasksStolen(server::AnalysisServer& daemon, long long id) {
  const JsonValue resp =
      server::parseJson(daemon.process(frame("stats", nullptr, id)));
  const JsonValue* pool = resp.find("pool");
  return pool == nullptr ? 0 : member(*pool, "tasks_stolen");
}

/// Commits the file system holding `dir` (syncfs), outside any timed
/// section: write-back and block discards of earlier store files would
/// otherwise land inside a later measurement.
void flushFilesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::syncfs(fd);
  ::close(fd);
}

struct StoreCounts {
  long long hits = 0, memoryHits = 0, taskHits = 0, taskLookups = 0,
            stores = 0, joins = 0;
};

StoreCounts storeCounts(server::AnalysisServer& daemon) {
  const smt::PersistentVerdictStore::Stats s = daemon.store().stats();
  return {s.checkHits + s.taskHits,
          s.checkMemoryHits + s.taskMemoryHits,
          s.taskHits,
          s.taskHits + s.taskMisses,
          s.checkStores + s.taskStores,
          s.flightJoins};
}

}  // namespace

void runServeWarmEdits(const Options& opts, Result& result) {
  Tracer tracer(opts.trace);
  const std::filesystem::path base =
      std::filesystem::path(opts.workDir) / "serve-store";
  std::filesystem::remove_all(base);

  std::vector<double> setupSeconds;
  Catalog catalog;
  std::unique_ptr<server::AnalysisServer> daemon;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    daemon.reset();
    const double t0 = nowSeconds();
    const std::string dir = (base / std::to_string(rep)).string();
    catalog = makeCatalog(tracer);
    {
      // Warm the store: one cold pass over every kernel the rounds read.
      Tracer::Span warmSpan(tracer, "serve_warm_edits.warm_store", 0);
      server::AnalysisServer warm(serveOptions(dir));
      long long id = 0;
      for (const auto& s : catalog.analyze)
        (void)warm.process(frame("analyze", &s, ++id));
      for (const auto& s : catalog.racecheck)
        (void)warm.process(frame("racecheck", &s, ++id));
    }
    daemon = std::make_unique<server::AnalysisServer>(serveOptions(dir));
    setupSeconds.push_back(nowSeconds() - t0);
  }

  // Flush set-up's store writes before the window opens, so the timed
  // requests do not share the disk with write-back of set-up's files.
  flushFilesystem(opts.workDir);

  std::mt19937_64 rng(opts.seed);
  const int editBase = std::uniform_int_distribution<int>(1, 1 << 20)(rng);
  const long long stolenBefore = tasksStolen(*daemon, -1);
  const StoreCounts before = storeCounts(*daemon);

  Tracer untraced(false);
  std::vector<ClientLog> logs(kClients);
  std::atomic<int> nextRound{0};
  const double start = nowSeconds();
  const double end = start + opts.seconds;
  // Client c runs round `round` start to finish. Traced runs trace every
  // other round, so the overhead compares like with like.
  auto runRound = [&](ClientLog& log, int round) {
    const bool traced = opts.trace && round % 2 == 1;
    Tracer& t = traced ? tracer : untraced;
    const std::vector<Request> reqs =
        makeRound(catalog, opts.seed, editBase, round);
    for (size_t i = 0; i < reqs.size(); ++i) {
      const double t0 = nowSeconds();
      std::string line;
      {
        Tracer::Span span(t, "server.AnalysisServer.process",
                          round * 100LL + static_cast<long long>(i));
        line = daemon->process(reqs[i].frame);
      }
      const double t1 = nowSeconds();
      const double ms = (t1 - t0) * 1e3;
      log.doneAt.push_back(t1 - start);
      log.latencyMs[static_cast<int>(reqs[i].op)].push_back(ms);
      log.timed.emplace_back(ms, traced);
      ++log.attempted;
      checkResponse(reqs[i], line, log);
    }
  };
  auto clients = [&](const std::function<void(ClientLog&)>& body) {
    std::vector<std::thread> threads;
    for (ClientLog& log : logs) threads.emplace_back(body, std::ref(log));
    for (auto& th : threads) th.join();
  };

  // Rounds 0 and 1 run first, one per client, so the deterministic work
  // counters can be read when they end; then each client takes the next
  // round until the time is up.
  clients([&](ClientLog& log) { runRound(log, nextRound.fetch_add(1)); });
  const StoreCounts afterFirst = storeCounts(*daemon);
  long long queries = 0, tier0 = 0, tier1 = 0, tier2 = 0, cached = 0;
  for (const ClientLog& l : logs) {
    queries += l.queries;
    tier0 += l.tier0;
    tier1 += l.tier1;
    tier2 += l.tier2;
    cached += l.cached;
  }
  clients([&](ClientLog& log) {
    while (nowSeconds() < end) runRound(log, nextRound.fetch_add(1));
  });
  const double window = nowSeconds() - start;
  const StoreCounts after = storeCounts(*daemon);
  const long long stolen = tasksStolen(*daemon, -2) - stolenBefore;
  daemon.reset();

  // Edit references, one per offset served, and the merged log.
  std::vector<double> latencies, doneAt, byOp[5];
  double tracedMs = 0, untracedMs = 0;
  long long tracedN = 0, untracedN = 0;
  for (ClientLog& l : logs) {
    result.attempted += l.attempted;
    for (const std::string& f : l.failures) result.fail(f);
    for (const auto& [report, offsets] : l.editReports)
      for (const int offset : offsets)
        if (report != analyzeReference(gatherEditSpec(offset)))
          result.fail("gather_edit" + std::to_string(offset) +
                      ": report differs from the in-process reference");
    for (int op = 0; op < 5; ++op)
      byOp[op].insert(byOp[op].end(), l.latencyMs[op].begin(),
                      l.latencyMs[op].end());
    doneAt.insert(doneAt.end(), l.doneAt.begin(), l.doneAt.end());
    for (const auto& [ms, traced] : l.timed) {
      latencies.push_back(ms);
      (traced ? tracedMs : untracedMs) += ms;
      ++(traced ? tracedN : untracedN);
    }
  }
  std::filesystem::remove_all(base);
  // Likewise leave no deferred work from deleting the stores to the next
  // run on this disk.
  flushFilesystem(opts.workDir);

  result.counters = {{"formad.queries", queries},
                     {"smt.tier0", tier0},
                     {"smt.tier1", tier1},
                     {"smt.tier2_checks", tier2},
                     {"smt.cache_hits", cached},
                     {"store.disk_stores", afterFirst.stores - before.stores}};

  if (!opts.trace) {
    result.add("setup_s", median(setupSeconds), "s",
               "median of " + std::to_string(kSetupReps) + " set-ups");
    addLatencyMetrics(result, latencies, doneAt, window);
    result.add("peak_rss_mb", peakRssMb(), "MiB");
    return;
  }

  finishTrace(opts, tracer, result);
  const auto& self = result.selfSeconds;
  const auto lint = self.find("absint.lintKernel");
  std::vector<double> analyzeMs = byOp[static_cast<int>(Op::Analyze)];
  analyzeMs.insert(analyzeMs.end(), byOp[static_cast<int>(Op::Edit)].begin(),
                   byOp[static_cast<int>(Op::Edit)].end());
  result.add("server.analyze_p50_ms", median(analyzeMs), "ms",
             "analyze requests, store reads and edit misses");
  result.add("server.racecheck_p50_ms",
             median(byOp[static_cast<int>(Op::Racecheck)]), "ms");
  result.add("server.lint_p50_ms", median(byOp[static_cast<int>(Op::Lint)]),
             "ms");
  const long long lookups = after.taskLookups - before.taskLookups;
  result.add("store.task_hit_rate",
             lookups > 0 ? static_cast<double>(after.taskHits -
                                               before.taskHits) /
                               static_cast<double>(lookups)
                         : 0.0,
             "ratio", std::to_string(lookups) + " task lookups");
  const long long memoryHits = after.memoryHits - before.memoryHits;
  result.add("store.memory_hits", static_cast<double>(memoryHits), "count");
  result.add("store.disk_hits",
             static_cast<double>(after.hits - before.hits - memoryHits),
             "count");
  result.add("store.disk_stores",
             static_cast<double>(afterFirst.stores - before.stores), "count",
             "first two rounds");
  result.add("store.flight_joins",
             static_cast<double>(after.joins - before.joins), "count");
  result.add("pool.tasks_stolen", static_cast<double>(stolen), "count");
  result.add("absint.lint_s",
             lint == self.end() ? 0.0 : lint->second / kSetupReps, "s",
             "per set-up (lint references)");
  for (const char* name : {"formad.queries", "smt.tier0", "smt.tier1",
                           "smt.tier2_checks", "smt.cache_hits"})
    result.add(name, static_cast<double>(result.counters.at(name)), "count",
               "analyze responses of the first two rounds");
  result.add("trace.overhead_pct",
             (tracedMs / static_cast<double>(tracedN)) /
                     (untracedMs / static_cast<double>(untracedN)) * 100 -
                 100,
             "%", "traced vs untraced rounds, mean request latency");
}

}  // namespace perfbench
