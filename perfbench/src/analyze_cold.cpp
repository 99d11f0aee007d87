// analyze_cold: closed loop, one caller. Each call parses a kernel and
// either differentiates it cold (FormAD mode, no verdict store, default
// auto analysis width) or race-checks a deliberately racy mutant.
//
// One pass is a seeded draw: the six Table 1 kernels, one compact stencil
// from each radius pair {4,5} {8,9} {12,13} {16,17} {20,21} {23,24}, 24
// edit kernels at distinct offsets, and the five racy mutants, in seeded
// order. The loop repeats the pass until the time is up; every call is
// cold because nothing is cached across calls.
//
// The draw keeps a pass's cost nearly independent of the seed (narrow
// radius pairs), and the many small edit calls put the median call inside
// one cluster of similar calls, so the figures move with the code rather
// than with the draw.
//
// Oracles: per-variable verdicts match the known answers (every variable
// SAFE except GFMC*'s cr and LBM's srcgrid), every mutant is Racy, and each
// report, tier breakdown and generated adjoint is byte-identical to a
// 1-thread reference made in set-up.
#include <algorithm>
#include <random>
#include <set>

#include "formad/formad.h"
#include "ir/printer.h"
#include "kernels/gfmc.h"
#include "kernels/greengauss.h"
#include "kernels/lbm.h"
#include "kernels/mutants.h"
#include "kernels/stencil.h"
#include "pipeline.h"
#include "racecheck/racecheck.h"
#include "support/diagnostics.h"
#include "support/pool.h"
#include "workloads.h"

namespace perfbench {

using namespace formad;

namespace {

constexpr size_t kEditsPerPass = 24;
/// Set-up here is short (tens of milliseconds), so more repetitions keep
/// its median steady.
constexpr int kAnalyzeSetupReps = 7;

struct Item {
  bool racecheck = false;
  kernels::KernelSpec spec;
  /// Differentiate: the variables that must stay guarded (all others SAFE).
  std::set<std::string> expectUnsafe;
  /// Racecheck: parameter pins the checker needs for a concrete witness.
  std::map<std::string, long long> pins;
  // 1-thread references made in set-up.
  std::string refReport;
  std::string refAdjoint;
};

struct Counts {
  long long modelAssertions = 0, queries = 0, tier0 = 0, tier1 = 0,
            tier2 = 0, cacheHits = 0;

  void add(const core::KernelAnalysis& a) {
    modelAssertions += a.modelAssertions();
    queries += a.queries();
    tier0 += a.tier0Hits();
    tier1 += a.tier1Hits();
    tier2 += a.tier2Checks();
    cacheHits += a.cacheHits();
  }
};

std::vector<Item> drawPass(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Item> items;
  auto differentiate = [&](kernels::KernelSpec spec,
                           std::set<std::string> unsafe = {}) {
    Item it;
    it.spec = std::move(spec);
    it.expectUnsafe = std::move(unsafe);
    items.push_back(std::move(it));
  };
  differentiate(kernels::stencilSpec(1));
  differentiate(kernels::stencilSpec(8));
  differentiate(kernels::gfmcSplitSpec());
  differentiate(kernels::gfmcFusedSpec(), {"cr"});
  differentiate(kernels::lbmSpec(), {"srcgrid"});
  differentiate(kernels::greenGaussSpec());
  for (const int lo : {4, 8, 12, 16, 20, 23})
    differentiate(kernels::stencilSpec(
        lo + std::uniform_int_distribution<int>(0, 1)(rng)));
  std::set<int> offsets;
  while (offsets.size() < kEditsPerPass)
    offsets.insert(std::uniform_int_distribution<int>(1, 4096)(rng));
  for (const int off : offsets) differentiate(gatherEditSpec(off));

  auto racecheck = [&](kernels::KernelSpec spec,
                       std::map<std::string, long long> pins = {}) {
    Item it;
    it.racecheck = true;
    it.spec = std::move(spec);
    it.pins = std::move(pins);
    items.push_back(std::move(it));
  };
  racecheck(kernels::stencilRacySpec());
  racecheck(kernels::stencilStrideRacySpec());
  racecheck(kernels::lbmRacySpec(),
            {{"n_cell_entries", 20}, {"c", 0}, {"margin", 2}});
  racecheck(kernels::gatherRacySpec());
  racecheck(kernels::sumRacySpec());

  std::shuffle(items.begin(), items.end(), rng);
  return items;
}

racecheck::RaceReport raceCheck(Tracer& tracer, long long request,
                                const ir::Kernel& k, const Item& item,
                                int threads) {
  racecheck::RaceCheckOptions ropts;
  ropts.paramValues = item.pins;
  std::unique_ptr<support::WorkPool> pool;
  if (threads > 1) {
    pool = std::make_unique<support::WorkPool>(threads);
    ropts.pool = pool.get();
  }
  Tracer::Span span(tracer, "racecheck.checkKernelRaces", request);
  return racecheck::checkKernelRaces(k, ropts);
}

/// Set-up: draws the pass and makes the 1-thread references.
std::vector<Item> setUp(std::uint64_t seed, Counts& counts) {
  Tracer off(false);
  std::vector<Item> items = drawPass(seed);
  counts = Counts{};
  for (Item& it : items) {
    auto k = parseTraced(off, 0, it.spec.source);
    if (it.racecheck) {
      it.refReport = raceCheck(off, 0, *k, it, 1).describe();
      continue;
    }
    Differentiated d = differentiate(off, 0, *k, it.spec,
                                     driver::AdjointMode::FormAD, false, 1);
    it.refReport = analysisReport(d.analysis);
    it.refAdjoint = ir::printKernel(*d.adjoint);
    counts.add(d.analysis);
  }
  return items;
}

/// One call: parse + differentiate or parse + race check, checked against
/// the known answers and the reference. Returns an error or "".
std::string runItem(Tracer& tracer, long long request, const Item& it,
                    int threads) {
  auto k = parseTraced(tracer, request, it.spec.source);
  if (it.racecheck) {
    racecheck::RaceReport rep = raceCheck(tracer, request, *k, it, threads);
    if (rep.overall() != racecheck::RaceVerdict::Racy)
      return it.spec.name + ": mutant not reported Racy";
    if (rep.describe() != it.refReport)
      return it.spec.name + ": race report differs from the reference";
    return {};
  }
  Differentiated d = differentiate(tracer, request, *k, it.spec,
                                   driver::AdjointMode::FormAD, false, threads);
  std::set<std::string> unsafeSeen;
  for (const auto& region : d.analysis.regions)
    for (const auto& v : region.vars) {
      const bool expectSafe = it.expectUnsafe.count(v.var) == 0;
      if (v.safe != expectSafe)
        return it.spec.name + ": variable " + v.var + " is " +
               (v.safe ? "SAFE" : "UNSAFE") + ", expected the opposite";
      if (!v.safe) unsafeSeen.insert(v.var);
    }
  if (unsafeSeen != it.expectUnsafe)
    return it.spec.name + ": guarded variables differ from the known answer";
  if (analysisReport(d.analysis) != it.refReport)
    return it.spec.name + ": report differs from the 1-thread reference";
  if (ir::printKernel(*d.adjoint) != it.refAdjoint)
    return it.spec.name + ": adjoint differs from the 1-thread reference";
  return {};
}

}  // namespace

void runAnalyzeCold(const Options& opts, Result& result) {
  std::vector<double> setupSeconds;
  std::vector<Item> items;
  Counts counts;
  for (int rep = 0; rep < kAnalyzeSetupReps; ++rep) {
    const double t0 = nowSeconds();
    items = setUp(opts.seed, counts);
    setupSeconds.push_back(nowSeconds() - t0);
  }
  const int threads = driver::resolveAnalysisThreads(0);

  // Traced runs alternate untraced and traced passes so the tracing
  // overhead is measured on the same calls; layer metrics come from the
  // traced passes only.
  Tracer tracer(opts.trace);
  Tracer untraced(false);
  std::vector<double> latenciesMs, doneAt;
  double passSeconds[2] = {0, 0};
  int passes[2] = {0, 0};
  long long request = 0;
  const double start = nowSeconds();
  const double end = start + opts.seconds;
  const int minPasses = opts.trace ? 2 : 1;
  for (int pass = 0; pass < minPasses || nowSeconds() < end; ++pass) {
    const int traced = opts.trace ? pass % 2 : 0;
    Tracer& t = traced ? tracer : untraced;
    const double p0 = nowSeconds();
    for (const Item& it : items) {
      ++request;
      Tracer::Span root(t, "analyze_cold.call", request);
      const double c0 = nowSeconds();
      std::string err;
      try {
        err = runItem(t, request, it, threads);
      } catch (const Error& e) {
        err = it.spec.name + ": " + e.what();
      }
      const double c1 = nowSeconds();
      latenciesMs.push_back((c1 - c0) * 1e3);
      doneAt.push_back(c1 - start);
      ++result.attempted;
      if (!err.empty()) result.fail(err);
    }
    passSeconds[traced] += nowSeconds() - p0;
    ++passes[traced];
  }
  const double window = nowSeconds() - start;

  result.counters = {{"formad.model_assertions", counts.modelAssertions},
                     {"formad.queries", counts.queries},
                     {"smt.tier0", counts.tier0},
                     {"smt.tier1", counts.tier1},
                     {"smt.tier2_checks", counts.tier2},
                     {"smt.cache_hits", counts.cacheHits}};

  if (!opts.trace) {
    result.add("setup_s", median(setupSeconds), "s",
               "median of " + std::to_string(kAnalyzeSetupReps) +
                   " set-ups");
    addLatencyMetrics(result, latenciesMs, doneAt, window);
    result.add("peak_rss_mb", peakRssMb(), "MiB");
    return;
  }

  finishTrace(opts, tracer, result);
  const std::map<std::string, double>& self = result.selfSeconds;
  auto perPass = [&](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second / passes[1];
  };
  const std::string note = "self s per pass, " + std::to_string(passes[1]) +
                           " traced passes";
  result.add("parser.parse_s", perPass("parser.parseKernel"), "s", note);
  result.add("formad.model_s", perPass("formad.buildRegionModel"), "s", note);
  result.add("formad.exploit_s", perPass("formad.exploitRegion"), "s", note);
  result.add("racecheck.check_s", perPass("racecheck.checkKernelRaces"), "s",
             note);
  result.add("ad.reverse_s", perPass("ad.buildAdjoint"), "s", note);
  for (const auto& [name, value] : result.counters)
    result.add(name, static_cast<double>(value), "count", "per pass");
  const double meanUntraced = passSeconds[0] / passes[0];
  const double meanTraced = passSeconds[1] / passes[1];
  result.add("trace.overhead_pct", (meanTraced / meanUntraced - 1) * 100, "%",
             "traced vs untraced passes");
}

}  // namespace perfbench
