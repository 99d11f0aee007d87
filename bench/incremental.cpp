// Incremental re-analysis with the persistent verdict cache (-cache-dir).
//
// Three phases over the paper's large compact stencil (radius 16, the
// 33-point kernel of Sec. 7.1; --smoke shrinks it to radius 4 for CI):
//
//   cold   analyze with an empty cache directory: every exploitation task
//          is proven from scratch and persisted;
//   warm   analyze the unchanged kernel against the populated directory:
//          every task splices from disk — zero fresh solver checks, zero
//          tier-2 solves — and only plan + IO + replay remain on the
//          clock;
//   edited re-analyze after a localized source edit (one read offset in
//          one statement): only the question pairs whose content
//          fingerprints moved are re-proven, the rest still splice.
//
// All three phases run with -fastpath off so the cold baseline is real
// solver work (the tiered deciders would otherwise hide it), and every
// phase's verdict report is compared byte-for-byte against a store-free
// run at 1/2/4/8 analysis threads — the cache must be IO-observable only.
//
// Writes BENCH_incremental.json (cache hit-rate objects per phase, wall
// times, warm-over-cold speedup) through the shared writer.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "driver/driver.h"
#include "driver/report.h"
#include "kernels/stencil.h"
#include "parser/parser.h"
#include "server/protocol.h"
#include "smt/diskcache.h"

using namespace formad;
using server::JsonValue;

namespace {

const int kThreads[] = {1, 2, 4, 8};

struct PhaseResult {
  std::string phase;
  double wallSeconds = 0.0;  // best of reps
  core::KernelAnalysis analysis;
  bool reportsIdentical = true;  // vs store-free run at 1/2/4/8 threads
};

core::KernelAnalysis analyzeWith(const ir::Kernel& kernel,
                                 const kernels::KernelSpec& spec,
                                 smt::PersistentVerdictStore* store,
                                 int threads) {
  driver::DriverOptions opts;
  opts.analysisThreads = threads;
  opts.checks.fastpath = smt::FastPathMode::Off;
  opts.checks.store = store;
  return driver::analyze(kernel, spec.independents, spec.dependents, opts);
}

/// Checks the cache is verdict-neutral: the timing-free report of a cached
/// analysis must equal the store-free report at every pool width.
bool identicalAcrossWidths(const ir::Kernel& kernel,
                           const kernels::KernelSpec& spec,
                           smt::PersistentVerdictStore* store,
                           const std::string& phase) {
  const std::string reference = core::describe(
      analyzeWith(kernel, spec, nullptr, 1), /*includeTiming=*/false);
  bool ok = true;
  for (int threads : kThreads) {
    const std::string got = core::describe(
        analyzeWith(kernel, spec, store, threads), /*includeTiming=*/false);
    if (got != reference) {
      ok = false;
      std::cout << "MISMATCH: " << phase << " report at " << threads
                << " thread(s) differs from the store-free baseline\n";
    }
  }
  return ok;
}

PhaseResult runPhase(const std::string& phase, const ir::Kernel& kernel,
                     const kernels::KernelSpec& spec,
                     const std::filesystem::path& dir, int reps,
                     bool freshDirPerRep) {
  PhaseResult out;
  out.phase = phase;
  out.wallSeconds = -1;
  for (int rep = 0; rep < reps; ++rep) {
    if (freshDirPerRep) {
      // A cold measurement must start from an empty store every time —
      // the first rep would otherwise warm the later ones.
      std::filesystem::remove_all(dir);
    }
    smt::PersistentVerdictStore store(dir.string());
    auto a = analyzeWith(kernel, spec, &store, /*threads=*/1);
    const double wall = a.analysisSeconds();
    if (out.wallSeconds < 0 || wall < out.wallSeconds) {
      out.wallSeconds = wall;
      out.analysis = std::move(a);
    }
  }
  smt::PersistentVerdictStore store(dir.string());
  out.reportsIdentical = identicalAcrossWidths(kernel, spec, &store, phase);
  return out;
}

JsonValue phaseJson(const PhaseResult& p) {
  const core::KernelAnalysis& a = p.analysis;
  // The daemon's cache object plus the task-level hit rate.
  JsonValue cache = server::cacheCountsJson(a);
  const long long tasks = a.tasksSpliced() + a.tasksPersisted();
  cache.set("task_hit_rate",
            JsonValue::number(tasks > 0
                                  ? static_cast<double>(a.tasksSpliced()) /
                                        static_cast<double>(tasks)
                                  : 0.0));
  JsonValue row = JsonValue::object();
  row.set("phase", JsonValue::str(p.phase));
  row.set("wall_seconds", JsonValue::number(p.wallSeconds));
  row.set("tiers", server::tierCountsJson(a));
  row.set("cache", std::move(cache));
  row.set("reports_identical", JsonValue::boolean(p.reportsIdentical));
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const int radius = smoke ? 4 : 16;
  const int reps = smoke ? 2 : 3;

  const kernels::KernelSpec spec = kernels::stencilSpec(radius);
  auto kernel = parser::parseKernel(spec.source);

  // The localized edit: one read offset of one statement. Every question
  // pair that does not mention the edited reference keeps its content
  // fingerprint and still splices from the cold run's store.
  kernels::KernelSpec edited = spec;
  const std::string from = "uold[i - 1]";
  const std::string to = "uold[i - " + std::to_string(radius + 1) + "]";
  const size_t at = edited.source.find(from);
  if (at == std::string::npos) {
    std::cerr << "edit site not found in stencil source\n";
    return 1;
  }
  edited.source.replace(at, from.size(), to);
  auto editedKernel = parser::parseKernel(edited.source);

  const std::filesystem::path dir = "incremental_cache";
  std::filesystem::remove_all(dir);

  std::cout << "\n### Incremental re-analysis, stencil r" << radius
            << " (-fastpath off, persistent cache)\n\n";

  PhaseResult cold =
      runPhase("cold", *kernel, spec, dir, reps, /*freshDirPerRep=*/true);
  PhaseResult warm =
      runPhase("warm", *kernel, spec, dir, reps, /*freshDirPerRep=*/false);
  PhaseResult editedPhase = runPhase("edited", *editedKernel, edited, dir,
                                     /*reps=*/1, /*freshDirPerRep=*/false);

  const double speedup =
      warm.wallSeconds > 0 ? cold.wallSeconds / warm.wallSeconds : 0.0;

  driver::Table t({"phase", "wall [ms]", "tasks spliced", "tasks persisted",
                   "fresh checks", "fresh tier-2", "reports"});
  for (const PhaseResult* p : {&cold, &warm, &editedPhase})
    t.addRow({p->phase, driver::fmt(p->wallSeconds * 1e3, 3),
              std::to_string(p->analysis.tasksSpliced()),
              std::to_string(p->analysis.tasksPersisted()),
              std::to_string(p->analysis.freshSolverChecks()),
              std::to_string(p->analysis.freshTier2Solves()),
              p->reportsIdentical ? "identical" : "MISMATCH"});
  std::cout << t.str() << "\nwarm-over-cold speedup: "
            << driver::fmt(speedup, 1)
            << "x (warm runs answer every task from the store; the edited "
               "run\nre-proves only the pairs whose content fingerprints "
               "moved)\n\n";

  JsonValue phases = JsonValue::array();
  phases.push(phaseJson(cold));
  phases.push(phaseJson(warm));
  phases.push(phaseJson(editedPhase));

  JsonValue body = JsonValue::object();
  body.set("smoke", JsonValue::boolean(smoke));
  body.set("radius", JsonValue::integer(radius));
  body.set("phases", std::move(phases));
  body.set("warm_speedup", JsonValue::number(speedup));
  bench::writeBenchFile("incremental", body);

  std::filesystem::remove_all(dir);

  // The contract the CI smoke job (and the paper's steady-state claim)
  // rests on: a warm run does no solver work at all.
  bool ok = cold.reportsIdentical && warm.reportsIdentical &&
            editedPhase.reportsIdentical;
  if (warm.analysis.freshSolverChecks() != 0 ||
      warm.analysis.freshTier2Solves() != 0) {
    std::cout << "FAIL: warm run performed fresh solver work\n";
    ok = false;
  }
  if (warm.analysis.tasksSpliced() == 0 ||
      warm.analysis.tasksPersisted() != 0) {
    std::cout << "FAIL: warm run did not splice every task from the store\n";
    ok = false;
  }
  if (editedPhase.analysis.tasksSpliced() == 0) {
    std::cout << "FAIL: edited run spliced nothing — fingerprints unstable\n";
    ok = false;
  }
  if (!smoke && speedup < 10.0)
    std::cout << "NOTE: warm speedup below 10x (" << driver::fmt(speedup, 1)
              << "x)\n";
  return ok ? 0 : 1;
}
