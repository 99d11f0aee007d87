// Incremental re-analysis with the persistent verdict cache (-cache-dir).
//
// Four rows over the paper's large compact stencil (radius 16, the
// 33-point kernel of Sec. 7.1; --smoke shrinks it to radius 4 for CI):
//
//   no store  analyze with no store at all: what a user pays without
//             -cache-dir;
//   cold      analyze with an empty cache directory: every exploitation
//             task is proven from scratch and persisted;
//   warm      analyze the unchanged kernel against the populated
//             directory: every task splices from disk — zero fresh solver
//             checks, zero tier-2 solves — and only plan + IO + replay
//             remain on the clock;
//   edited    re-analyze after a localized source edit (one read offset in
//             one statement): only the question pairs whose content
//             fingerprints moved are re-proven, the rest still splice.
//
// The rows run twice: with -fastpath off, so the cold baseline is real
// solver work (the tiered deciders would otherwise hide it), and at the
// default fast path, where the comparison a user cares about is warm over
// no store. Every store row's verdict report is compared byte-for-byte
// against a store-free run at 1/2/4/8 analysis threads — the cache must
// be IO-observable only.
//
// Writes BENCH_incremental.json (per fast-path mode: cache hit-rate
// objects per row, wall times, warm-over-cold and warm-over-no-store
// speedups) through the shared writer.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <optional>
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
                                 smt::FastPathMode mode,
                                 smt::PersistentVerdictStore* store,
                                 int threads) {
  driver::DriverOptions opts;
  opts.analysisThreads = threads;
  opts.checks.fastpath = mode;
  opts.checks.store = store;
  return driver::analyze(kernel, spec.independents, spec.dependents, opts);
}

/// Checks the cache is verdict-neutral: the timing-free report of a cached
/// analysis must equal the store-free report at every pool width.
bool identicalAcrossWidths(const ir::Kernel& kernel,
                           const kernels::KernelSpec& spec,
                           smt::FastPathMode mode,
                           smt::PersistentVerdictStore* store,
                           const std::string& phase) {
  const std::string reference = core::describe(
      analyzeWith(kernel, spec, mode, nullptr, 1), /*includeTiming=*/false);
  bool ok = true;
  for (int threads : kThreads) {
    const std::string got =
        core::describe(analyzeWith(kernel, spec, mode, store, threads),
                       /*includeTiming=*/false);
    if (got != reference) {
      ok = false;
      std::cout << "MISMATCH: " << phase << " report at " << threads
                << " thread(s) differs from the store-free baseline\n";
    }
  }
  return ok;
}

/// Best of `reps` width-1 analyses. With no `dir` the row runs with no
/// store; otherwise each rep opens a fresh store over `dir`, emptied first
/// when `freshDirPerRep`.
PhaseResult runPhase(const std::string& phase, const ir::Kernel& kernel,
                     const kernels::KernelSpec& spec, smt::FastPathMode mode,
                     const std::filesystem::path* dir, int reps,
                     bool freshDirPerRep) {
  PhaseResult out;
  out.phase = phase;
  out.wallSeconds = -1;
  for (int rep = 0; rep < reps; ++rep) {
    if (dir != nullptr && freshDirPerRep) {
      // A cold measurement must start from an empty store every time —
      // the first rep would otherwise warm the later ones.
      std::filesystem::remove_all(*dir);
    }
    std::optional<smt::PersistentVerdictStore> store;
    if (dir != nullptr) store.emplace(dir->string());
    auto a = analyzeWith(kernel, spec, mode, store ? &*store : nullptr,
                         /*threads=*/1);
    const double wall = a.analysisSeconds();
    if (out.wallSeconds < 0 || wall < out.wallSeconds) {
      out.wallSeconds = wall;
      out.analysis = std::move(a);
    }
  }
  if (dir != nullptr) {
    smt::PersistentVerdictStore store(dir->string());
    out.reportsIdentical =
        identicalAcrossWidths(kernel, spec, mode, &store, phase);
  }
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

  struct ModeResult {
    smt::FastPathMode mode;
    std::vector<PhaseResult> rows;  // no store, cold, warm, edited
    double warmOverCold = 0.0, warmOverNoStore = 0.0;
  };
  std::vector<ModeResult> modes;
  for (smt::FastPathMode mode :
       {smt::FastPathMode::Off, smt::FastPathMode::Full}) {
    std::filesystem::remove_all(dir);
    std::cout << "\n### Incremental re-analysis, stencil r" << radius
              << " (-fastpath " << smt::to_string(mode)
              << ", persistent cache)\n\n";
    ModeResult m{mode, {}};
    m.rows.push_back(runPhase("no store", *kernel, spec, mode, nullptr, reps,
                              /*freshDirPerRep=*/false));
    m.rows.push_back(runPhase("cold", *kernel, spec, mode, &dir, reps,
                              /*freshDirPerRep=*/true));
    m.rows.push_back(runPhase("warm", *kernel, spec, mode, &dir, reps,
                              /*freshDirPerRep=*/false));
    m.rows.push_back(runPhase("edited", *editedKernel, edited, mode, &dir,
                              /*reps=*/1, /*freshDirPerRep=*/false));
    const double warmWall = m.rows[2].wallSeconds;
    if (warmWall > 0) {
      m.warmOverCold = m.rows[1].wallSeconds / warmWall;
      m.warmOverNoStore = m.rows[0].wallSeconds / warmWall;
    }

    driver::Table t({"row", "wall [ms]", "tasks spliced", "tasks persisted",
                     "fresh checks", "fresh tier-2", "reports"});
    for (const PhaseResult& p : m.rows)
      t.addRow({p.phase, driver::fmt(p.wallSeconds * 1e3, 3),
                std::to_string(p.analysis.tasksSpliced()),
                std::to_string(p.analysis.tasksPersisted()),
                std::to_string(p.analysis.freshSolverChecks()),
                std::to_string(p.analysis.freshTier2Solves()),
                p.phase == "no store"     ? "reference"
                : p.reportsIdentical ? "identical"
                                     : "MISMATCH"});
    std::cout << t.str() << "\nwarm over cold: "
              << driver::fmt(m.warmOverCold, 1)
              << "x; warm over no store: " << driver::fmt(m.warmOverNoStore, 2)
              << "x (warm runs answer every task from the store; the edited "
                 "run\nre-proves only the pairs whose content fingerprints "
                 "moved)\n";
    modes.push_back(std::move(m));
  }
  std::filesystem::remove_all(dir);

  JsonValue modesJson = JsonValue::array();
  for (const ModeResult& m : modes) {
    JsonValue rows = JsonValue::array();
    for (const PhaseResult& p : m.rows) rows.push(phaseJson(p));
    JsonValue o = JsonValue::object();
    o.set("fastpath", JsonValue::str(smt::to_string(m.mode)));
    o.set("phases", std::move(rows));
    o.set("warm_speedup", JsonValue::number(m.warmOverCold));
    o.set("warm_over_no_store", JsonValue::number(m.warmOverNoStore));
    modesJson.push(std::move(o));
  }
  JsonValue body = JsonValue::object();
  body.set("smoke", JsonValue::boolean(smoke));
  body.set("radius", JsonValue::integer(radius));
  body.set("modes", std::move(modesJson));
  bench::writeBenchFile("incremental", body);

  // The contract the CI smoke job (and the paper's steady-state claim)
  // rests on, in every mode: a warm run does no solver work at all.
  bool ok = true;
  for (const ModeResult& m : modes) {
    const std::string tag = " (-fastpath " + smt::to_string(m.mode) + ")";
    const PhaseResult& warm = m.rows[2];
    const PhaseResult& editedPhase = m.rows[3];
    ok = ok && m.rows[1].reportsIdentical && warm.reportsIdentical &&
         editedPhase.reportsIdentical;
    if (warm.analysis.freshSolverChecks() != 0 ||
        warm.analysis.freshTier2Solves() != 0) {
      std::cout << "FAIL: warm run performed fresh solver work" << tag << "\n";
      ok = false;
    }
    if (warm.analysis.tasksSpliced() == 0 ||
        warm.analysis.tasksPersisted() != 0) {
      std::cout << "FAIL: warm run did not splice every task from the store"
                << tag << "\n";
      ok = false;
    }
    if (editedPhase.analysis.tasksSpliced() == 0) {
      std::cout << "FAIL: edited run spliced nothing — fingerprints unstable"
                << tag << "\n";
      ok = false;
    }
  }
  const double offSpeedup = modes.front().warmOverCold;
  if (!smoke && offSpeedup < 10.0)
    std::cout << "NOTE: warm speedup below 10x at -fastpath off ("
              << driver::fmt(offSpeedup, 1) << "x)\n";
  return ok ? 0 : 1;
}
