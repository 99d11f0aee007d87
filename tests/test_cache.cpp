// Persistent-cache behavior through the driver: the randomized edit-replay
// fuzzer (cache serving must be verdict-neutral under localized kernel
// edits at any thread count), budget-provenance and fast-path-mode
// isolation, the record policy (starved runs never downgrade stored
// records), and the warm-run zero-fresh-work guarantee.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "driver/driver.h"
#include "formad/formad.h"
#include "helpers.h"
#include "kernels/gfmc.h"
#include "kernels/stencil.h"
#include "smt/diskcache.h"

namespace {

using namespace formad;
namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag)
      : path(fs::temp_directory_path() /
             (std::string("formad_cache_") + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

/// Keeps the parsed kernel alive next to its analysis: KernelAnalysis
/// region verdicts point into the kernel IR (describe() reads the loop
/// counter name through them).
struct Analyzed {
  std::unique_ptr<ir::Kernel> kernel;
  core::KernelAnalysis analysis;
};

/// Classic report + tier breakdown, both timing-free: the full
/// byte-identity surface the cache must not perturb.
std::string reportOf(const Analyzed& a) {
  return core::describe(a.analysis, false) + core::describeTiers(a.analysis);
}

Analyzed analyzeSource(const std::string& source,
                       const std::vector<std::string>& ind,
                       const std::vector<std::string>& dep,
                       const driver::DriverOptions& opts) {
  auto kernel = parser::parseKernel(source);
  auto analysis = driver::analyze(*kernel, ind, dep, opts);
  return {std::move(kernel), std::move(analysis)};
}

// The core fuzzer: analyze a random kernel cold (populating the store),
// apply a localized seed-deterministic index edit, then re-analyze the
// edited kernel warm at several thread counts. Every warm report must be
// byte-identical to a store-free analysis of the same edited kernel —
// stale entries for moved fingerprints must never be served, and splicing
// must not depend on scheduling.
TEST(PersistentCache, EditReplayFuzzer) {
  for (unsigned seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto h = formad::testing::randomHarness(seed);
    const std::string cold = h.spec.source;
    const std::string edited = formad::testing::mutateIndexSite(cold, seed);

    TempDir dir("fuzz");
    smt::PersistentVerdictStore store(dir.path.string());
    driver::DriverOptions withStore;
    withStore.checks.store = &store;

    (void)analyzeSource(cold, h.spec.independents, h.spec.dependents,
                        withStore);

    driver::DriverOptions plain;
    const std::string want = reportOf(analyzeSource(
        edited, h.spec.independents, h.spec.dependents, plain));
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      withStore.analysisThreads = threads;
      const auto warm = analyzeSource(edited, h.spec.independents,
                                      h.spec.dependents, withStore);
      EXPECT_EQ(reportOf(warm), want);
    }
  }
}

// A cold run under a starvation budget persists exhausted verdicts; a
// later unlimited run over the same store must not be poisoned by them —
// its report must match a store-free unlimited analysis exactly.
TEST(PersistentCache, BudgetStarvedEntriesNeverPoisonUnlimitedRuns) {
  const auto spec = kernels::stencilSpec(2);
  TempDir dir("budget");
  smt::PersistentVerdictStore store(dir.path.string());

  driver::DriverOptions starved;
  starved.checks.store = &store;
  starved.checks.stepBudget = 2;
  (void)analyzeSource(spec.source, spec.independents, spec.dependents,
                      starved);

  driver::DriverOptions plain;
  const std::string want = reportOf(
      analyzeSource(spec.source, spec.independents, spec.dependents, plain));

  driver::DriverOptions unlimited;
  unlimited.checks.store = &store;
  const auto warm = analyzeSource(spec.source, spec.independents,
                                  spec.dependents, unlimited);
  EXPECT_EQ(reportOf(warm), want);
  // And the unlimited pass back-fills the store: a THIRD run is fully warm.
  const auto warm2 = analyzeSource(spec.source, spec.independents,
                                   spec.dependents, unlimited);
  EXPECT_EQ(reportOf(warm2), want);
  EXPECT_EQ(warm2.analysis.freshSolverChecks(), 0);
}

long long plannedTasks(const core::KernelAnalysis& a) {
  long long n = 0;
  for (const auto& r : a.regions)
    n += static_cast<long long>(r.taskSeconds.size());
  return n;
}

// Steady state: an unchanged kernel re-analyzed over a populated store is
// served ENTIRELY by task splicing — zero solver checks (not even
// cache-hit ones), zero tier-2 solves, nothing new persisted.
void expectWarmRunDoesZeroFreshWork(const kernels::KernelSpec& spec,
                                    int threads) {
  SCOPED_TRACE(spec.name + " at " + std::to_string(threads) + " threads");
  TempDir dir("warm");
  smt::PersistentVerdictStore store(dir.path.string());

  driver::DriverOptions opts;
  opts.checks.store = &store;
  opts.analysisThreads = threads;
  const auto cold = analyzeSource(spec.source, spec.independents,
                                  spec.dependents, opts);
  EXPECT_GT(cold.analysis.tasksPersisted(), 0);
  const auto coldStats = store.stats();

  const auto warm = analyzeSource(spec.source, spec.independents,
                                  spec.dependents, opts);
  EXPECT_EQ(warm.analysis.freshSolverChecks(), 0);
  EXPECT_EQ(warm.analysis.freshTier2Solves(), 0);
  EXPECT_EQ(warm.analysis.tasksPersisted(), 0);
  EXPECT_EQ(warm.analysis.tasksJoined(), 0);
  // On each run every planned task either persisted a fresh record,
  // spliced one (an earlier run's, or an earlier region's of the same
  // run), joined a concurrent in-flight evaluation, or was skipped because
  // replay never reads it — the four are exhaustive, so the totals must
  // balance exactly.
  const long long planned = plannedTasks(cold.analysis);
  EXPECT_GT(planned, 0);
  EXPECT_EQ(cold.analysis.tasksSpliced() + cold.analysis.tasksJoined() +
                cold.analysis.tasksPersisted() + cold.analysis.tasksSkipped(),
            planned);
  EXPECT_EQ(warm.analysis.tasksSpliced() + warm.analysis.tasksSkipped(),
            planned);
  EXPECT_EQ(reportOf(warm), reportOf(cold));

  // The warm run probes only records the cold run stored: every task
  // lookup hits.
  const auto s = store.stats();
  EXPECT_EQ(s.taskStores, cold.analysis.tasksPersisted());
  EXPECT_EQ(s.taskMisses, coldStats.taskMisses);
  EXPECT_GE(s.taskHits - coldStats.taskHits, warm.analysis.tasksSpliced());
}

TEST(PersistentCache, WarmRunDoesZeroFreshWork) {
  // The stencil at the auto width: every variable is SAFE, so nothing is
  // skipped and the warm run splices every planned task.
  expectWarmRunDoesZeroFreshWork(kernels::stencilSpec(4), 0);
  // GFMC* at width 4: cr stays guarded, so the eager path skips tasks
  // behind its first unsafe pair — on real threads, a timing-dependent
  // set on the cold run.
  expectWarmRunDoesZeroFreshWork(kernels::gfmcFusedSpec(), 4);
}

// Records carry the decision tier, and which tier decides a check depends
// on the fast-path mode — so each mode keys its own records. Runs with the
// fast paths off or syntactic-only, then a default run, all over one
// store: each report must match a store-free run of its own mode, and a
// reopened store must serve the default mode its own records.
TEST(PersistentCache, FastPathModesNeverShareRecords) {
  const auto spec = kernels::stencilSpec(2);
  TempDir dir("fastpath");
  smt::PersistentVerdictStore store(dir.path.string());
  for (smt::FastPathMode mode :
       {smt::FastPathMode::Off, smt::FastPathMode::Syntactic,
        smt::FastPathMode::Full}) {
    SCOPED_TRACE(smt::to_string(mode));
    driver::DriverOptions plain;
    plain.checks.fastpath = mode;
    driver::DriverOptions withStore = plain;
    withStore.checks.store = &store;
    EXPECT_EQ(reportOf(analyzeSource(spec.source, spec.independents,
                                     spec.dependents, withStore)),
              reportOf(analyzeSource(spec.source, spec.independents,
                                     spec.dependents, plain)));
  }

  smt::PersistentVerdictStore reopened(dir.path.string());
  driver::DriverOptions warmOpts;
  warmOpts.checks.store = &reopened;
  const auto warm = analyzeSource(spec.source, spec.independents,
                                  spec.dependents, warmOpts);
  EXPECT_EQ(reportOf(warm),
            reportOf(analyzeSource(spec.source, spec.independents,
                                   spec.dependents, driver::DriverOptions{})));
  EXPECT_EQ(warm.analysis.freshSolverChecks(), 0);
}

// A budget-starved run over a store holding complete records must not
// overwrite them: after an unlimited cold run and a budget-2 run, a third
// unlimited run is fully warm — over the same store object and over a
// reopened one alike.
TEST(PersistentCache, StarvedRunNeverDowngradesStoredRecords) {
  const auto spec = kernels::gfmcFusedSpec();
  for (bool reopen : {false, true}) {
    SCOPED_TRACE(reopen ? "reopened store" : "same store");
    TempDir dir("downgrade");
    smt::PersistentVerdictStore store(dir.path.string());
    driver::DriverOptions unlimited;
    unlimited.checks.store = &store;
    driver::DriverOptions starved = unlimited;
    starved.checks.stepBudget = 2;
    const auto cold = analyzeSource(spec.source, spec.independents,
                                    spec.dependents, unlimited);
    EXPECT_GT(cold.analysis.tasksPersisted(), 0);
    (void)analyzeSource(spec.source, spec.independents, spec.dependents,
                        starved);

    smt::PersistentVerdictStore reopened(dir.path.string());
    if (reopen) unlimited.checks.store = &reopened;
    const auto warm = analyzeSource(spec.source, spec.independents,
                                    spec.dependents, unlimited);
    EXPECT_EQ(reportOf(warm), reportOf(cold));
    EXPECT_EQ(warm.analysis.freshSolverChecks(), 0);
    EXPECT_EQ(warm.analysis.tasksPersisted(), 0);
  }
}

// A task record holds at most one check per probe of its task (one for a
// consistency task), and fewer only when they end in the Unsat that
// stopped its walk. Task files under valid keys that break this — the
// gather7 pair task claiming 2000 checks, its consistency task claiming
// two, its two-probe pair task cut to one Sat — each cost a miss at widths
// 1 and 4: the report matches a store-free run, and the run rewrites every
// tampered file as the cold run wrote it.
TEST(PersistentCache, TamperedTaskRecordsCostAMiss) {
  const std::string gather7 =
      "kernel gather7(n: int in, c: int[] in, x: real[] in, "
      "y: real[] inout) {\n"
      "  parallel for i = 0 : n - 1 { y[c[i]] = x[c[i] + 7]; }\n"
      "}\n";
  const std::vector<std::string> ind{"x"}, dep{"y"};
  driver::DriverOptions plain;
  plain.analysisThreads = 1;
  const std::string want = reportOf(analyzeSource(gather7, ind, dep, plain));

  TempDir dir("tamper");
  {
    smt::PersistentVerdictStore store(dir.path.string());
    driver::DriverOptions cold = plain;
    cold.checks.store = &store;
    (void)analyzeSource(gather7, ind, dep, cold);
  }
  // Each task file as the cold run wrote it: its header (magic, key length,
  // key) and its payload. A key is the kind tag ("C|" or "P|"), the base
  // conjunction, then '|' and each probe.
  struct TaskFile {
    fs::path path;
    std::string header, payload;
    char kind = 0;
    long probes = 0;
  };
  std::vector<TaskFile> files;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    if (e.path().filename().string()[0] != 't') continue;
    std::ifstream in(e.path(), std::ios::binary);
    const std::string bytes(std::istreambuf_iterator<char>(in), {});
    const size_t keyAt = bytes.find('\n', bytes.find('\n') + 1) + 1;
    const size_t end = bytes.find('\n', keyAt) + 1;
    const std::string key = bytes.substr(keyAt, end - 1 - keyAt);
    files.push_back({e.path(), bytes.substr(0, end), bytes.substr(end),
                     key[0], std::count(key.begin(), key.end(), '|') - 1});
  }

  std::string longWalk = "task 2000\n";
  for (int k = 0; k < 1999; ++k) longWalk += "verdict sat 1 1 0\n";
  longWalk += "verdict unsat 1 1 0\n";
  struct Tamper {
    const char* name;
    std::function<bool(const TaskFile&)> applies;
    std::string payload;
  };
  const std::vector<Tamper> tampers = {
      {"pair task claims 2000 checks",
       [](const TaskFile& f) { return f.kind == 'P'; }, longWalk},
      {"consistency task claims two checks",
       [](const TaskFile& f) { return f.kind == 'C'; },
       "task 2\nverdict sat 1 1 0\nverdict sat 1 1 0\n"},
      {"two-probe pair task cut to one Sat",
       [](const TaskFile& f) { return f.kind == 'P' && f.probes == 2; },
       "task 1\nverdict sat 1 1 0\n"},
  };
  for (const Tamper& t : tampers) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(t.name) + " at " + std::to_string(threads) +
                   " threads");
      long long tampered = 0;
      for (const TaskFile& f : files) {
        if (!t.applies(f)) continue;
        std::ofstream(f.path, std::ios::binary | std::ios::trunc)
            << f.header << t.payload << "ok\n";
        ++tampered;
      }
      ASSERT_GT(tampered, 0);
      smt::PersistentVerdictStore store(dir.path.string());
      driver::DriverOptions warm = plain;
      warm.analysisThreads = threads;
      warm.checks.store = &store;
      EXPECT_EQ(reportOf(analyzeSource(gather7, ind, dep, warm)), want);
      EXPECT_EQ(store.stats().taskStores, tampered);
      for (const TaskFile& f : files) {
        std::ifstream in(f.path, std::ios::binary);
        EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}),
                  f.header + f.payload);
      }
    }
  }
}

// Without a store the analysis must be byte-identical to the seed
// analyzer, including the cache report rendering all-zero counters.
TEST(PersistentCache, NoStoreLeavesAnalysisUntouched) {
  const auto spec = kernels::stencilSpec(2);
  driver::DriverOptions plain;
  const auto a = analyzeSource(spec.source, spec.independents,
                               spec.dependents, plain);
  EXPECT_EQ(a.analysis.tasksSpliced(), 0);
  EXPECT_EQ(a.analysis.tasksPersisted(), 0);

  TempDir dir("nostore");
  smt::PersistentVerdictStore store(dir.path.string());
  driver::DriverOptions withStore;
  withStore.checks.store = &store;
  const auto b = analyzeSource(spec.source, spec.independents,
                               spec.dependents, withStore);
  EXPECT_EQ(reportOf(a), reportOf(b));
}

}  // namespace
