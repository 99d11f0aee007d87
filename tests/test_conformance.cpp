// Cross-thread-count conformance: the analysis pipeline must be a pure
// function of the kernel, not of the worker count. Every paper kernel and
// every racy mutant goes through the full driver at 1/2/4/8 analysis
// threads, and the timing-free rendered reports (FormAD analysis describe,
// race-check describe, warnings, and — for the mutants — the exact Error
// message of the refusal) must be byte-identical across all counts.
//
// The second half is a differential fuzzer: random kernels from the shared
// generator (tests/helpers.cpp) are analyzed serially and in parallel
// (byte-identical reports required), and their FormAD adjoints are executed
// under TreeWalk/Serial, Bytecode/Serial, and Bytecode/OpenMP — the three
// engines must agree on every gradient entry within 1e-12 relative error
// (OpenMP merges thread-local reduction copies in thread order, so the
// floating-point sums may differ in the last bits; see exec/interp.h).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "formad/formad.h"
#include "helpers.h"
#include "kernels/data.h"
#include "kernels/gfmc.h"
#include "kernels/lbm.h"
#include "kernels/mutants.h"
#include "ir/printer.h"
#include "racecheck/racecheck.h"
#include "smt/diskcache.h"
#include "support/pool.h"

namespace formad::testing {
namespace {

using driver::AdjointMode;
using exec::ExecEngine;
using exec::ExecMode;
using exec::ExecOptions;

const int kThreadCounts[] = {1, 2, 4, 8};

/// Everything the driver reports that must not depend on the worker count.
struct Transcript {
  std::string analysis;   // core::describe(analysis, /*timing=*/false)
  std::string racecheck;  // RaceReport::describe()
  std::string warnings;   // DifferentiateResult::warnings, joined
  std::string error;      // Error::what() when differentiate refuses
};

Transcript runDriver(const kernels::KernelSpec& spec, int analysisThreads,
                     smt::FastPathMode fastpath = smt::FastPathMode::Full,
                     bool absint = false) {
  Transcript t;
  auto primal = parser::parseKernel(spec.source);
  driver::DriverOptions dopts;
  dopts.mode = AdjointMode::FormAD;
  dopts.racecheckPrimal = true;
  dopts.analysisThreads = analysisThreads;
  dopts.fastpath = fastpath;
  dopts.absint = absint;
  try {
    auto dr = driver::differentiate(*primal, spec.independents,
                                    spec.dependents, dopts);
    t.analysis = core::describe(dr.analysis, /*includeTiming=*/false);
    t.racecheck = dr.raceReport.describe();
    for (const auto& w : dr.warnings) t.warnings += w + "\n";
  } catch (const Error& e) {
    t.error = e.what();
  }
  return t;
}

void expectThreadInvariant(const kernels::KernelSpec& spec) {
  const Transcript serial = runDriver(spec, 1);
  for (int threads : kThreadCounts) {
    if (threads == 1) continue;
    const Transcript parallel = runDriver(spec, threads);
    EXPECT_EQ(serial.analysis, parallel.analysis)
        << spec.name << " analysis report diverges at " << threads
        << " threads";
    EXPECT_EQ(serial.racecheck, parallel.racecheck)
        << spec.name << " race-check report diverges at " << threads
        << " threads";
    EXPECT_EQ(serial.warnings, parallel.warnings)
        << spec.name << " warnings diverge at " << threads << " threads";
    EXPECT_EQ(serial.error, parallel.error)
        << spec.name << " refusal message diverges at " << threads
        << " threads";
  }
}

// --- paper kernels ---

TEST(Conformance, CompactStencil) {
  expectThreadInvariant(stencilHarness(1, 64, 7).spec);
}

TEST(Conformance, WideStencil) {
  expectThreadInvariant(stencilHarness(3, 96, 7).spec);
}

TEST(Conformance, Lbm) { expectThreadInvariant(lbmHarness(7).spec); }

TEST(Conformance, GfmcSplit) { expectThreadInvariant(gfmcHarness(false, 7).spec); }

TEST(Conformance, GfmcFused) { expectThreadInvariant(gfmcHarness(true, 7).spec); }

TEST(Conformance, GreenGauss) {
  expectThreadInvariant(greenGaussHarness(32, 7).spec);
}

TEST(Conformance, IndirectGather) {
  expectThreadInvariant(indirectHarness(64, 7).spec);
}

// --- early-exit-aware speculation ---
//
// A width-4 pool that runs every task in index order on the calling thread
// drives the speculative batches with fully ordered timing: by the time a
// task is claimed, every outcome before it in plan order is known. On the
// kernels where per-variable early exits matter (LBM's srcgrid and GFMC*'s
// cr stay guarded) and on a racy mutant whose knowledge contradiction ends
// replay early, the batches then skip exactly the tasks the width-1 serial
// walk never evaluates, so the fresh solver work matches check for check.
// (Plan order is not schedule order in general: see the shared-pair
// kernel below.)

class InOrderPool final : public support::TaskPool {
 public:
  [[nodiscard]] int width() const override { return 4; }
  void run(size_t n, const std::function<void(size_t, int)>& fn,
           support::CancelToken* /*cancel*/) override {
    for (size_t i = 0; i < n; ++i) fn(i, static_cast<int>(i % 4));
  }
  [[nodiscard]] size_t lastRunSkipped() const override { return 0; }
};

void expectEagerWorkMatchesSerial(const kernels::KernelSpec& spec) {
  auto primal = parser::parseKernel(spec.source);
  driver::DriverOptions serialOpts;
  serialOpts.analysisThreads = 1;
  const auto serial = driver::analyze(*primal, spec.independents,
                                      spec.dependents, serialOpts);
  InOrderPool pool;
  driver::DriverOptions eagerOpts;
  eagerOpts.analysisPool = &pool;
  const auto eager = driver::analyze(*primal, spec.independents,
                                     spec.dependents, eagerOpts);
  ASSERT_EQ(eager.regions.front().threadsUsed, 4) << spec.name;
  EXPECT_EQ(core::describe(eager, false) + core::describeTiers(eager),
            core::describe(serial, false) + core::describeTiers(serial))
      << spec.name;
  EXPECT_EQ(eager.freshSolverChecks(), serial.freshSolverChecks())
      << spec.name;
  EXPECT_EQ(eager.freshTier2Solves(), serial.freshTier2Solves()) << spec.name;
  EXPECT_EQ(eager.tasksSkipped(), serial.tasksSkipped()) << spec.name;
  EXPECT_GT(eager.tasksSkipped(), 0) << spec.name;
}

TEST(Conformance, EagerPathSkipsWhatSerialNeverEvaluatesOnLbm) {
  expectEagerWorkMatchesSerial(kernels::lbmSpec());
}

TEST(Conformance, EagerPathSkipsWhatSerialNeverEvaluatesOnGfmcFused) {
  expectEagerWorkMatchesSerial(kernels::gfmcFusedSpec());
}

TEST(Conformance, EagerPathSkipsWhatSerialNeverEvaluatesOnGatherRacy) {
  expectEagerWorkMatchesSerial(kernels::gatherRacySpec());
}

// --- one serial walk ---
//
// Two guarded variables share the index pair (i', i), so one task is asked
// under `a` and again under `b`. Its step under `b` comes after tasks that
// the plan orders later, so batches that learn in plan order cannot prove
// it dead; the width-1 walk along the schedule can. Reports must not care:
// byte-identical at every width, under FormAD and hybrid, with and without
// a store.

kernels::KernelSpec sharedPairSpec() {
  kernels::KernelSpec spec;
  spec.name = "shared_pair";
  spec.source = R"(
kernel shared_pair(n: int in, c: int[] in, d: int[] in, a: real[] in, b: real[] in, y: real[] inout) {
  parallel for i = 0 : n - 1 {
    y[i] += a[c[i]] + a[i + 1] + a[i] + b[d[i]] + b[i + 1] + b[i];
  }
}
)";
  spec.independents = {"a", "b"};
  spec.dependents = {"y"};
  return spec;
}

TEST(Conformance, SharedPairKernelIsWidthAndStoreInvariant) {
  const kernels::KernelSpec spec = sharedPairSpec();
  auto primal = parser::parseKernel(spec.source);
  for (AdjointMode mode : {AdjointMode::FormAD, AdjointMode::Hybrid}) {
    auto transcript = [&](int threads, smt::PersistentVerdictStore* store) {
      driver::DriverOptions dopts;
      dopts.mode = mode;
      dopts.racecheckPrimal = true;
      dopts.analysisThreads = threads;
      dopts.verdictStore = store;
      auto dr = driver::differentiate(*primal, spec.independents,
                                      spec.dependents, dopts);
      std::string t = core::describe(dr.analysis, /*includeTiming=*/false) +
                      core::describeTiers(dr.analysis) +
                      dr.raceReport.describe() + ir::printKernel(*dr.adjoint);
      for (const auto& w : dr.warnings) t += w + "\n";
      return t;
    };
    const std::string reference = transcript(1, nullptr);
    smt::PersistentVerdictStore store("");  // cold at 1 thread, then warm
    for (int threads : kThreadCounts) {
      EXPECT_EQ(transcript(threads, nullptr), reference)
          << driver::to_string(mode) << ", " << threads << " threads";
      EXPECT_EQ(transcript(threads, &store), reference)
          << driver::to_string(mode) << ", " << threads
          << " threads over a store";
    }
  }
}

TEST(Conformance, SerialWalkEvaluatesOnlyWhatReplayReads) {
  const kernels::KernelSpec spec = sharedPairSpec();
  auto primal = parser::parseKernel(spec.source);
  driver::DriverOptions dopts;
  dopts.analysisThreads = 1;
  const auto a = driver::analyze(*primal, spec.independents, spec.dependents,
                                 dopts);
  // Batches alone, learning in plan order, would make 8 checks and skip 10.
  EXPECT_EQ(a.freshSolverChecks(), 5);
  EXPECT_EQ(a.tasksSkipped(), 12);
}

// --- fast-path conformance: -fastpath must be invisible in the report ---
//
// The tiered deciders claim exactness, so the whole transcript (verdicts,
// query counts, witnesses, refusals) must be byte-identical between
// -fastpath=off and the syntactic/full tiers at every thread count.

void expectFastPathInvariant(const kernels::KernelSpec& spec) {
  for (int threads : kThreadCounts) {
    const Transcript off = runDriver(spec, threads, smt::FastPathMode::Off);
    for (smt::FastPathMode mode :
         {smt::FastPathMode::Syntactic, smt::FastPathMode::Full}) {
      const Transcript fast = runDriver(spec, threads, mode);
      EXPECT_EQ(off.analysis, fast.analysis)
          << spec.name << " analysis report diverges from -fastpath=off at "
          << smt::to_string(mode) << ", " << threads << " threads";
      EXPECT_EQ(off.racecheck, fast.racecheck)
          << spec.name << " race-check report diverges from -fastpath=off at "
          << smt::to_string(mode) << ", " << threads << " threads";
      EXPECT_EQ(off.warnings, fast.warnings)
          << spec.name << " warnings diverge from -fastpath=off at "
          << smt::to_string(mode) << ", " << threads << " threads";
      EXPECT_EQ(off.error, fast.error)
          << spec.name << " refusal diverges from -fastpath=off at "
          << smt::to_string(mode) << ", " << threads << " threads";
    }
  }
}

TEST(Conformance, FastPathModesAgreeOnWideStencil) {
  expectFastPathInvariant(stencilHarness(3, 96, 7).spec);
}

TEST(Conformance, FastPathModesAgreeOnLbm) {
  expectFastPathInvariant(lbmHarness(7).spec);
}

TEST(Conformance, FastPathModesAgreeOnGreenGauss) {
  expectFastPathInvariant(greenGaussHarness(32, 7).spec);
}

TEST(Conformance, FastPathModesAgreeOnRacyMutant) {
  // Refusals carry SMT-derived witness text; the fast path must not change
  // a single byte of it.
  expectFastPathInvariant(kernels::stencilStrideRacySpec());
}

// --- abstract interpreter conformance ---
//
// -absint=on must be a pure function of the kernel too: the whole driver
// transcript (analysis, race check, warnings, refusals) byte-identical at
// every thread count. (-absint=off is the default, so the tests above
// already pin the off path.)

void expectAbsintThreadInvariant(const kernels::KernelSpec& spec) {
  const Transcript serial =
      runDriver(spec, 1, smt::FastPathMode::Full, /*absint=*/true);
  for (int threads : kThreadCounts) {
    if (threads == 1) continue;
    const Transcript parallel =
        runDriver(spec, threads, smt::FastPathMode::Full, /*absint=*/true);
    EXPECT_EQ(serial.analysis, parallel.analysis)
        << spec.name << " absint=on analysis report diverges at " << threads
        << " threads";
    EXPECT_EQ(serial.racecheck, parallel.racecheck)
        << spec.name << " absint=on race-check report diverges at "
        << threads << " threads";
    EXPECT_EQ(serial.warnings, parallel.warnings)
        << spec.name << " absint=on warnings diverge at " << threads
        << " threads";
    EXPECT_EQ(serial.error, parallel.error)
        << spec.name << " absint=on refusal diverges at " << threads
        << " threads";
  }
}

TEST(Conformance, AbsintOnWideStencil) {
  expectAbsintThreadInvariant(stencilHarness(3, 96, 7).spec);
}

TEST(Conformance, AbsintOnLbm) {
  expectAbsintThreadInvariant(lbmHarness(7).spec);
}

TEST(Conformance, AbsintOnGfmcFused) {
  expectAbsintThreadInvariant(gfmcHarness(true, 7).spec);
}

TEST(Conformance, AbsintOnRacyMutant) {
  expectAbsintThreadInvariant(kernels::stencilStrideRacySpec());
}

// --- racy mutants: the refusal (witnesses included) must match too ---

TEST(Conformance, StencilRacyMutant) {
  const kernels::KernelSpec spec = kernels::stencilRacySpec();
  const Transcript t = runDriver(spec, 1);
  EXPECT_FALSE(t.error.empty()) << "mutant should be refused";
  expectThreadInvariant(spec);
}

TEST(Conformance, StencilStrideRacyMutant) {
  expectThreadInvariant(kernels::stencilStrideRacySpec());
}

TEST(Conformance, LbmRacyMutant) {
  expectThreadInvariant(kernels::lbmRacySpec());
}

TEST(Conformance, GatherRacyMutant) {
  expectThreadInvariant(kernels::gatherRacySpec());
}

TEST(Conformance, SumRacyMutant) {
  expectThreadInvariant(kernels::sumRacySpec());
}

// --- differential fuzzer ---
//
// Each seed draws one kernel from the shared generator and checks two
// independent kinds of agreement:
//   (a) analysis: the timing-free FormAD report at 1 thread vs 4 threads;
//   (b) execution: adjoint gradients under the three engine configurations.
// 200 seeds; zero disagreements tolerated.

class DifferentialFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(DifferentialFuzz, SerialAndParallelAnalysesAgree) {
  const Harness h = randomHarness(GetParam());
  auto primal = h.parse();
  driver::DriverOptions opts;
  opts.analysisThreads = 1;
  auto serial =
      driver::analyze(*primal, h.spec.independents, h.spec.dependents, opts);
  opts.analysisThreads = 4;
  auto parallel =
      driver::analyze(*primal, h.spec.independents, h.spec.dependents, opts);
  EXPECT_EQ(core::describe(serial, false), core::describe(parallel, false))
      << "seed " << GetParam();
}

TEST_P(DifferentialFuzz, EnginesAgreeOnAdjointGradients) {
  const Harness h = randomHarness(GetParam());
  const unsigned seed = GetParam() * 101 + 3;

  ExecOptions tree;
  tree.engine = ExecEngine::TreeWalk;
  ExecOptions byte;
  byte.engine = ExecEngine::Bytecode;
  ExecOptions omp;
  omp.engine = ExecEngine::Bytecode;
  omp.mode = ExecMode::OpenMP;
  omp.numThreads = 4;

  auto gTree = adjointGradients(h, AdjointMode::FormAD, tree, seed);
  auto gByte = adjointGradients(h, AdjointMode::FormAD, byte, seed);
  auto gOmp = adjointGradients(h, AdjointMode::FormAD, omp, seed);

  ASSERT_EQ(gTree.size(), gByte.size());
  ASSERT_EQ(gTree.size(), gOmp.size());
  ASSERT_FALSE(gTree.empty());
  size_t nonzero = 0;
  for (const auto& [name, tv] : gTree)
    for (double x : tv)
      if (x != 0.0) ++nonzero;
  EXPECT_GT(nonzero, 0u) << "seed " << GetParam()
                         << " produced an all-zero gradient — the "
                            "comparison below would be vacuous";
  for (const auto& [name, tv] : gTree) {
    const auto& bv = gByte.at(name);
    const auto& ov = gOmp.at(name);
    ASSERT_EQ(tv.size(), bv.size()) << name;
    ASSERT_EQ(tv.size(), ov.size()) << name;
    for (size_t i = 0; i < tv.size(); ++i) {
      EXPECT_LT(relDiff(tv[i], bv[i]), 1e-12)
          << "seed " << GetParam() << " " << name << "[" << i
          << "] treewalk vs bytecode";
      EXPECT_LT(relDiff(tv[i], ov[i]), 1e-12)
          << "seed " << GetParam() << " " << name << "[" << i
          << "] serial vs openmp";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz, ::testing::Range(1u, 201u));

}  // namespace
}  // namespace formad::testing
