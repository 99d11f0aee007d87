// Differential suite for the Hybrid safeguard (driver::AdjointMode::Hybrid).
//
// Hybrid consumes the per-(var, access-site) verdict map: increments whose
// every pair proved disjoint stay plainly shared; only the residual
// unproven sites are guarded (atomic or thread-local accumulation, cost
// model's pick). Whatever mix the builder chooses, the numbers must be the
// numbers: on every paper kernel the hybrid gradients match the serial and
// the all-atomic references within 1e-12 relative error under both
// execution engines and multiple OpenMP threads; on the deliberately racy
// mutants (executed serially — their parallel primal is nondeterministic
// by construction) hybrid still reproduces the serial reference; and a
// budget-starved hybrid — every site degraded — agrees with the unstarved
// one that proves everything.
//
// Tolerance rationale (same as test_openmp_exec.cpp): reduction-guarded
// accumulation merges thread-private copies at the join point, which
// reassociates floating-point sums; 1e-12 relative is far above round-off
// at these sizes and far below any real disagreement.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "helpers.h"
#include "kernels/mutants.h"

namespace formad::testing {
namespace {

using driver::AdjointMode;
using exec::ExecEngine;
using exec::ExecMode;
using exec::ExecOptions;

struct Case {
  std::string name;
  Harness harness;
};

/// The six paper kernels (Sec. 7 of the paper plus the indirect gather).
std::vector<Case> paperKernels() {
  std::vector<Case> cases;
  cases.push_back({"small_stencil", stencilHarness(2, 128, 11)});
  cases.push_back({"large_stencil", stencilHarness(8, 192, 11)});
  cases.push_back({"lbm", lbmHarness(11)});
  cases.push_back({"gfmc_split", gfmcHarness(false, 11)});
  cases.push_back({"greengauss", greenGaussHarness(48, 11)});
  cases.push_back({"indirect", indirectHarness(96, 11)});
  return cases;
}

void expectSameGradients(
    const std::map<std::string, std::vector<double>>& ref,
    const std::map<std::string, std::vector<double>>& got,
    const std::string& context) {
  ASSERT_EQ(ref.size(), got.size()) << context;
  for (const auto& [var, rv] : ref) {
    ASSERT_TRUE(got.count(var)) << context << "." << var;
    const auto& gv = got.at(var);
    ASSERT_EQ(rv.size(), gv.size()) << context << "." << var;
    for (size_t i = 0; i < rv.size(); ++i)
      EXPECT_LT(relDiff(rv[i], gv[i]), 1e-12)
          << context << "." << var << "[" << i << "]";
  }
}

class HybridExec
    : public ::testing::TestWithParam<std::pair<ExecEngine, int>> {};

TEST_P(HybridExec, GradientsMatchSerialAndAtomicOnPaperKernels) {
  const auto [engine, threads] = GetParam();
  ASSERT_GT(threads, 1) << "this suite exists to exercise numThreads > 1";

  ExecOptions serial;
  serial.engine = engine;
  serial.mode = ExecMode::Serial;

  ExecOptions omp;
  omp.engine = engine;
  omp.mode = ExecMode::OpenMP;
  omp.numThreads = threads;

  for (const Case& c : paperKernels()) {
    const std::string ctx =
        c.name + " @" + std::to_string(threads) + "T " +
        (engine == ExecEngine::Bytecode ? "bytecode" : "treewalk");
    auto ref = adjointGradients(c.harness, AdjointMode::Serial, serial, 5);
    auto atomic = adjointGradients(c.harness, AdjointMode::Atomic, omp, 5);
    auto hybrid = adjointGradients(c.harness, AdjointMode::Hybrid, omp, 5);
    expectSameGradients(ref, hybrid, ctx + " (vs serial)");
    expectSameGradients(atomic, hybrid, ctx + " (vs atomic)");
  }
}

INSTANTIATE_TEST_SUITE_P(
    EnginesAndThreads, HybridExec,
    ::testing::Values(std::make_pair(ExecEngine::TreeWalk, 2),
                      std::make_pair(ExecEngine::TreeWalk, 4),
                      std::make_pair(ExecEngine::Bytecode, 2),
                      std::make_pair(ExecEngine::Bytecode, 4)));

// The racy mutants force real residue: their analysis leaves unproven
// pairs, so hybrid must guard. Their parallel primal is nondeterministic,
// so the execution under comparison is serial — what hybrid must preserve
// is the math, not the schedule. (gather_racy is absent by design: its
// knowledge base is contradictory and differentiate() refuses it in every
// mode, hybrid included.)
TEST(HybridRacyMutants, SerialExecutionReproducesTheSerialReference) {
  std::vector<Case> mutants;
  {
    Harness h;
    h.spec = kernels::stencilRacySpec();
    h.bind = [](exec::Inputs& io) {
      kernels::Rng rng(11);
      kernels::bindStencilRacy(io, 96, rng);
    };
    mutants.push_back({"stencil_racy", std::move(h)});
  }
  {
    Harness h;
    h.spec = kernels::stencilStrideRacySpec();
    h.bind = [](exec::Inputs& io) {
      kernels::Rng rng(11);
      kernels::bindStencilStrideRacy(io, 96, rng);
    };
    mutants.push_back({"stencil_stride_racy", std::move(h)});
  }
  {
    Harness h;
    h.spec = kernels::sumRacySpec();
    h.bind = [](exec::Inputs& io) {
      kernels::Rng rng(11);
      kernels::bindSumRacy(io, 64, rng);
    };
    mutants.push_back({"sum_racy", std::move(h)});
  }

  for (ExecEngine engine : {ExecEngine::TreeWalk, ExecEngine::Bytecode}) {
    ExecOptions serial;
    serial.engine = engine;
    serial.mode = ExecMode::Serial;
    for (const Case& c : mutants) {
      const std::string ctx =
          c.name + (engine == ExecEngine::Bytecode ? " bytecode" : " treewalk");
      auto ref = adjointGradients(c.harness, AdjointMode::Serial, serial, 5);
      auto hybrid = adjointGradients(c.harness, AdjointMode::Hybrid, serial, 5);
      expectSameGradients(ref, hybrid, ctx);
    }
  }
}

// Governance must not change the math: a budget-starved hybrid (every
// solver check exhausts after one step, every site degraded to a guard)
// computes the same gradients as the unstarved hybrid that proves every
// site disjoint.
TEST(HybridGovernance, BudgetStarvedAgreesWithUnstarved) {
  driver::DriverOptions starved;
  starved.mode = AdjointMode::Hybrid;
  starved.checks.fastpath = smt::FastPathMode::Off;
  starved.checks.stepBudget = 1;

  driver::DriverOptions unstarved;
  unstarved.mode = AdjointMode::Hybrid;

  for (ExecEngine engine : {ExecEngine::TreeWalk, ExecEngine::Bytecode}) {
    ExecOptions omp;
    omp.engine = engine;
    omp.mode = ExecMode::OpenMP;
    omp.numThreads = 4;
    for (const Case& c : paperKernels()) {
      const std::string ctx =
          c.name + " starved-vs-unstarved" +
          (engine == ExecEngine::Bytecode ? " bytecode" : " treewalk");
      auto full = adjointGradients(c.harness, unstarved, omp, 5);
      auto lean = adjointGradients(c.harness, starved, omp, 5);
      expectSameGradients(full, lean, ctx);
    }
  }
}

}  // namespace
}  // namespace formad::testing
