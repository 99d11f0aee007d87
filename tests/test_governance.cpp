// Resource governance: solver step budgets, cooperative cancellation, and
// graceful degradation to atomic adjoints.
//
// The contract under test, end to end:
//   - budgets are deterministic (counted solver steps, never wall-clock),
//     so a budget-exhausted Unknown is a pure function of the conjunction;
//   - every governance outcome degrades toward safety: exhausted checks
//     and cancelled pairs keep atomic adjoints / undecided race pairs,
//     and the generated adjoint stays numerically correct;
//   - a budget-limited Unknown can never poison a larger-budget run
//     through the shared verdict cache;
//   - a task exception or fired deadline cancels the rest of a pool run
//     cooperatively — no hang, no half-merged state;
//   - with everything at its default (unlimited) setting the reports are
//     byte-identical to the pre-governance analyzer at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "driver/driver.h"
#include "exec/interp.h"
#include "formad/formad.h"
#include "helpers.h"
#include "kernels/stencil.h"
#include "racecheck/racecheck.h"
#include "smt/budget.h"
#include "smt/diskcache.h"
#include "smt/solver.h"
#include "support/cancel.h"
#include "support/diagnostics.h"
#include "support/pool.h"

namespace formad {
namespace {

using support::CancelToken;
using support::Cancelled;
using support::WorkPool;

// ------------------------------------------------------------ CancelToken

TEST(CancelToken, CancelSetsAndThrowHelperThrows) {
  CancelToken t;
  EXPECT_FALSE(t.cancelled());
  EXPECT_FALSE(t.poll());
  t.throwIfCancelled();  // no-op while clear
  t.cancel();
  EXPECT_TRUE(t.cancelled());
  EXPECT_TRUE(t.poll());
  EXPECT_THROW(t.throwIfCancelled(), Cancelled);
}

TEST(CancelToken, NonPositiveDeadlineCancelsImmediately) {
  CancelToken zero, negative;
  zero.armDeadline(0);
  negative.armDeadline(-5);
  EXPECT_TRUE(zero.cancelled());
  EXPECT_TRUE(negative.cancelled());
}

TEST(CancelToken, DeadlineTripsOnPollAfterExpiry) {
  CancelToken t;
  t.armDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // cancelled() alone never reads the clock; poll() does and latches.
  EXPECT_TRUE(t.poll());
  EXPECT_TRUE(t.cancelled());

  CancelToken far;
  far.armDeadline(60000);
  EXPECT_FALSE(far.poll());
}

// -------------------------------------------------------------- StepBudget

TEST(StepBudget, ChargesUpToLimitThenThrows) {
  smt::StepBudget b;
  b.arm(5, nullptr);
  for (int k = 0; k < 5; ++k) b.charge();
  EXPECT_EQ(b.used(), 5);
  EXPECT_THROW(b.charge(), smt::StepLimitReached);
}

TEST(StepBudget, UnlimitedNeverThrows) {
  smt::StepBudget b;
  b.arm(0, nullptr);
  for (int k = 0; k < 100000; ++k) b.charge();
  EXPECT_EQ(b.used(), 100000);
}

TEST(StepBudget, PollsCancelTokenPeriodically) {
  CancelToken cancel;
  cancel.cancel();
  smt::StepBudget b;
  b.arm(0, &cancel);
  // The token is polled every few hundred steps, not per charge; an
  // unlimited budget with a fired token must still unwind promptly.
  EXPECT_THROW(
      {
        for (int k = 0; k < 100000; ++k) b.charge();
      },
      Cancelled);
}

// ----------------------------------------------------------- VerdictRecord

TEST(VerdictRecordBudget, SufficiencyGuardSemantics) {
  using smt::VerdictRecord;
  // Complete verdict that consumed 10 steps: serveable to any budget that
  // could have afforded the solve.
  VerdictRecord complete{smt::CheckResult::Unsat, 2, /*complete=*/true,
                         /*steps=*/10};
  EXPECT_TRUE(complete.sufficientFor(0));  // unlimited
  EXPECT_TRUE(complete.sufficientFor(10));
  EXPECT_TRUE(complete.sufficientFor(1000));
  EXPECT_FALSE(complete.sufficientFor(9));

  // Exhausted at limit 10: any limit <= 10 exhausts too (steps are
  // deterministic), but a larger or unlimited budget must re-derive.
  VerdictRecord exhausted{smt::CheckResult::Unknown, 2, /*complete=*/false,
                          /*steps=*/10};
  EXPECT_TRUE(exhausted.sufficientFor(10));
  EXPECT_TRUE(exhausted.sufficientFor(5));
  EXPECT_FALSE(exhausted.sufficientFor(11));
  EXPECT_FALSE(exhausted.sufficientFor(0));  // unlimited

  // The upgrade rule: complete beats exhausted, a larger exhaustion limit
  // beats a smaller one, and nothing beats a complete record.
  VerdictRecord exhaustedLater = exhausted;
  exhaustedLater.steps = 20;
  EXPECT_TRUE(complete.upgrades(exhausted));
  EXPECT_TRUE(exhaustedLater.upgrades(exhausted));
  EXPECT_FALSE(exhausted.upgrades(exhaustedLater));
  EXPECT_FALSE(exhausted.upgrades(complete));
  EXPECT_FALSE(complete.upgrades(complete));
}

/// A conjunction whose full solve needs several pivot steps and is truly
/// Unsat: a = b = c = d with 4a == 10 has no integer solution.
void addChain(smt::Solver& s, const std::vector<smt::AtomId>& v) {
  using smt::Constraint;
  using smt::LinExpr;
  using smt::Rational;
  s.add(Constraint::eq(LinExpr::atom(v[0]), LinExpr::atom(v[1])));
  s.add(Constraint::eq(LinExpr::atom(v[1]), LinExpr::atom(v[2])));
  s.add(Constraint::eq(LinExpr::atom(v[2]), LinExpr::atom(v[3])));
  s.add(Constraint::eq(LinExpr::atom(v[0]) + LinExpr::atom(v[1]) +
                           LinExpr::atom(v[2]) + LinExpr::atom(v[3]),
                       LinExpr(Rational(10))));
}

TEST(VerdictStoreBudget, ExhaustedRecordNeverPoisonsLargerBudget) {
  smt::AtomTable atoms;
  std::vector<smt::AtomId> v;
  for (int k = 0; k < 4; ++k)
    v.push_back(atoms.internVar("v" + std::to_string(k), 0, false));
  smt::PersistentVerdictStore store("");

  // Raw solvers over the store, fast path off as in a pure-SMT solver; the
  // starved ones get one step, not enough for the pivot chain.
  const smt::CheckPolicy unlimited{.fastpath = smt::FastPathMode::Off,
                                   .store = &store};
  const smt::CheckPolicy oneStep{
      .fastpath = smt::FastPathMode::Off, .stepBudget = 1, .store = &store};
  smt::Solver starved(atoms, oneStep, nullptr);
  addChain(starved, v);
  EXPECT_EQ(starved.check(), smt::CheckResult::Unknown);
  // The solver's record of the check is the record the store keeps: tier
  // 2, incomplete, exhausted at the step limit.
  const smt::VerdictRecord exhausted{smt::CheckResult::Unknown, 2, false, 1};
  EXPECT_EQ(starved.lastCheck(), exhausted);
  EXPECT_EQ(store.loadCheck(starved.stackKey(), 1), exhausted);
  EXPECT_EQ(starved.stats().budgetExhausted, 1);

  // Unlimited solver over the same store and conjunction: the exhausted
  // record is budget-insufficient, so it re-derives the real verdict.
  smt::Solver full(atoms, unlimited, nullptr);
  addChain(full, v);
  EXPECT_EQ(full.check(), smt::CheckResult::Unsat);
  EXPECT_TRUE(full.lastCheck().complete);
  EXPECT_GT(full.lastCheck().steps, 1);
  EXPECT_EQ(store.loadCheck(full.stackKey(), 0), full.lastCheck());

  // A second starved solver cannot use the upgraded complete verdict, so
  // it derives the same exhaustion record, and a second unlimited solver
  // is served the complete one — either way the answers match what each
  // budget would derive on its own.
  smt::Solver starved2(atoms, oneStep, nullptr);
  addChain(starved2, v);
  EXPECT_EQ(starved2.check(), smt::CheckResult::Unknown);
  EXPECT_EQ(starved2.stats().cacheHits, 0);
  EXPECT_EQ(starved2.lastCheck(), exhausted);

  smt::Solver full2(atoms, unlimited, nullptr);
  addChain(full2, v);
  EXPECT_EQ(full2.check(), smt::CheckResult::Unsat);
  EXPECT_EQ(full2.stats().cacheHits, 1);
  EXPECT_EQ(full2.lastCheck(), full.lastCheck());
}

// ---------------------------------------------------------------- WorkPool

TEST(WorkPoolCancel, FirstExceptionCancelsRestAtWidth4) {
  WorkPool pool(4);
  CancelToken cancel;
  std::atomic<size_t> executed{0};
  const size_t n = 64;
  bool threw = false;
  try {
    pool.run(
        n,
        [&](size_t task, int) {
          if (task == 0) throw std::runtime_error("task 0 failed");
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          executed.fetch_add(1);
        },
        &cancel);
  } catch (const std::runtime_error& e) {
    threw = true;
    EXPECT_STREQ(e.what(), "task 0 failed");
  }
  EXPECT_TRUE(threw);
  EXPECT_TRUE(cancel.cancelled()) << "the failure must fire the token";
  // Every non-throwing task either executed or was skipped — the skip
  // accounting is what lets callers degrade unfinished work conservatively.
  EXPECT_EQ(executed.load() + pool.lastRunSkipped(), n - 1);
  EXPECT_GT(pool.lastRunSkipped(), 0u)
      << "with 63 sleeping tasks on 4 workers, the abort must skip some";

  // The pool stays usable for the next run.
  std::atomic<size_t> after{0};
  pool.run(8, [&](size_t, int) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8u);
  EXPECT_EQ(pool.lastRunSkipped(), 0u);
}

TEST(WorkPoolCancel, ExceptionAtWidth1StopsTheInlineLoop) {
  WorkPool pool(1);
  std::atomic<size_t> executed{0};
  EXPECT_THROW(pool.run(8,
                        [&](size_t task, int) {
                          if (task == 3) throw std::runtime_error("boom");
                          executed.fetch_add(1);
                        }),
               std::runtime_error);
  // The inline serial path unwinds at the throw: tasks 0..2 ran, nothing
  // after task 3 did.
  EXPECT_EQ(executed.load(), 3u);
}

TEST(WorkPoolCancel, PreCancelledTokenSkipsEveryTask) {
  for (int width : {1, 4}) {
    WorkPool pool(width);
    CancelToken cancel;
    cancel.cancel();
    std::atomic<size_t> executed{0};
    pool.run(
        16, [&](size_t, int) { executed.fetch_add(1); }, &cancel);
    EXPECT_EQ(executed.load(), 0u) << "width " << width;
    EXPECT_EQ(pool.lastRunSkipped(), 16u) << "width " << width;
  }
}

TEST(WorkPoolCancel, DeadlineTokenStopsALongRun) {
  WorkPool pool(4);
  CancelToken cancel;
  cancel.armDeadline(5);
  std::atomic<size_t> executed{0};
  pool.run(
      1000,
      [&](size_t, int) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        executed.fetch_add(1);
      },
      &cancel);
  // Liveness, not a precise count: the run returned (no hang) and the
  // deadline prevented the full grind through 1000 ms of work.
  EXPECT_EQ(executed.load() + pool.lastRunSkipped(), 1000u);
  EXPECT_GT(pool.lastRunSkipped(), 0u);
}

// ---------------------------------------------- degradation, end to end

driver::DriverOptions starvedOptions(long long budget) {
  driver::DriverOptions opts;
  opts.analysisThreads = 1;
  // The tiered fast paths answer stencil queries without solver steps, so
  // starve the full solver specifically.
  opts.checks.fastpath = smt::FastPathMode::Off;
  opts.checks.stepBudget = budget;
  return opts;
}

TEST(Degradation, ExhaustedBudgetMarksVariablesAtomicWithReason) {
  auto spec = kernels::stencilSpec(2);
  auto kernel = parser::parseKernel(spec.source);
  auto a = driver::analyze(*kernel, spec.independents, spec.dependents,
                           starvedOptions(1));
  EXPECT_GT(a.budgetExhaustedChecks(), 0);
  EXPECT_GT(a.degradedPairs(), 0);
  bool sawReason = false;
  for (const auto& r : a.regions) {
    // An exhausted consistency probe is Unknown, not Unsat: no
    // contradiction claim may appear under starvation.
    EXPECT_TRUE(r.knowledgeContradiction.empty());
    for (const auto& v : r.vars)
      if (!v.safe && v.unsafeReason == "step budget exhausted")
        sawReason = true;
  }
  EXPECT_TRUE(sawReason);

  // The unlimited analysis proves the same kernel fully safe — the budget
  // is the only thing in the way.
  auto full = driver::analyze(*kernel, spec.independents, spec.dependents,
                              starvedOptions(0));
  EXPECT_EQ(full.budgetExhaustedChecks(), 0);
  EXPECT_EQ(full.degradedPairs(), 0);
  for (const auto& r : full.regions)
    for (const auto& v : r.vars) EXPECT_TRUE(v.safe) << v.var;
}

TEST(Degradation, BudgetedVerdictsAreThreadCountInvariant) {
  auto spec = kernels::stencilSpec(2);
  auto kernel = parser::parseKernel(spec.source);
  std::string reference;
  for (int threads : {1, 2, 4}) {
    auto opts = starvedOptions(1);
    opts.analysisThreads = threads;
    auto a = driver::analyze(*kernel, spec.independents, spec.dependents,
                             opts);
    std::string report =
        core::describe(a, /*includeTiming=*/false) + core::describeTiers(a);
    if (reference.empty()) reference = report;
    EXPECT_EQ(report, reference) << "threads " << threads;
  }
}

/// Gradients of the harness kernel computed by the adjoint `dopts` builds,
/// executed with `engine`; the adjoint seed is deterministic so runs are
/// comparable across modes and engines.
std::map<std::string, std::vector<double>> gradientsWith(
    const testing::Harness& h, const driver::DriverOptions& dopts,
    exec::ExecEngine engine) {
  auto primal = h.parse();
  auto dr = driver::differentiate(*primal, h.spec.independents,
                                  h.spec.dependents, dopts);
  exec::Inputs aio;
  h.bind(aio);
  for (const auto& [p, pb] : dr.adjointParams) {
    const exec::ArrayValue& src = aio.array(p);
    std::vector<long long> dims;
    for (int k = 0; k < src.rank(); ++k) dims.push_back(src.dim(k));
    exec::ArrayValue& a = aio.bindArray(pb, exec::ArrayValue::reals(dims));
    if (std::find(h.spec.dependents.begin(), h.spec.dependents.end(), p) !=
        h.spec.dependents.end()) {
      auto& yb = a.realData();
      for (size_t k = 0; k < yb.size(); ++k)
        yb[k] = 0.25 + 0.001 * static_cast<double>(k % 97);
    }
  }
  exec::Executor aex(*dr.adjoint);
  exec::ExecOptions eopts;
  eopts.engine = engine;
  exec::ExecStats st = aex.run(aio, eopts);
  EXPECT_TRUE(st.tapeDrained);
  std::map<std::string, std::vector<double>> out;
  for (const auto& [p, pb] : dr.adjointParams)
    out[p] = aio.array(pb).realData();
  return out;
}

TEST(Degradation, StarvedAdjointStaysNumericallyCorrectOnBothEngines) {
  testing::Harness h = testing::stencilHarness(2, 64, 7);

  // Reference: the all-atomic adjoint, correct by construction.
  driver::DriverOptions atomicOpts;
  atomicOpts.mode = driver::AdjointMode::Atomic;
  auto reference =
      gradientsWith(h, atomicOpts, exec::ExecEngine::TreeWalk);

  // Candidate: FormAD under a starved budget — every degraded pair falls
  // back to an atomic guard, so the derivatives must match exactly.
  auto starved = starvedOptions(1);
  starved.mode = driver::AdjointMode::FormAD;
  for (auto engine : {exec::ExecEngine::TreeWalk, exec::ExecEngine::Bytecode}) {
    auto got = gradientsWith(h, starved, engine);
    ASSERT_EQ(got.size(), reference.size());
    for (const auto& [name, want] : reference) {
      ASSERT_TRUE(got.count(name)) << name;
      const auto& have = got.at(name);
      ASSERT_EQ(have.size(), want.size()) << name;
      for (size_t k = 0; k < want.size(); ++k)
        EXPECT_LT(testing::relDiff(have[k], want[k]), 1e-12)
            << name << "[" << k << "]";
    }
  }
}

TEST(Degradation, StarvedDifferentiateWarnsButBuildsTheAdjoint) {
  auto spec = kernels::stencilSpec(2);
  auto kernel = parser::parseKernel(spec.source);
  auto dopts = starvedOptions(1);
  dopts.mode = driver::AdjointMode::FormAD;
  auto dr = driver::differentiate(*kernel, spec.independents, spec.dependents,
                                  dopts);
  ASSERT_NE(dr.adjoint, nullptr);
  bool warned = false;
  for (const auto& w : dr.warnings)
    if (w.find("degraded under resource limits") != std::string::npos)
      warned = true;
  EXPECT_TRUE(warned) << "graceful degradation must never be silent";
}

TEST(Degradation, TinyDeadlineReturnsPromptlyAndSoundly) {
  auto spec = kernels::stencilSpec(8);
  auto kernel = parser::parseKernel(spec.source);
  for (int threads : {1, 4}) {
    driver::DriverOptions opts;
    opts.analysisThreads = threads;
    opts.checks.deadlineMs = 1;
    // Liveness contract only: the analysis returns (instead of hanging) and
    // whatever it could not finish is conservatively unsafe with a reason.
    auto a =
        driver::analyze(*kernel, spec.independents, spec.dependents, opts);
    for (const auto& r : a.regions)
      for (const auto& v : r.vars) {
        if (!v.safe) {
          EXPECT_FALSE(v.unsafeReason.empty()) << threads << " threads";
        }
      }
  }
}

// ---------------------------------------------------------- fault injection

TEST(FaultInjection, ForcedUnknownDegradesLikeBudgetExhaustion) {
  auto spec = kernels::stencilSpec(2);
  auto kernel = parser::parseKernel(spec.source);
  smt::FaultInject fault;
  fault.unknownAtCheck = 1;
  driver::DriverOptions opts;
  opts.analysisThreads = 1;
  opts.checks.faultInject = &fault;
  auto a = driver::analyze(*kernel, spec.independents, spec.dependents, opts);
  EXPECT_GT(a.budgetExhaustedChecks(), 0)
      << "the injected Unknown must surface in the governance counters";
  EXPECT_GT(fault.checksSeen.load(), 0);
}

TEST(FaultInjection, ForcedThrowPropagatesWithoutHangingThePool) {
  auto spec = kernels::stencilSpec(2);
  auto kernel = parser::parseKernel(spec.source);
  smt::FaultInject fault;
  fault.throwAtCheck = 3;
  driver::DriverOptions opts;
  opts.mode = driver::AdjointMode::FormAD;
  opts.analysisThreads = 4;  // the interesting case: workers must unwind
  opts.checks.faultInject = &fault;
  try {
    auto dr = driver::differentiate(*kernel, spec.independents,
                                    spec.dependents, opts);
    FAIL() << "the injected fault must propagate";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("injected solver fault"),
              std::string::npos)
        << e.what();
  }
}

// CheckPolicy::servingStore is the one rule that keeps injected verdicts
// out of the store, in both analyses: with a fault harness set, neither
// FormAD exploitation nor the race checker loads, claims or stores a
// record, at any width, while the injected Unknown still surfaces.
TEST(FaultInjection, InjectedFaultsNeverReachTheStore) {
  auto spec = kernels::stencilSpec(2);
  auto kernel = parser::parseKernel(spec.source);
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    smt::PersistentVerdictStore store("");
    smt::FaultInject analyzeFault, raceFault;
    analyzeFault.unknownAtCheck = raceFault.unknownAtCheck = 1;
    driver::DriverOptions opts;
    opts.analysisThreads = threads;
    opts.checks.store = &store;
    opts.checks.faultInject = &analyzeFault;
    const auto a =
        driver::analyze(*kernel, spec.independents, spec.dependents, opts);
    EXPECT_GT(a.budgetExhaustedChecks(), 0);
    opts.checks.faultInject = &raceFault;
    const auto races = driver::checkRaces(*kernel, opts);
    ASSERT_EQ(races.regions.size(), 1u);
    EXPECT_GT(races.regions[0].budgetExhaustedChecks, 0);

    const auto s = store.stats();
    for (long long counter :
         {s.checkHits, s.checkMisses, s.checkStores, s.taskHits,
          s.taskMisses, s.taskStores, s.flightClaims})
      EXPECT_EQ(counter, 0);
  }
}

// ------------------------------------------- race checker governance
//
// driver::checkRaces runs the race checker on one pool path at every width
// (width 1 is one inline worker), so a budget, a fault and a cancellation
// degrade it alike at widths 1 and 4. Stencil r=2 has 16 converse pairs.

class StencilRaces {
 public:
  [[nodiscard]] racecheck::RaceReport check(
      int threads, driver::DriverOptions opts) const {
    opts.analysisThreads = threads;
    return driver::checkRaces(*kernel_, opts);
  }
  /// The race checker itself, on a pool of `threads` workers.
  [[nodiscard]] racecheck::RaceReport check(
      int threads, racecheck::RaceCheckOptions opts) const {
    WorkPool pool(threads);
    opts.pool = &pool;
    return racecheck::checkKernelRaces(*kernel_, opts);
  }

 private:
  // The report points into the kernel, which must outlive it.
  std::unique_ptr<ir::Kernel> kernel_ =
      parser::parseKernel(kernels::stencilSpec(2).source);
};

TEST(RaceCheckGovernance, StarvedBudgetLeavesEveryPairUndecided) {
  const StencilRaces races;
  driver::DriverOptions opts;
  opts.checks.fastpath = smt::FastPathMode::Off;
  opts.checks.stepBudget = 1;
  std::vector<std::string> described;
  for (int threads : {1, 4}) {
    const auto report = races.check(threads, opts);
    ASSERT_EQ(report.regions.size(), 1u);
    const auto& r = report.regions[0];
    EXPECT_EQ(report.overall(), racecheck::RaceVerdict::Unknown);
    EXPECT_EQ(r.budgetExhaustedChecks, 16) << threads << " threads";
    EXPECT_EQ(r.degradedPairs, 16) << threads << " threads";
    EXPECT_EQ(r.undecided.size(), 16u) << threads << " threads";
    for (const auto& u : r.undecided)
      EXPECT_EQ(u.reason, "solver step budget exhausted");
    described.push_back(report.describe());
  }
  EXPECT_EQ(described[0], described[1]);
}

TEST(RaceCheckGovernance, InjectedThrowFailsTheRegion) {
  const StencilRaces races;
  for (int threads : {1, 4}) {
    smt::FaultInject fault;
    fault.throwAtCheck = 1;
    driver::DriverOptions opts;
    opts.checks.faultInject = &fault;
    const auto report = races.check(threads, opts);
    ASSERT_EQ(report.regions.size(), 1u);
    const auto& r = report.regions[0];
    EXPECT_EQ(r.verdict, racecheck::RaceVerdict::Unknown);
    ASSERT_EQ(r.undecided.size(), 1u) << threads << " threads";
    EXPECT_NE(r.undecided[0].reason.find("injected solver fault"),
              std::string::npos)
        << r.undecided[0].reason;
  }
}

TEST(RaceCheckGovernance, PreCancelledTokenSkipsEveryPair) {
  const StencilRaces races;
  for (int threads : {1, 4}) {
    CancelToken token;
    token.cancel();
    racecheck::RaceCheckOptions opts;
    opts.cancel = &token;
    const auto report = races.check(threads, opts);
    ASSERT_EQ(report.regions.size(), 1u);
    const auto& r = report.regions[0];
    EXPECT_EQ(r.queries, 0) << threads << " threads";
    EXPECT_EQ(r.degradedPairs, 16) << threads << " threads";
    ASSERT_EQ(r.undecided.size(), 16u) << threads << " threads";
    for (const auto& u : r.undecided)
      EXPECT_EQ(u.reason, "cancelled before evaluation (deadline or failure)");
  }
}

TEST(RaceCheckGovernance, FastPathModeReachesTheChecker) {
  // Records of a non-default fast-path mode are keyed apart from Full's:
  // after an Off run, a Full run must write records of its own, and a
  // repeated Off run must find every record it needs.
  const StencilRaces races;
  for (int threads : {1, 4}) {
    smt::PersistentVerdictStore store("");
    driver::DriverOptions opts;
    opts.checks.store = &store;
    opts.checks.fastpath = smt::FastPathMode::Off;
    (void)races.check(threads, opts);
    const long long afterOff = store.stats().checkStores;
    opts.checks.fastpath = smt::FastPathMode::Full;
    (void)races.check(threads, opts);
    const long long afterFull = store.stats().checkStores;
    EXPECT_GT(afterFull, afterOff) << threads << " threads";
    opts.checks.fastpath = smt::FastPathMode::Off;
    (void)races.check(threads, opts);
    EXPECT_EQ(store.stats().checkStores, afterFull) << threads << " threads";
  }
}

// ------------------------------------------------------- default identity

TEST(DefaultGovernance, UnlimitedBudgetReportsAreByteIdenticalToDefaults) {
  auto spec = kernels::stencilSpec(2);
  auto kernel = parser::parseKernel(spec.source);
  // The library's default entry point: no driver options at all.
  auto base = core::analyzeKernel(*kernel, spec.independents, spec.dependents);
  for (int threads : {1, 2, 4, 8}) {
    driver::DriverOptions opts;
    opts.analysisThreads = threads;
    opts.checks.stepBudget = 0;
    opts.checks.deadlineMs = 0;
    auto gov =
        driver::analyze(*kernel, spec.independents, spec.dependents, opts);
    EXPECT_EQ(core::describe(base, false) + core::describeTiers(base),
              core::describe(gov, false) + core::describeTiers(gov))
        << "threads " << threads;
    EXPECT_EQ(gov.budgetExhaustedChecks(), 0);
    EXPECT_EQ(gov.degradedPairs(), 0);
  }
}

}  // namespace
}  // namespace formad
