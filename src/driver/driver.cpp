#include "driver/driver.h"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "support/pool.h"

namespace formad::driver {

using namespace ::formad::ir;

namespace {

/// The check policy a call runs under — the one place a policy is filled:
/// DriverOptions::checks, with the env-gated fault harness of the CI smoke
/// job when it names none. FORMAD_FAULT_UNKNOWN_AT and
/// FORMAD_FAULT_THROW_AT name the 1-based ordinal of the solver check
/// (counted process-wide across driver calls) to force to a
/// budget-exhausted Unknown / a thrown formad::Error.
smt::CheckPolicy checksOf(const DriverOptions& opts) {
  smt::CheckPolicy checks = opts.checks;
  if (checks.faultInject != nullptr) return checks;
  static smt::FaultInject fault;
  static const bool configured = [] {
    if (const char* u = std::getenv("FORMAD_FAULT_UNKNOWN_AT"))
      fault.unknownAtCheck = std::atoll(u);
    if (const char* t = std::getenv("FORMAD_FAULT_THROW_AT"))
      fault.throwAtCheck = std::atoll(t);
    return fault.unknownAtCheck > 0 || fault.throwAtCheck > 0;
  }();
  if (configured) checks.faultInject = &fault;
  return checks;
}

/// The analysis pool a call runs on: the caller's pool when set, else a
/// private WorkPool of the resolved width, held in `owned` (width 1 runs
/// inline and starts no thread).
support::TaskPool* resolvePool(const DriverOptions& opts,
                               std::unique_ptr<support::WorkPool>& owned) {
  if (opts.analysisPool != nullptr) return opts.analysisPool;
  owned = std::make_unique<support::WorkPool>(
      resolveAnalysisThreads(opts.analysisThreads));
  return owned.get();
}

}  // namespace

int resolveThreadRequest(int requested, int autoValue) {
  if (requested < 0)
    fail("analysis threads must be >= 0 (0 = auto-detect), got " +
         std::to_string(requested));
  if (requested == 0) return autoValue;
  return requested;
}

int resolveAnalysisThreads(int requested) {
  return resolveThreadRequest(requested, support::WorkPool::hardwareWidth());
}

ServePoolPlan resolveServePool(int sessions, int analysisThreads,
                               bool allowOversubscribe) {
  if (sessions < 1)
    fail("serve sessions must be >= 1, got " + std::to_string(sessions));
  const int hw = support::WorkPool::hardwareWidth();
  const int autoWorkers = std::max(0, hw - sessions);
  ServePoolPlan plan;
  plan.sessions = sessions;
  plan.poolWorkers = resolveThreadRequest(analysisThreads, autoWorkers);
  if (sessions > hw) {
    plan.warning = std::to_string(sessions) +
                   " sessions exceed hardware concurrency (" +
                   std::to_string(hw) +
                   "); session threads mostly block on IO, so they are kept, "
                   "but expect dispatch contention";
  }
  if (plan.poolWorkers > autoWorkers && !allowOversubscribe) {
    plan.warning = std::to_string(sessions) + " session(s) + " +
                   std::to_string(plan.poolWorkers) +
                   " analysis worker(s) oversubscribe hardware concurrency (" +
                   std::to_string(hw) + "); clamping the shared pool to " +
                   std::to_string(autoWorkers) +
                   " worker(s) — pass -allow-oversubscribe to keep the "
                   "requested width";
    plan.poolWorkers = autoWorkers;
    plan.clamped = true;
  }
  return plan;
}

std::string to_string(AdjointMode mode) {
  switch (mode) {
    case AdjointMode::Serial: return "serial";
    case AdjointMode::Atomic: return "atomic";
    case AdjointMode::Reduction: return "reduction";
    case AdjointMode::FormAD: return "formad";
    case AdjointMode::Hybrid: return "hybrid";
    case AdjointMode::Plain: return "plain";
  }
  return "?";
}

DifferentiateResult differentiate(const Kernel& primal,
                                  const std::vector<std::string>& independents,
                                  const std::vector<std::string>& dependents,
                                  const DriverOptions& dopts) {
  DifferentiateResult result;

  // One worker pool and one check policy for the whole analysis phase:
  // the race checker's converse queries and FormAD's exploitation queries
  // share them, so a driver invocation spins threads up at most once and
  // counts injected faults across both. A caller-owned pool (serving
  // daemon sessions) wins outright — threads spin up once per process, not
  // per request. A mode that runs no analysis starts no pool, but its
  // width is still validated.
  std::unique_ptr<support::WorkPool> ownedPool;
  DriverOptions shared = dopts;
  if (dopts.racecheckPrimal || dopts.mode == AdjointMode::FormAD ||
      dopts.mode == AdjointMode::Hybrid)
    shared.analysisPool = resolvePool(dopts, ownedPool);
  else if (dopts.analysisPool == nullptr)
    (void)resolveAnalysisThreads(dopts.analysisThreads);
  shared.checks = checksOf(dopts);

  if (dopts.racecheckPrimal) {
    result.raceReport = checkRaces(primal, shared);
    long long rcExhausted = 0, rcDegraded = 0;
    for (const auto& region : result.raceReport.regions) {
      rcExhausted += region.budgetExhaustedChecks;
      rcDegraded += region.degradedPairs;
    }
    if (rcExhausted > 0 || rcDegraded > 0)
      result.warnings.push_back(
          "race check of primal '" + primal.name +
          "' degraded under resource limits: " + std::to_string(rcExhausted) +
          " budget-exhausted check(s), " + std::to_string(rcDegraded) +
          " pair(s) left undecided conservatively");
    switch (result.raceReport.overall()) {
      case racecheck::RaceVerdict::Racy: {
        std::string msg = "refusing to differentiate '" + primal.name +
                          "': the primal parallel loop has a data race";
        for (const auto& region : result.raceReport.regions)
          for (const auto& w : region.witnesses) msg += "\n  " + w.render();
        fail(msg);
        break;
      }
      case racecheck::RaceVerdict::Unknown:
        result.warnings.push_back(
            "race check of primal '" + primal.name +
            "' is inconclusive; differentiation proceeds on the usual "
            "assumption that the primal is race-free");
        break;
      case racecheck::RaceVerdict::RaceFree:
        break;
    }
  }

  ad::ReverseOptions opts;
  opts.independents = independents;
  opts.dependents = dependents;
  opts.name = primal.name + "_b_" + to_string(dopts.mode);
  opts.omitTapeFreePrimalSweep = dopts.omitTapeFreePrimalSweep;

  switch (dopts.mode) {
    case AdjointMode::Serial:
      opts.serialize = true;
      break;
    case AdjointMode::Atomic:
      opts.guardPolicy = [](const For&, const std::string&) {
        return Guard::Atomic;
      };
      break;
    case AdjointMode::Reduction:
      opts.guardPolicy = [](const For&, const std::string&) {
        return Guard::Reduction;
      };
      break;
    case AdjointMode::FormAD:
    case AdjointMode::Hybrid: {
      result.analysis = analyze(primal, independents, dependents, shared);
      // Satisfiability safeguard: contradictory knowledge means the primal
      // itself is racy; an adjoint generated from it would inherit the bug.
      for (const auto& r : result.analysis.regions)
        if (!r.knowledgeContradiction.empty())
          fail("refusing to differentiate '" + primal.name + "': " +
               r.knowledgeContradiction);
      // Graceful degradation is never silent: a budget or deadline that
      // forced safeguards gets a warning (the adjoint is correct either
      // way). Hybrid keeps the blast radius per site; classic FormAD keeps
      // whole variables atomic.
      if (result.analysis.budgetExhaustedChecks() > 0 ||
          result.analysis.degradedPairs() > 0)
        result.warnings.push_back(
            "FormAD analysis of '" + primal.name +
            "' degraded under resource limits: " +
            std::to_string(result.analysis.budgetExhaustedChecks()) +
            " budget-exhausted check(s), " +
            std::to_string(result.analysis.degradedPairs()) +
            (dopts.mode == AdjointMode::Hybrid
                 ? " pair(s) guarded selectively (hybrid safeguard)"
                 : " pair(s) kept atomic conservatively"));
      if (dopts.mode == AdjointMode::Hybrid)
        opts.siteGuardPolicy = core::hybridPolicy(result.analysis);
      else
        opts.guardPolicy = core::formadPolicy(result.analysis);
      break;
    }
    case AdjointMode::Plain:
      break;  // null policy: everything plainly shared
  }

  ad::ReverseResult rr = ad::buildAdjoint(primal, opts);
  result.adjoint = std::move(rr.adjoint);
  result.adjointParams = std::move(rr.adjointParams);
  result.loopReports = std::move(rr.loopReports);
  return result;
}

DifferentiateResult differentiate(const Kernel& primal,
                                  const std::vector<std::string>& independents,
                                  const std::vector<std::string>& dependents,
                                  AdjointMode mode,
                                  bool omitTapeFreePrimalSweep) {
  DriverOptions dopts;
  dopts.mode = mode;
  dopts.omitTapeFreePrimalSweep = omitTapeFreePrimalSweep;
  return differentiate(primal, independents, dependents, dopts);
}

core::KernelAnalysis analyze(const Kernel& primal,
                             const std::vector<std::string>& independents,
                             const std::vector<std::string>& dependents,
                             const DriverOptions& opts) {
  std::unique_ptr<support::WorkPool> ownedPool;
  core::AnalyzeOptions aopts;
  aopts.exploit.pool = resolvePool(opts, ownedPool);
  aopts.exploit.checks = checksOf(opts);
  // Hybrid consumes per-(var, access-site) verdicts, so replay must answer
  // every pair instead of taking the per-variable early exit (the serving
  // daemon's "safeguard": "hybrid" request option lands here too).
  aopts.exploit.siteVerdicts = opts.mode == AdjointMode::Hybrid;
  aopts.model.absint = opts.absint;
  aopts.model.paramValues = opts.pins;
  return core::analyzeKernel(primal, independents, dependents, aopts);
}

racecheck::RaceReport checkRaces(const Kernel& primal,
                                 const DriverOptions& opts) {
  std::unique_ptr<support::WorkPool> ownedPool;
  racecheck::RaceCheckOptions ropts;
  ropts.paramValues = opts.pins;
  ropts.colorings = opts.colorings;
  ropts.pool = resolvePool(opts, ownedPool);
  ropts.checks = checksOf(opts);
  return racecheck::checkKernelRaces(primal, ropts);
}

}  // namespace formad::driver
