#include "formad/formad.h"

#include <set>
#include <sstream>

#include "analysis/activity.h"
#include "analysis/symbols.h"
#include "ir/printer.h"
#include "ir/traversal.h"

namespace formad::core {

using namespace ::formad::ir;

int KernelAnalysis::modelAssertions() const {
  int n = 0;
  for (const auto& r : regions) n += r.modelAssertions;
  return n;
}

int KernelAnalysis::absintFacts() const {
  int n = 0;
  for (const auto& r : regions) n += r.absintFacts;
  return n;
}

long long KernelAnalysis::queries() const {
  long long n = 0;
  for (const auto& r : regions) n += r.queries;
  return n;
}

int KernelAnalysis::uniqueExprs() const {
  int n = 0;
  for (const auto& r : regions) n += r.uniqueExprs;
  return n;
}

int KernelAnalysis::statementsInRegions() const {
  int n = 0;
  for (const auto& r : regions) n += r.statementsInRegion;
  return n;
}

double KernelAnalysis::analysisSeconds() const {
  double s = 0.0;
  for (const auto& r : regions) s += r.analysisSeconds;
  return s;
}

long long KernelAnalysis::tier0Hits() const {
  long long n = 0;
  for (const auto& r : regions) n += r.tier0Hits;
  return n;
}

long long KernelAnalysis::tier1Hits() const {
  long long n = 0;
  for (const auto& r : regions) n += r.tier1Hits;
  return n;
}

long long KernelAnalysis::tier2Checks() const {
  long long n = 0;
  for (const auto& r : regions) n += r.tier2Checks;
  return n;
}

long long KernelAnalysis::cacheHits() const {
  long long n = 0;
  for (const auto& r : regions) n += r.solverCacheHits;
  return n;
}

long long KernelAnalysis::budgetExhaustedChecks() const {
  long long n = 0;
  for (const auto& r : regions) n += r.budgetExhaustedChecks;
  return n;
}

long long KernelAnalysis::degradedPairs() const {
  long long n = 0;
  for (const auto& r : regions) n += r.degradedPairs;
  return n;
}

long long KernelAnalysis::tasksSpliced() const {
  long long n = 0;
  for (const auto& r : regions) n += r.tasksSpliced;
  return n;
}

long long KernelAnalysis::tasksJoined() const {
  long long n = 0;
  for (const auto& r : regions) n += r.tasksJoined;
  return n;
}

long long KernelAnalysis::tasksPersisted() const {
  long long n = 0;
  for (const auto& r : regions) n += r.tasksPersisted;
  return n;
}

long long KernelAnalysis::tasksSkipped() const {
  long long n = 0;
  for (const auto& r : regions) n += r.tasksSkipped;
  return n;
}

long long KernelAnalysis::freshSolverChecks() const {
  long long n = 0;
  for (const auto& r : regions) n += r.freshSolverChecks;
  return n;
}

long long KernelAnalysis::freshTier2Solves() const {
  long long n = 0;
  for (const auto& r : regions) n += r.freshTier2Solves;
  return n;
}

KernelAnalysis analyzeKernel(const Kernel& kernel,
                             const std::vector<std::string>& independents,
                             const std::vector<std::string>& dependents,
                             const AnalyzeOptions& opts) {
  analysis::SymbolTable syms = analysis::verifyKernel(kernel);
  analysis::Activity act =
      analysis::computeActivity(kernel, syms, independents, dependents);

  KernelAnalysis out;
  forEachStmt(kernel.body, [&](const Stmt& s) {
    if (s.kind() != StmtKind::For || !s.as<For>().parallel) return;
    RegionModel model =
        buildRegionModel(kernel, s.as<For>(), syms, act, opts.model);
    out.regions.push_back(exploitRegion(model, opts.exploit));
  });
  return out;
}

ad::GuardPolicy formadPolicy(const KernelAnalysis& analysis) {
  // The policy callback outlives this function; copy the verdict data.
  std::map<const For*, std::map<std::string, bool>> safeMap;
  for (const auto& r : analysis.regions) {
    auto& m = safeMap[r.loop];
    for (const auto& v : r.vars) m.emplace(v.var, v.safe);
  }
  return [safeMap](const For& loop, const std::string& var) {
    auto it = safeMap.find(&loop);
    if (it == safeMap.end()) return Guard::Atomic;
    auto vit = it->second.find(var);
    if (vit == it->second.end()) return Guard::Atomic;
    return vit->second ? Guard::None : Guard::Atomic;
  };
}

namespace {

/// Expected guarded increments per element of the would-be privatized
/// array. Counter-indexed sweeps touch each element about once (dense);
/// an indirect index (an array read inside the subscript) scatters few
/// increments over an arbitrarily large array, modeled as the calibrated
/// sparse density 1/64.
double siteDensityEstimate(const Expr& site) {
  if (site.kind() != ExprKind::ArrayRef) return 1.0;  // scalar: one element
  double density = 1.0;
  for (const auto& idx : site.as<ArrayRef>().indices)
    forEachExpr(*idx, [&](const Expr& x) {
      if (x.kind() == ExprKind::ArrayRef) density = 1.0 / 64.0;
    });
  return density;
}

}  // namespace

ad::SiteGuardPolicy hybridPolicy(const KernelAnalysis& analysis,
                                 const exec::CostParams& costs) {
  struct VarPlan {
    bool safe = false;
    /// An unproven pair without site provenance forces the classic
    /// whole-variable fallback.
    bool wholeVar = false;
    std::set<const Expr*> unsafeSites;
  };
  // The policy callback outlives this function; copy the verdict data.
  std::map<const For*, std::map<std::string, VarPlan>> plans;
  for (const auto& r : analysis.regions) {
    auto& m = plans[r.loop];
    for (const auto& v : r.vars) {
      VarPlan p;
      p.safe = v.safe;
      p.wholeVar = !v.safe && (v.sitelessUnsafe || v.sites.empty());
      for (const auto& sv : v.sites)
        if (!sv.safe) p.unsafeSites.insert(sv.site);
      m.emplace(v.var, std::move(p));
    }
  }
  return [plans = std::move(plans), costs](const For& loop,
                                           const std::string& var,
                                           const Expr* site) {
    auto it = plans.find(&loop);
    if (it == plans.end()) return Guard::Atomic;  // unanalyzed loop
    auto vit = it->second.find(var);
    if (vit == it->second.end()) return Guard::Atomic;  // unknown variable
    const VarPlan& p = vit->second;
    if (p.safe) return Guard::None;
    // Whole-variable degradation (no provenance to refine on): shared
    // scalars take the classic OpenMP reduction (one element, trivial
    // merge); arrays fall back to atomics like AdjointMode::Atomic.
    if (p.wholeVar || site == nullptr) {
      const bool scalar =
          site != nullptr && site->kind() != ExprKind::ArrayRef;
      return scalar ? Guard::Reduction : Guard::Atomic;
    }
    if (p.unsafeSites.count(site) == 0)
      return Guard::None;  // every pair of this site proved disjoint
    // Residual unproven increment: per-site choice via the cost model,
    // evaluated at the model's core count (deterministic — no runtime
    // thread count leaks into the generated code).
    return exec::cheaperHybridGuard(costs, siteDensityEstimate(*site),
                                    costs.maxCores);
  };
}

std::string describe(const KernelAnalysis& analysis) {
  return describe(analysis, /*includeTiming=*/true);
}

std::string describe(const KernelAnalysis& analysis, bool includeTiming) {
  std::ostringstream os;
  int idx = 0;
  for (const auto& r : analysis.regions) {
    os << "parallel region #" << idx++ << " (counter '" << r.loop->var
       << "'): model size " << r.modelAssertions << ", queries " << r.queries
       << " (" << r.solverCacheHits << " cached, " << r.pairCacheHits
       << " duplicate pairs), unique write exprs " << r.uniqueExprs
       << ", statements " << r.statementsInRegion;
    if (includeTiming) os << ", analysis " << r.analysisSeconds << "s";
    os << "\n";
    if (!r.knowledgeContradiction.empty())
      os << "  CONTRADICTION: " << r.knowledgeContradiction << "\n";
    // Resource-governance line only when governance actually degraded
    // something: default (unlimited) runs stay byte-identical to the
    // pre-governance report.
    if (r.budgetExhaustedChecks > 0 || r.degradedPairs > 0)
      os << "  governance: " << r.budgetExhaustedChecks
         << " budget-exhausted check(s), " << r.degradedPairs
         << " degraded pair(s) kept atomic\n";
    for (const auto& v : r.vars) {
      os << "  " << v.var << ": "
         << (v.safe ? "SAFE (shared, no atomics)" : "UNSAFE (needs safeguard)")
         << " after " << v.pairsTested << " pair(s)";
      if (!v.safe && !v.firstUnsafePair.empty())
        os << " — offending pair: " << v.firstUnsafePair;
      if (!v.safe && !v.unsafeReason.empty())
        os << " [" << v.unsafeReason << "]";
      os << "\n";
      // Per-site lines exist only under ExploitOptions::siteVerdicts (the
      // hybrid safeguard), so default reports stay byte-identical.
      if (!v.safe && v.sitelessUnsafe && !v.sites.empty())
        os << "    site policy: whole-variable fallback (unproven pair "
              "without site provenance)\n";
      if (!v.safe && !v.sitelessUnsafe) {
        for (const auto& sv : v.sites) {
          os << "    site " << ir::printExpr(*sv.site) << ": "
             << (sv.safe ? "SAFE (shared)" : "UNSAFE (guard residual)");
          if (!sv.safe && !sv.firstUnsafePair.empty())
            os << " — offending pair: " << sv.firstUnsafePair;
          if (!sv.safe && !sv.unsafeReason.empty())
            os << " [" << sv.unsafeReason << "]";
          os << "\n";
        }
      }
    }
  }
  return os.str();
}

std::string describeTiers(const KernelAnalysis& analysis) {
  std::ostringstream os;
  int idx = 0;
  for (const auto& r : analysis.regions) {
    os << "region #" << idx++ << " decision tiers: " << r.queries
       << " queries = " << r.tier0Hits << " tier-0 + " << r.tier1Hits
       << " tier-1 + " << r.tier2Checks << " tier-2 + " << r.solverCacheHits
       << " cached\n";
  }
  return os.str();
}

std::string describeCache(const KernelAnalysis& analysis) {
  std::ostringstream os;
  int idx = 0;
  for (const auto& r : analysis.regions) {
    os << "region #" << idx++ << " cache: tasks " << r.tasksSpliced
       << " spliced + " << r.tasksJoined << " joined + " << r.tasksPersisted
       << " persisted + " << r.tasksSkipped << " skipped; fresh checks "
       << r.freshSolverChecks << " (" << r.freshTier2Solves
       << " tier-2 solves)\n";
  }
  return os.str();
}

}  // namespace formad::core
