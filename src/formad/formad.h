// FormAD top level: analyze every parallel region of a kernel and expose
// the verdicts as a GuardPolicy for the adjoint transform.
#pragma once

#include <string>
#include <vector>

#include "ad/reverse.h"
#include "exec/costmodel.h"
#include "formad/exploit.h"
#include "ir/kernel.h"

namespace formad::core {

struct AnalyzeOptions {
  ExploitOptions exploit;
  ModelOptions model;
};

/// Result of running FormAD on one kernel (one verdict per parallel loop).
struct KernelAnalysis {
  std::vector<RegionVerdict> regions;

  // Aggregate Table-1 statistics over all regions of the kernel.
  [[nodiscard]] int modelAssertions() const;
  /// Abstract-interpretation facts across all regions (0 with absint off).
  [[nodiscard]] int absintFacts() const;
  [[nodiscard]] long long queries() const;
  [[nodiscard]] int uniqueExprs() const;
  [[nodiscard]] int statementsInRegions() const;
  [[nodiscard]] double analysisSeconds() const;

  // Aggregate decision-tier breakdown over all regions; together with the
  // solver-cache hits these partition queries():
  //   queries() == tier0Hits() + tier1Hits() + tier2Checks() + cacheHits().
  [[nodiscard]] long long tier0Hits() const;
  [[nodiscard]] long long tier1Hits() const;
  [[nodiscard]] long long tier2Checks() const;
  [[nodiscard]] long long cacheHits() const;

  // Aggregate resource-governance counters over all regions; both stay 0
  // under unlimited budgets and no deadline (the default), in which case
  // describe()/describeTiers render byte-identically to the pre-governance
  // analyzer.
  [[nodiscard]] long long budgetExhaustedChecks() const;
  [[nodiscard]] long long degradedPairs() const;

  // Aggregate verdict-store diagnostics over all regions. The spliced,
  // joined and persisted counts are zero without an attached store; never
  // rendered by describe() (see describeCache below).
  [[nodiscard]] long long tasksSpliced() const;
  [[nodiscard]] long long tasksJoined() const;
  [[nodiscard]] long long tasksPersisted() const;
  [[nodiscard]] long long tasksSkipped() const;
  [[nodiscard]] long long freshSolverChecks() const;
  [[nodiscard]] long long freshTier2Solves() const;
};

/// Runs knowledge extraction + exploitation on every parallel loop of the
/// kernel, with differentiation w.r.t. the given independents/dependents.
[[nodiscard]] KernelAnalysis analyzeKernel(
    const ir::Kernel& kernel, const std::vector<std::string>& independents,
    const std::vector<std::string>& dependents, const AnalyzeOptions& = {});

/// Guard policy implementing the paper's FormAD program version: proven
/// variables stay plainly shared, everything else falls back to atomics.
[[nodiscard]] ad::GuardPolicy formadPolicy(const KernelAnalysis& analysis);

/// Per-site guard policy implementing the hybrid safeguard (requires an
/// analysis run with ExploitOptions::siteVerdicts): increments whose every
/// question pair was proven disjoint stay plainly shared even when the
/// variable as a whole is unsafe; only the residual unproven increments
/// are guarded — atomically, or routed into thread-local accumulation
/// buffers merged after the region, whichever the calibrated cost model
/// predicts cheaper for the site's access pattern. Unproven pairs without
/// site provenance (the shared-scalar pseudo-question, cancelled or
/// contradictory regions) degrade the whole variable, exactly like the
/// classic fallback, so the hybrid adjoint is never less guarded than the
/// soundness envelope of AdjointMode::Atomic.
[[nodiscard]] ad::SiteGuardPolicy hybridPolicy(
    const KernelAnalysis& analysis, const exec::CostParams& costs = {});

/// Human-readable per-region report (verdicts + statistics). With
/// includeTiming=false the wall-clock field is omitted, making the report a
/// pure function of the verdicts — byte-identical across runs and analysis
/// thread counts (what the conformance suite compares).
[[nodiscard]] std::string describe(const KernelAnalysis& analysis,
                                   bool includeTiming);
[[nodiscard]] std::string describe(const KernelAnalysis& analysis);

/// Per-region decision-tier breakdown, one line per region (golden-tested
/// stable format). A pure function of the verdicts: byte-identical across
/// runs and analysis thread counts. Kept separate from describe() so the
/// classic report stays byte-compatible with the pre-tier analyzer.
[[nodiscard]] std::string describeTiers(const KernelAnalysis& analysis);

/// Per-region verdict-store breakdown, one line per region (stable
/// format, golden-testable): spliced/joined/persisted/skipped task counts
/// and fresh solver work. Kept separate from describe() so classic
/// reports stay byte-identical whether or not a store is attached (serving
/// is verdict-neutral; only these observables differ between cold and
/// warm runs). Store-level IO counts live in PersistentVerdictStore::Stats.
[[nodiscard]] std::string describeCache(const KernelAnalysis& analysis);

}  // namespace formad::core
