// One-call pipeline: primal kernel -> adjoint kernel in one of the paper's
// program versions (Sec. 7): Serial, Atomic, Reduction, FormAD — plus
// Plain (no safeguards at all, for testing) and Tangent (forward mode).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ad/forward.h"
#include "ad/reverse.h"
#include "formad/formad.h"
#include "ir/kernel.h"
#include "racecheck/racecheck.h"

namespace formad::driver {

/// The paper's four program versions plus Plain (no safeguards, testing
/// only) and Hybrid (FormAD verdicts consumed per access site: proven
/// sites stay plainly shared even inside unsafe variables; only residual
/// unproven increments are guarded, atomically or via thread-local
/// accumulation buffers, whichever the cost model predicts cheaper).
enum class AdjointMode { Serial, Atomic, Reduction, FormAD, Hybrid, Plain };

[[nodiscard]] std::string to_string(AdjointMode mode);

struct DriverOptions {
  AdjointMode mode = AdjointMode::FormAD;
  /// Drops the forward sweep when nothing needs taping (the "adjoint only"
  /// variant used by the figure benchmarks; the generated kernel then does
  /// not produce the primal outputs).
  bool omitTapeFreePrimalSweep = false;
  /// Pre-flight gate: run the static race checker (racecheck/) on the
  /// primal before differentiating. A primal proven racy aborts adjoint
  /// generation with the witness; an inconclusive verdict degrades to a
  /// warning in DifferentiateResult::warnings.
  bool racecheckPrimal = false;
  /// Race-checker options: pins, coloring facts, witness cap, cancel
  /// token. checkRaces() sets their pool, fast-path, budget, deadline,
  /// fault and store fields from the analysis-wide knobs below.
  racecheck::RaceCheckOptions racecheck;
  /// Worker threads for the analysis phase (FormAD exploitation queries and
  /// the race checker's converse queries, which share one pool). 0 = auto
  /// (hardware concurrency); negative values are rejected with a clear
  /// error. Any count yields bit-identical analyses, warnings, and reports
  /// — only wall time changes.
  int analysisThreads = 0;
  /// Analysis-wide fast-path mode, applied to BOTH the FormAD exploitation
  /// solvers and the race checker's converse queries (it overrides
  /// racecheck.fastpath so one knob governs the whole analysis phase).
  /// Fast verdicts are exact: any mode yields bit-identical analyses,
  /// verdicts, and reports — only wall time and the tier breakdown change.
  smt::FastPathMode fastpath = smt::FastPathMode::Full;
  /// Run the abstract interpreter (src/absint/) before exploitation and
  /// feed its invariants into the knowledge base and the t1-absint
  /// fast-path decider. Facts are sound and fast verdicts exact, so
  /// verdicts can only improve (stride invariants may prove SAFE a pair
  /// the seed model leaves UNSAFE), never weaken; the tier breakdown and
  /// solver work shift toward cheaper tiers. Off (default) is
  /// byte-identical to the seed analyzer.
  /// Parameter pins from racecheck.paramValues are forwarded to the
  /// interpreter.
  bool absint = false;
  /// Per-check deterministic solver step budget for the whole analysis
  /// phase (FormAD exploitation + race checker); <= 0 = unlimited. Checks
  /// that run out degrade conservatively (atomic adjoints, undecided race
  /// pairs) and surface as a warning — never an abort. Deterministic:
  /// budgeted verdicts are byte-identical at any analysisThreads.
  long long solverStepBudget = 0;
  /// Per-region analysis wall-clock deadline in milliseconds (<= 0 =
  /// none). Liveness only: which pairs a deadline stops is
  /// timing-dependent, so prefer solverStepBudget where reproducible
  /// reports matter (it overrides racecheck.deadlineMs / exploit deadline
  /// so one knob governs the whole analysis phase).
  int analysisDeadlineMs = 0;
  /// Fault-injection harness for the degradation paths (tests / CI smoke
  /// job). When null, the environment variables FORMAD_FAULT_UNKNOWN_AT
  /// and FORMAD_FAULT_THROW_AT (1-based process-wide check ordinals) are
  /// consulted instead; both unset = off.
  smt::FaultInject* faultInject = nullptr;
  /// Caller-owned verdict store (nullptr = none: every check is decided
  /// afresh), shared between FormAD exploitation and the race checker —
  /// memory-only, or persistent across runs over a directory. Serving is
  /// verdict-neutral (records carry their full content key plus budget
  /// provenance), so every report and the generated adjoint are
  /// byte-identical with or without it — only wall time and the store
  /// counters change. Ignored while fault injection is active (injected
  /// verdicts are not pure functions of their query).
  smt::PersistentVerdictStore* verdictStore = nullptr;
  /// Caller-owned analysis worker pool; wins over analysisThreads when
  /// non-null (lets a long-running process — the serving daemon — reuse
  /// one pool across many driver calls instead of spawning threads per
  /// call). Accepts a private WorkPool or a SharedAnalysisPool client. The
  /// caller must invoke the driver from the pool's owning thread
  /// (TaskPool::run is not reentrant). Verdicts and reports are
  /// byte-identical at any pool width, as always.
  support::TaskPool* analysisPool = nullptr;
};

/// Resolves a requested analysis thread count: 0 -> hardware concurrency,
/// n >= 1 -> n, negative -> throws formad::Error.
[[nodiscard]] int resolveAnalysisThreads(int requested);

/// The validated core both resolveAnalysisThreads and the daemon's pool
/// sizing share: 0 -> `autoValue`, n >= 1 -> n, negative -> throws
/// formad::Error with the standard message.
[[nodiscard]] int resolveThreadRequest(int requested, int autoValue);

/// The serving daemon's pool plan: session dispatch threads plus shared
/// analysis-pool workers, derived from one validated policy so the CLI and
/// the server cannot drift apart.
///
/// `analysisThreads` follows the familiar convention (0 = auto, negative
/// rejected) but counts SHARED POOL WORKERS: auto sizes the pool to
/// hardware concurrency minus the session threads (floor 0 — sessions
/// still analyze inline at width 1). An explicit worker count whose total
/// `sessions + workers` oversubscribes the hardware is clamped back to the
/// auto size with a warning unless `allowOversubscribe` is set. A session
/// count above hardware concurrency alone is warned about but never
/// altered (session threads mostly block on IO; only the analysis width is
/// clamped). sessions < 1 throws formad::Error.
struct ServePoolPlan {
  int sessions = 1;
  int poolWorkers = 0;
  bool clamped = false;
  std::string warning;  // empty when the request was honored as-is
};
[[nodiscard]] ServePoolPlan resolveServePool(int sessions,
                                             int analysisThreads,
                                             bool allowOversubscribe);

struct DifferentiateResult {
  std::unique_ptr<ir::Kernel> adjoint;
  std::map<std::string, std::string> adjointParams;
  std::vector<ad::LoopGuardReport> loopReports;
  /// Populated for AdjointMode::FormAD.
  core::KernelAnalysis analysis;
  /// Populated when DriverOptions::racecheckPrimal is set.
  racecheck::RaceReport raceReport;
  /// Non-fatal pipeline diagnostics (e.g. an inconclusive race check).
  std::vector<std::string> warnings;
};

/// Builds the adjoint of `primal` under the requested safeguard mode.
/// Throws formad::Error if the pre-flight race check proves the primal
/// racy, or if FormAD's satisfiability safeguard finds the extracted
/// knowledge contradictory (both mean the primal parallel loop has a data
/// race, so no adjoint should be generated from it).
[[nodiscard]] DifferentiateResult differentiate(
    const ir::Kernel& primal, const std::vector<std::string>& independents,
    const std::vector<std::string>& dependents, const DriverOptions& opts);

/// Convenience overload: mode + omitTapeFreePrimalSweep, no race check.
[[nodiscard]] DifferentiateResult differentiate(
    const ir::Kernel& primal, const std::vector<std::string>& independents,
    const std::vector<std::string>& dependents, AdjointMode mode,
    bool omitTapeFreePrimalSweep = false);

/// Runs the FormAD analysis alone (Table 1 statistics, verdicts) — the only
/// place DriverOptions become core::AnalyzeOptions. Honors
/// analysisThreads (default 0 = auto width; reports are byte-identical at
/// any width), analysisPool, fastpath, absint, solverStepBudget,
/// analysisDeadlineMs, faultInject and verdictStore. Of the race-check
/// fields only racecheck.paramValues is read (pins for the abstract
/// interpreter). `mode == Hybrid` additionally exports per-(var,
/// access-site) verdicts (ExploitOptions::siteVerdicts); every other mode
/// analyzes classically.
[[nodiscard]] core::KernelAnalysis analyze(
    const ir::Kernel& primal, const std::vector<std::string>& independents,
    const std::vector<std::string>& dependents, const DriverOptions& opts = {});

/// Runs the static race checker alone — the only place DriverOptions become
/// racecheck::RaceCheckOptions. Starts from `racecheck` (pins, colorings,
/// witness cap, cancel token) and applies the analysis-wide knobs the same
/// way analyze() does: analysisThreads / analysisPool, fastpath,
/// solverStepBudget, analysisDeadlineMs, faultInject (else the
/// FORMAD_FAULT_* variables) and verdictStore. Reports are byte-identical
/// at any pool width.
[[nodiscard]] racecheck::RaceReport checkRaces(const ir::Kernel& primal,
                                               const DriverOptions& opts = {});

}  // namespace formad::driver
