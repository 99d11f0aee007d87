// The solver facade — the stand-in for Z3 in this reproduction.
//
// Decides conjunctions of linear-integer (dis)equalities and (limited)
// inequalities over scalar variables and uninterpreted array reads, with a
// Z3-style assertion stack (push/pop). This is exactly the fragment
// FormAD's buildModel/testVar procedures emit (paper Sec. 5.5):
//
//     solver.add(i != i');            // distinct loop counters
//     solver.add(w'(k) != r(k));      // knowledge: disjoint primal indices
//     solver.push();
//     solver.add(e0' == e1);          // question: can adjoint indices meet?
//     if (solver.check() == Unsat)    // provably disjoint -> no atomic
//     solver.pop();
//
// Soundness contract: Unsat is only reported when the conjunction truly has
// no integer solution (rational Gaussian conflict, congruence conflict,
// gcd-infeasible row, or an entailed equality contradicting a disequality).
// Sat/Unknown may be over-approximate, which FormAD treats as "potentially
// conflicting" — the safe direction.
#pragma once

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "smt/budget.h"
#include "smt/congruence.h"
#include "smt/fastpath.h"
#include "smt/fingerprint.h"
#include "smt/hnf.h"
#include "smt/lia.h"
#include "smt/term.h"

namespace formad::support {
class CancelToken;
}

namespace formad::smt {

class PersistentVerdictStore;

enum class CheckResult { Sat, Unsat, Unknown };

[[nodiscard]] std::string to_string(CheckResult r);

enum class Rel { Eq, Ne, Le };  // constraint: expr REL 0

struct Constraint {
  LinExpr expr;
  Rel rel = Rel::Eq;

  [[nodiscard]] static Constraint eq(LinExpr a, const LinExpr& b) {
    return Constraint{std::move(a) - b, Rel::Eq};
  }
  [[nodiscard]] static Constraint ne(LinExpr a, const LinExpr& b) {
    return Constraint{std::move(a) - b, Rel::Ne};
  }
  /// a <= b
  [[nodiscard]] static Constraint le(LinExpr a, const LinExpr& b) {
    return Constraint{std::move(a) - b, Rel::Le};
  }
};

/// A concrete integer assignment, one value per atom mentioned on the
/// assertion stack.
using Model = std::map<AtomId, long long>;

/// Deterministic fault-injection harness for the degradation paths (tests
/// and the CI smoke job). Counts every check() across all solvers built
/// with it and forces the Nth one (1-based) to either report a
/// budget-exhausted Unknown or to throw formad::Error — proving that a
/// solver giving up (or dying) degrades to atomic adjoints instead of
/// hanging or corrupting the analysis. 0 disables a trigger. The counter
/// is shared and atomic, so under a parallel analysis the faulting check
/// is scheduling-dependent — use width 1 where the test needs to know
/// exactly which conjunction faults.
struct FaultInject {
  std::atomic<long long> checksSeen{0};
  long long unknownAtCheck = 0;
  long long throwAtCheck = 0;
};

/// The five settings that govern every check of an analysis, declared
/// once: DriverOptions, core::ExploitOptions and
/// racecheck::RaceCheckOptions each carry one as `checks`, the driver
/// copies it whole into both analyses, and every analysis solver is built
/// from it (the Solver policy constructor).
struct CheckPolicy {
  /// Tiered fast-path deciders consulted before the full solve
  /// (smt/fastpath.h). Fast verdicts are exact: any mode yields
  /// bit-identical analyses, verdicts and reports; only wall time and the
  /// tier breakdown change.
  FastPathMode fastpath = FastPathMode::Full;
  /// Per-check deterministic step budget (<= 0 = unlimited). A check that
  /// runs out returns a budget-exhausted Unknown, the safe direction:
  /// FormAD keeps the atomic adjoint, the race checker reports the pair
  /// undecided, and the driver warns instead of aborting. Steps are
  /// counted at fixed points of the decision procedures (pivot
  /// substitutions, congruence merges, HNF column ops, model-search
  /// candidates), never timed, so budgeted verdicts are byte-identical at
  /// any pool width.
  long long stepBudget = 0;
  /// Per-region wall-clock deadline in milliseconds (<= 0 = none).
  /// Liveness only: the pairs it stops degrade conservatively, and which
  /// pairs those are is timing-dependent, so prefer stepBudget where
  /// reproducible reports matter.
  int deadlineMs = 0;
  /// Fault-injection harness for the degradation paths (nullptr = off;
  /// see FaultInject).
  FaultInject* faultInject = nullptr;
  /// Caller-owned verdict store (nullptr = none: every check is decided
  /// afresh), shared by every solver and scheduler of both analyses;
  /// memory-only, or persistent across runs over a directory. Serving is
  /// verdict-neutral (records carry their full content key plus budget
  /// provenance), so every report and adjoint is byte-identical with or
  /// without it; only wall time and the store counters change.
  PersistentVerdictStore* store = nullptr;

  /// The store checks and task records are served from and written to:
  /// `store`, or nullptr while fault injection is on. An injected verdict
  /// is not a pure function of its conjunction, so it must neither be
  /// persisted nor mixed with persisted truth.
  [[nodiscard]] PersistentVerdictStore* servingStore() const {
    return faultInject == nullptr ? store : nullptr;
  }
};

/// A decided verdict plus its provenance: the one record of one solver
/// check. Solver::lastCheck() exposes it, the verdict store keeps one per
/// conjunction in memory and on disk, and a task record is the list of
/// its checks' records in probe order. `tier` is the decision tier that
/// produced it (0/1 fast path, 2 full solve), a pure function of the
/// conjunction and the fast-path mode, so serving it keeps per-tier
/// accounting identical at any pool width.
///
/// Budget provenance: `complete` records whether the verdict finished its
/// solve; `steps` holds the deterministic step count it consumed
/// (complete) or the step limit it ran out at (incomplete).
struct VerdictRecord {
  CheckResult result = CheckResult::Unknown;
  int tier = 2;
  bool complete = true;
  long long steps = 0;

  friend bool operator==(const VerdictRecord&, const VerdictRecord&) = default;

  /// True iff a solver with per-check step budget `stepLimit` (<= 0 =
  /// unlimited) would derive exactly this verdict itself: a complete
  /// verdict needs the budget to cover its step count; an exhausted one
  /// needs a budget no larger than the one that ran out (step counts are
  /// deterministic, so exhaustion is monotone in the limit). Every load
  /// applies it, so a budget-limited Unknown can never poison a run with a
  /// larger budget, and a large-budget verdict never leaks into a run
  /// whose budget could not have afforded it.
  [[nodiscard]] bool sufficientFor(long long stepLimit) const {
    return complete ? (stepLimit <= 0 || steps <= stepLimit)
                    : (stepLimit > 0 && stepLimit <= steps);
  }

  /// True when this record serves strictly more budgets than `cur`: a
  /// complete verdict over an exhausted one, or an exhaustion at a larger
  /// limit. The store keeps the stronger of two records; serving is
  /// guarded by sufficientFor, so this policy affects hit rates only,
  /// never a verdict.
  [[nodiscard]] bool upgrades(const VerdictRecord& cur) const {
    return (complete && !cur.complete) ||
           (!complete && !cur.complete && steps > cur.steps);
  }
};

class Solver {
 public:
  /// The pure-SMT baseline: fast path off, no step budget, no store, no
  /// fault harness, no cancellation token.
  explicit Solver(AtomTable& atoms)
      : Solver(atoms, {.fastpath = FastPathMode::Off}, nullptr) {}
  /// An analysis solver, governed by `checks` for its whole life: it
  /// caches through checks.servingStore(), decides under the fast-path
  /// mode and step budget, and counts its checks into the fault harness.
  /// `cancel` (nullptr = none) is polled every few hundred steps while
  /// solving; a fired token unwinds the in-flight check as
  /// support::Cancelled, a liveness mechanism only, never a verdict (see
  /// support/cancel.h). The deadline is the caller's to arm on `cancel`.
  Solver(AtomTable& atoms, const CheckPolicy& checks,
         const support::CancelToken* cancel)
      : atoms_(atoms),
        store_(checks.servingStore()),
        fastMode_(checks.fastpath),
        stepLimit_(checks.stepBudget),
        cancel_(cancel),
        fault_(checks.faultInject) {}

  void add(Constraint c);
  /// add() with the constraint's content key already derived by the
  /// caller: `key` must equal constraintKey(c). Lets a planner that keyed
  /// its constraints once hand them to many solvers without re-keying.
  void add(Constraint c, std::string key);
  void push();
  /// Drops the assertions added since the matching push(). Calling pop on
  /// an empty mark stack throws formad::Error (it would otherwise corrupt
  /// the assertion stack silently).
  void pop();

  /// Decides the current conjunction. With a serving store (see
  /// CheckPolicy::servingStore), the canonical stack key is looked up
  /// first, then claimed so concurrent duplicates join one solve, then
  /// decided and stored; without one, every check is decided afresh and
  /// no key is built. A check that runs out of its step budget returns
  /// Unknown, and lastCheck() records it as incomplete. Within one solve,
  /// each Ne constraint is reduced against the equality system once and
  /// the residue reused by every later pass.
  [[nodiscard]] CheckResult check();

  /// Attempts to build a concrete integer model of the current conjunction
  /// (the witness-extraction companion of check(), used by the race
  /// checker to turn a non-Unsat verdict into a human-readable
  /// counterexample). The model is assembled from the LIA equality
  /// solution: the HNF pass yields one particular integer solution plus a
  /// basis of the homogeneous solution lattice, and a bounded search over
  /// small lattice coordinates looks for a point that also satisfies every
  /// Ne and Le assertion. Every returned model is verified by exact
  /// evaluation of the full assertion stack. Returns nullopt when the
  /// conjunction is Unsat or no witness lies within the search budget
  /// (callers must treat that as "unknown", never as Unsat).
  ///
  /// Caveat: UF atoms are treated as free integer unknowns — functional
  /// consistency between distinct UF applications is NOT enforced, so a
  /// model involving UF atoms is a witness only under the caller's reading
  /// of those atoms (the race checker restricts witness claims to UF-free
  /// queries for exactly this reason).
  [[nodiscard]] std::optional<Model> model();

  /// Exact value of `e` under `m` (every atom of `e` must be assigned).
  [[nodiscard]] static Rational evaluate(const LinExpr& e, const Model& m);

  [[nodiscard]] size_t assertionCount() const { return stack_.size(); }

  struct Stats {
    long long assertionsAdded = 0;
    long long checks = 0;
    long long cacheHits = 0;       // checks answered by the verdict store
    long long fastpathTier0 = 0;   // checks decided by a tier-0 syntactic test
    long long fastpathTier1 = 0;   // checks decided by a tier-1 arithmetic test
    long long reduceCalls = 0;     // lia.reduce invocations actually made
    long long reduceMemoHits = 0;  // reductions reused from the per-solve memo
    long long modelSearches = 0;   // model() invocations
    long long modelsFound = 0;     // model() calls that produced a witness
    /// Checks that returned a budget-exhausted Unknown (including ones
    /// served from a record stored as exhausted, and injected faults).
    long long budgetExhausted = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Attaches the abstract interpreter's per-variable facts (nullptr =
  /// off, the default). While attached with a nonzero salt, the tiered
  /// fast path additionally runs the "t1-absint" witness decider, and
  /// stackKey() is prefixed with the salt — verdicts (whose recorded tier
  /// depends on the deciders available) computed under different -absint
  /// settings can then never be served across settings. Survives reset().
  void setAbsintHints(const AbsintHints* hints) { hints_ = hints; }
  [[nodiscard]] const AbsintHints* absintHints() const { return hints_; }

  /// The record of the most recent check(): the record a decided check
  /// stored (or would store, without a store attached), the record the
  /// store served on a hit or join, or {Unknown, tier 2, incomplete, step
  /// limit} on an injected Unknown. An incomplete record's Unknown is a
  /// resource verdict, not a structural one. Served records carry the
  /// tier and provenance stored with them, pure functions of the
  /// conjunction, so callers see the same record whether the verdict was
  /// derived or served, at any pool width.
  [[nodiscard]] const VerdictRecord& lastCheck() const { return last_; }

  /// Clears the assertion stack, open scopes, and the thread binding (so
  /// the solver may be adopted by another worker for the next task batch).
  /// Stats and the policy survive.
  void reset();

  /// Canonical CONTENT fingerprint of one constraint (smt/fingerprint.h) —
  /// the unit stackKey() and the analysis replay build conjunction
  /// fingerprints from. Two constraints with equal keys are the same
  /// assertion, in this run or any other over the same logical atoms.
  [[nodiscard]] std::string constraintKey(const Constraint& c) {
    return fp_.constraintKey(c);
  }

  /// Canonical fingerprint of the current conjunction: per-constraint keys,
  /// sorted (a conjunction is order-independent) and joined — byte-equal
  /// to conjunctionKey() of the live keys, behind the key-space prefixes:
  /// the fast-path mode unless it is Full, then the absint salt. Recorded
  /// tiers depend on both, so each setting gets its own key space. Covers
  /// the whole live stack including open push/pop scopes, so cached
  /// verdicts can never leak across scopes. The keys are kept sorted as
  /// constraints come and go, so this only concatenates.
  [[nodiscard]] std::string stackKey() const;

 private:
  /// check() body when no stored verdict serves: tiered fast path first,
  /// full solve as the fallback. Returns the record check() stores: a
  /// fast-path decision needs no steps, a full solve records the steps it
  /// used, and a solve that runs out records the step limit it ran out at.
  [[nodiscard]] VerdictRecord decide();
  [[nodiscard]] CheckResult solve();
  /// model() body; runs under the armed step budget (StepLimitReached is
  /// caught by the wrapper and rendered as "no witness found").
  [[nodiscard]] std::optional<Model> modelImpl();
  /// Solvers are thread-confined: the first mutating call binds the owning
  /// thread, and any use from another thread throws. reset() clears the
  /// binding. This turns cross-thread sharing bugs into immediate errors
  /// instead of silent stack corruption.
  void requireOwner();

  AtomTable& atoms_;
  /// Content-key deriver over atoms_ (memoized per atom). Thread-confined
  /// with the solver; survives reset() like the memo it carries.
  Fingerprinter fp_{atoms_};
  std::vector<Constraint> stack_;
  /// constraintKey of every stack_ entry, kept in sorted order by
  /// add/pop/reset so stackKey() neither re-derives nor re-sorts keys (the
  /// schedulers re-check under long-lived incremental stacks, where both
  /// dominated).
  std::vector<std::string> sortedKeys_;
  /// Per stack_ entry, the sortedKeys_ index its key was inserted at. The
  /// stack is LIFO: when an entry is popped, every later one is already
  /// gone, so sortedKeys_ is exactly as the insertion left it and erasing
  /// at the recorded index undoes it.
  std::vector<size_t> keySlots_;
  std::vector<size_t> marks_;
  PersistentVerdictStore* const store_;
  std::thread::id owner_{};
  const FastPathMode fastMode_;
  const long long stepLimit_;  // per-check; <= 0 = unlimited
  const support::CancelToken* const cancel_;
  FaultInject* const fault_;
  const AbsintHints* hints_ = nullptr;
  VerdictRecord last_;  // see lastCheck()
  StepBudget budget_;  // re-armed per check()/model()
  Stats stats_;
};

}  // namespace formad::smt
