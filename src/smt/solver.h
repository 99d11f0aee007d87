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

#include <array>
#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "smt/budget.h"
#include "smt/congruence.h"
#include "smt/fastpath.h"
#include "smt/fingerprint.h"
#include "smt/hnf.h"
#include "smt/lia.h"
#include "smt/singleflight.h"
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
/// and the CI smoke job). Counts every check() across all solvers it is
/// attached to and forces the Nth one (1-based) to either report a
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

/// A sharded, thread-safe verdict cache shared by the per-worker solvers of
/// one parallel analysis. Keys are canonical assertion-stack fingerprints
/// (Solver::stackKey), which cover the ENTIRE live stack — including
/// assertions inside open push/pop scopes — so a verdict recorded under one
/// scope can never be served for a different one. Keys are CONTENT-based
/// (smt/fingerprint.h): two runs that build the same logical conjunction
/// derive the same key no matter how their atom tables are laid out, which
/// is what makes the optional disk layer (attachStore) meaningful.
///
/// Each solver still derives keys through its own per-table memo, so the
/// cache binds to the table of the first solver that attaches and rejects
/// attachment from any other table (one cache = one analysis).
class VerdictCache {
 public:
  /// A cached verdict plus the decision tier (0/1 fast path, 2 full solve)
  /// that first produced it. The tier is a pure function of the
  /// conjunction (every decider is deterministic and order-independent),
  /// so serving it with the verdict keeps per-tier accounting identical
  /// at any pool width.
  ///
  /// Budget provenance: `complete` records whether the verdict finished
  /// its solve; `steps` holds the deterministic step count it consumed
  /// (complete) or the step limit it ran out at (incomplete). lookup()
  /// only serves an entry to a solver whose budget would have produced
  /// the same answer — so a budget-limited Unknown can never poison a
  /// later run with a larger budget, and a large-budget verdict can never
  /// leak into a run whose budget could not have afforded it.
  struct Entry {
    CheckResult result = CheckResult::Unknown;
    int tier = 2;
    bool complete = true;
    long long steps = 0;
  };

  /// True iff a solver with per-check step budget `stepLimit` (<= 0 =
  /// unlimited) would derive exactly this entry's verdict itself: a
  /// complete verdict needs the budget to cover its step count; an
  /// exhausted one needs a budget no larger than the one that ran out
  /// (step counts are deterministic, so exhaustion is monotone in the
  /// limit).
  [[nodiscard]] static bool sufficientFor(const Entry& e, long long stepLimit) {
    return e.complete ? (stepLimit <= 0 || e.steps <= stepLimit)
                      : (stepLimit > 0 && stepLimit <= e.steps);
  }

  /// Returns the cached verdict, or nullopt on miss. An entry whose budget
  /// provenance is insufficient for `stepLimit` counts as a miss (the
  /// caller re-derives under its own budget; store() keeps the first
  /// entry, which is fine — lookups are guarded, never trusted blindly).
  /// On a memory miss with a persistent store attached, the store is
  /// consulted (under the same budget guard) and a disk hit is memoized
  /// in the shard map for the rest of the run.
  [[nodiscard]] std::optional<Entry> lookup(const std::string& key,
                                            long long stepLimit = 0);
  /// Records a verdict. Concurrent stores of the same key are benign: every
  /// solver derives the same verdict (and tier) for the same fingerprint
  /// under the same budget, and cross-budget reuse is guarded in lookup().
  /// With a persistent store attached, new or upgraded entries are written
  /// through (outside the shard lock).
  void store(const std::string& key, CheckResult r, int tier = 2,
             bool complete = true, long long steps = 0);

  /// Attaches a disk-backed persistent store consulted on memory misses and
  /// written through on stores (nullptr = detach). The store outlives the
  /// cache and may be shared by many caches and runs concurrently.
  void attachStore(PersistentVerdictStore* store) { store_ = store; }
  [[nodiscard]] PersistentVerdictStore* attachedStore() const {
    return store_;
  }

  /// Single-flight gate consulted by Solver::check() after a lookup miss.
  /// With a store attached, delegates to PersistentVerdictStore::claimCheck:
  /// either the winner's published entry is served (memoized in the shard
  /// and counted like a disk hit), or the caller receives the owned claim
  /// and must compute + store() (which publishes and resolves it). Without
  /// a store this is inert — no served entry, no owned claim, no blocking —
  /// so single-process runs keep their exact pre-existing behavior.
  struct CheckFlight {
    std::optional<Entry> served;
    FlightClaim claim;
  };
  [[nodiscard]] CheckFlight claimCheck(const std::string& key,
                                       long long stepLimit,
                                       const support::CancelToken* cancel);

  [[nodiscard]] long long hits() const {
    return memoryHits_.load(std::memory_order_relaxed) +
           diskHits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] long long misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] size_t size() const;

  /// Snapshot of the cache's own counters, split by layer and — for hits —
  /// by the decision tier recorded with the served verdict. IO/timing
  /// dependent diagnostics only: never folded into deterministic reports.
  struct CacheStats {
    long long memoryHits = 0;
    long long diskHits = 0;    // served from the persistent store
    long long misses = 0;      // not served by either layer
    long long stores = 0;      // store() calls
    long long diskStores = 0;  // entries written through to disk
    std::array<long long, 3> memoryHitTiers{};
    std::array<long long, 3> diskHitTiers{};
  };
  [[nodiscard]] CacheStats cacheStats() const;

 private:
  friend class Solver;
  /// Binds the cache to one AtomTable (first caller wins); throws
  /// formad::Error if a solver over a different table tries to attach.
  void bind(const AtomTable* atoms);

  static constexpr size_t kShards = 16;
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::string, Entry> map;
  };
  [[nodiscard]] Shard& shardFor(const std::string& key) {
    return shards_[std::hash<std::string>{}(key) % kShards];
  }

  std::array<Shard, kShards> shards_;
  PersistentVerdictStore* store_ = nullptr;
  std::atomic<long long> memoryHits_{0};
  std::atomic<long long> diskHits_{0};
  std::atomic<long long> misses_{0};
  std::atomic<long long> stores_{0};
  std::atomic<long long> diskStores_{0};
  std::array<std::atomic<long long>, 3> memoryHitTiers_{};
  std::array<std::atomic<long long>, 3> diskHitTiers_{};
  std::mutex bindMu_;
  const AtomTable* atoms_ = nullptr;  // guarded by bindMu_
};

class Solver {
 public:
  explicit Solver(AtomTable& atoms) : atoms_(atoms) {}

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

  /// Decides the current conjunction. The model is rebuilt from the
  /// assertion stack, but two layers of incrementality avoid repeated work
  /// across the many near-identical stacks FormAD's context-tree walk
  /// produces:
  ///   - a verdict cache keyed on the canonicalized stack (conjunctions are
  ///     order-independent), so re-checking an already-decided conjunction
  ///     is a map lookup;
  ///   - within one solve, each Ne constraint is reduced against the
  ///     equality system once and the residue reused by every later pass.
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
    long long cacheHits = 0;       // checks answered from the verdict cache
    long long fastpathTier0 = 0;   // checks decided by a tier-0 syntactic test
    long long fastpathTier1 = 0;   // checks decided by a tier-1 arithmetic test
    long long reduceCalls = 0;     // lia.reduce invocations actually made
    long long reduceMemoHits = 0;  // reductions reused from the per-solve memo
    long long modelSearches = 0;   // model() invocations
    long long modelsFound = 0;     // model() calls that produced a witness
    /// Checks that returned a budget-exhausted Unknown (including ones
    /// served from a cache entry recorded as exhausted, and injected
    /// faults). Appended to describe() only when nonzero, so default
    /// (unlimited) runs render byte-identically to the pre-budget format.
    long long budgetExhausted = 0;

    /// Stable one-line rendering of the tier breakdown plus the classic
    /// counters (golden-tested; reports and the CLI print it verbatim).
    [[nodiscard]] std::string describe() const;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Selects the tiered fast path consulted by check() before the full
  /// solve. Defaults to Off: a raw Solver is the pure-SMT baseline, and
  /// the analysis layers opt in explicitly (every fast-path verdict is
  /// exact, so only speed — never any verdict — depends on the mode).
  void setFastPathMode(FastPathMode m) { fastMode_ = m; }
  [[nodiscard]] FastPathMode fastPathMode() const { return fastMode_; }

  /// Per-check deterministic step budget (<= 0 = unlimited, the default).
  /// A check that runs out returns CheckResult::Unknown with
  /// lastCheckBudgetExhausted() set — the safe direction (FormAD keeps the
  /// atomic; the race checker reports the pair undecided). Steps are
  /// counted at fixed points of the decision procedures (pivot
  /// substitutions, congruence merges, HNF column ops, model-search
  /// candidates), so the verdict under a given budget is a pure function
  /// of the conjunction: byte-identical at any thread count. Survives
  /// reset(), like the cache attachment.
  void setStepBudget(long long stepsPerCheck) { stepLimit_ = stepsPerCheck; }
  [[nodiscard]] long long stepBudget() const { return stepLimit_; }

  /// Attaches a cooperative cancellation token, polled every few hundred
  /// steps while solving. A fired token unwinds the in-flight check as
  /// support::Cancelled — a liveness mechanism only, never a verdict (see
  /// support/cancel.h). Pass nullptr to detach. Survives reset().
  void setCancelToken(const support::CancelToken* t) { cancel_ = t; }

  /// Attaches the shared fault-injection harness (nullptr = off).
  /// Survives reset().
  void setFaultInjection(FaultInject* f) { fault_ = f; }

  /// Attaches the abstract interpreter's per-variable facts (nullptr =
  /// off, the default). While attached with a nonzero salt, the tiered
  /// fast path additionally runs the "t1-absint" witness decider, and
  /// stackKey() is prefixed with the salt — verdicts (whose recorded tier
  /// depends on the deciders available) computed under different -absint
  /// settings can then never be served across settings, in memory or on
  /// disk. Survives reset().
  void setAbsintHints(const AbsintHints* hints) { hints_ = hints; }
  [[nodiscard]] const AbsintHints* absintHints() const { return hints_; }

  /// True iff the most recent check() gave up on its step budget (or was
  /// forced to by fault injection) — its Unknown is a resource verdict,
  /// not a structural one.
  [[nodiscard]] bool lastCheckBudgetExhausted() const {
    return lastBudgetExhausted_;
  }
  /// Deterministic step provenance of the most recent check(): the steps a
  /// fresh solve consumed, or — on a cache hit — the provenance recorded
  /// with the served entry (so callers persisting budget metadata see the
  /// same numbers whether the verdict was derived or served).
  [[nodiscard]] long long lastCheckSteps() const { return lastSteps_; }

  /// Decision tier of the most recent check(): 0/1 = fast path, 2 = full
  /// solve. Cache hits report the tier stored with the verdict, which is a
  /// pure function of the conjunction — so per-tier accounting is
  /// deterministic at any pool width.
  [[nodiscard]] int lastCheckTier() const { return lastTier_; }

  [[nodiscard]] AtomTable& atoms() { return atoms_; }

  /// Shares a concurrent verdict cache with other solvers over the SAME
  /// AtomTable (per-worker solvers of one parallel analysis). While
  /// attached, check() consults the shared cache instead of the private
  /// map. Pass nullptr to detach.
  void attachCache(VerdictCache* cache);

  /// Clears the assertion stack, open scopes, and the thread binding (so
  /// the solver may be adopted by another worker for the next task batch).
  /// Stats and cache attachment survive.
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
  /// to conjunctionKey() of the live keys, behind the absint salt prefix.
  /// Covers the whole live stack including open push/pop scopes, so
  /// cached verdicts can never leak across scopes. The keys are kept
  /// sorted as constraints come and go, so this only concatenates.
  [[nodiscard]] std::string stackKey() const;

 private:
  /// check() body on a cache miss: tiered fast path first, full solve as
  /// the fallback. Records the decision tier in lastTier_.
  [[nodiscard]] CheckResult decide();
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
  std::map<std::string, VerdictCache::Entry> verdictCache_;
  VerdictCache* sharedCache_ = nullptr;
  std::thread::id owner_{};
  FastPathMode fastMode_ = FastPathMode::Off;
  int lastTier_ = 2;
  long long stepLimit_ = 0;  // per-check; <= 0 = unlimited
  const support::CancelToken* cancel_ = nullptr;
  FaultInject* fault_ = nullptr;
  const AbsintHints* hints_ = nullptr;
  bool lastBudgetExhausted_ = false;
  long long lastSteps_ = 0;
  StepBudget budget_;  // re-armed per check()/model()
  Stats stats_;
};

}  // namespace formad::smt
