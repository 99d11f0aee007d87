// The exploitation query scheduler: parallel SMT with serial semantics.
//
// The paper's testVar walk (Sec. 5.5) is a depth-first traversal of the
// context tree on ONE solver: push knowledge, answer questions, recurse.
// Its verdicts per query are independent — only the *bookkeeping* (per-var
// early exit, the duplicate-pair cache, query/cache-hit counts, and the
// stop-at-first-contradiction safeguard) depends on traversal order. The
// scheduler exploits that split in three phases:
//
//   1. plan    — re-enumerate the serial walk WITHOUT a solver, emitting
//                one QueryTask per solver interaction the walk could
//                perform: a consistency check per knowledge assertion, and
//                one task per unique (context, pair) conjunction. Tasks
//                reference their base conjunction (root counter
//                disjointness + the knowledge on the context path) as a
//                node of a shared prefix tree rather than by copy, so
//                consecutive tasks share long context prefixes by
//                construction.
//   2. evaluate — first a walk along the schedule, then speculative
//                batches for what it left. The walk visits each task at
//                the first step replay may read, learning from every
//                outcome as it lands: an unsafe pair ends its variable's
//                steps (the per-variable early exit) and a knowledge
//                contradiction ends the walk. It serves store records, and
//                when the calling thread is the pool's only worker it also
//                evaluates each miss in place — the paper's serial walk,
//                which evaluates exactly the tasks replay reads. The
//                batches then run the rest across the pool, one
//                thread-confined smt::Solver per worker, all caching
//                through the verdict store when one is attached (without
//                one, every check is decided). Tasks are grouped into
//                contiguous prefix-sharing batches of the canonical plan
//                order: a worker walks from one task's base to the next by
//                popping to their common ancestor and pushing the delta
//                (incremental push/pop, handing over the constraint keys
//                the plan already derived), instead of reset-per-task. The
//                batches are early-exit-aware too: a task whose steps the
//                outcomes known so far all prove dead is skipped, not
//                evaluated. Outcomes arrive in completion order there, so
//                the batches may evaluate tasks the serial walk skips.
//   3. replay  — re-walk the canonical serial schedule consuming task
//                results, reconstructing the verdicts, the per-var early
//                exits, the pair cache hits, the query/solver-cache-hit
//                counts, and the per-tier decision counts exactly as the
//                single-solver walk would have produced them. Replay
//                touches no solver, so the resulting RegionVerdict — and
//                every report rendered from it — is bit-identical at any
//                thread count and at any fast-path mode (fast verdicts are
//                exact; only the tier counters reflect the mode).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "formad/exploit.h"
#include "formad/knowledge.h"
#include "smt/diskcache.h"

namespace formad::support {
class CancelToken;
class TaskPool;
}

namespace formad::core {

/// One independent solver interaction of the exploitation walk.
struct QueryTask {
  enum class Kind {
    Consistency,  // is the base conjunction itself Unsat? (safeguard)
    Pair,         // can any probe prove the pair disjoint?
  };
  Kind kind = Kind::Pair;
  /// Node in the scheduler's base prefix tree identifying this task's base
  /// conjunction (the root counter assertion plus the knowledge visible on
  /// the context path; for Consistency, up to and including the assertion
  /// under test). -1 = the empty conjunction (never emitted).
  int baseId = -1;
  /// Pair only: equalities tried in order — flattened offsets first, then
  /// one per dimension — stopping at the first Unsat (paper Sec. 3
  /// dimension rule).
  std::vector<smt::Constraint> probes;
  /// Content fingerprint of each probe (smt/fingerprint.h), parallel to
  /// `probes` — derived once at plan time and reused by the worker
  /// solvers' stack keys, replay accounting and the persistent-store key.
  std::vector<std::string> probeKeys;
  /// Content-addressed key of the whole task for the persistent store:
  /// kind tag + canonical base-conjunction key + ordered probe keys.
  /// Empty when no store serves (never derived).
  std::string fingerprint;
  /// Structural 32-hex file digest handed to the persistent store: kind
  /// tag + the base node's order-independent content sums + the ordered
  /// probe keys, mixed through FNV. A pure function of task content (never
  /// of AtomIds or insertion order) that costs O(probes) to derive — the
  /// multi-KB fingerprint is never re-walked to name a file. Digest
  /// collisions only cost a miss: the store verifies the full fingerprint
  /// on every load. Empty iff fingerprint is.
  std::string digest;
};

/// Outcome of evaluating one QueryTask.
struct QueryResult {
  bool evaluated = false;
  /// The solver's record of each check performed (1 for Consistency; for
  /// Pair, one per probe tried up to the first Unsat): verdict, decision
  /// tier and budget provenance. Under a fixed step budget each is a pure
  /// function of the conjunction, hence identical at any width: replay
  /// accounts queries from it exactly as the serial walk would, and it is
  /// the record the store persists, so VerdictRecord::sufficientFor can
  /// govern whether a later run may splice it.
  smt::PersistentVerdictStore::TaskRecord record;
  double seconds = 0.0;  // wall time of this task (scaling diagnostics)
};

class QueryScheduler {
 public:
  QueryScheduler(const RegionModel& model, const ExploitOptions& opts);

  /// Evaluates the plan and replays the canonical schedule. A null `pool`
  /// runs on one inline worker. The returned verdict is bit-identical
  /// regardless of pool width; only wall-clock observables
  /// (analysisSeconds, planSeconds, taskSeconds, threadsUsed) and work
  /// diagnostics (which tasks were skipped, fresh solver work) vary.
  /// `cancel`, when non-null, is the region's cooperative cancellation
  /// token: tasks it stops before they evaluate degrade to unsafe pairs in
  /// replay (which pairs depends on timing — cancellation trades
  /// reproducibility for liveness).
  [[nodiscard]] RegionVerdict run(support::TaskPool* pool,
                                  support::CancelToken* cancel = nullptr);

 private:
  /// One node of the base prefix tree: the conjunction consisting of the
  /// parent's conjunction plus `delta`. The DFS plan appends nodes as it
  /// pushes knowledge, so a task's base is the root-to-node path — and
  /// sibling tasks share their context prefix structurally.
  struct BaseNode {
    int parent = -1;
    smt::Constraint delta;
    std::string deltaKey;  // content key of delta, derived once at plan
                           // and handed to every solver that pushes it
    size_t depth = 0;      // constraints on the root-to-node path
    /// Order-independent 128-bit content signature of the root-to-node
    /// conjunction: the two seeded per-part FNV hashes SUMMED along the
    /// path (a conjunction is a multiset, and wrapping sums commute), so
    /// each node derives its signature from its parent in O(|delta|).
    /// Replay uses (sum0, sum1, depth) to identify base content without
    /// materializing canonical keys; the persistent-store file digest is
    /// derived from it the same way.
    std::uint64_t sum0 = 0, sum1 = 0;
  };

  // One step of the canonical serial schedule (DFS pre-order).
  struct Step {
    enum class Op { Consistency, Question };
    Op op = Op::Question;
    int taskIndex = -1;
    // Consistency: provenance for the contradiction diagnostic.
    std::string array;
    // Question: which var the pair belongs to, and the serial walk's
    // duplicate-pair cache key.
    size_t varIndex = 0;
    const QuestionPair* pair = nullptr;
    std::string pairKey;
  };

  void plan();
  /// Moves `solver` (whose stack holds the base of `cur`, one push scope
  /// per base constraint) to the base of `target` incrementally: pop to
  /// the common ancestor, then push the missing deltas. `cur` is updated.
  void switchBase(smt::Solver& solver, int& cur, int target) const;
  /// Evaluates one task on a solver holding the base of `cur` (updated).
  [[nodiscard]] QueryResult evaluate(smt::Solver& solver, int& cur,
                                     const QueryTask& task) const;
  /// Replays the canonical schedule over the task outcomes. `skipped`
  /// marks the tasks evaluation skipped; replay never reads one.
  [[nodiscard]] RegionVerdict replay(const std::vector<QueryResult>& results,
                                     const std::vector<char>& skipped) const;

  const RegionModel& model_;
  const ExploitOptions& opts_;
  std::vector<BaseNode> bases_;
  std::vector<QueryTask> tasks_;
  std::vector<Step> schedule_;
  /// Schedule positions of the steps that consume each task, ascending:
  /// one for a Consistency task; one or more for a Pair task, whose pair
  /// key may recur (also under other variables).
  std::vector<std::vector<size_t>> taskSteps_;
  double planSeconds_ = 0.0;
};

}  // namespace formad::core
