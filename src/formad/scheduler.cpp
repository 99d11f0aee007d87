#include "formad/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "smt/diskcache.h"
#include "smt/fingerprint.h"
#include "support/cancel.h"
#include "support/diagnostics.h"
#include "support/pool.h"

namespace formad::core {

using smt::Constraint;
using smt::LinExpr;

namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The serial walk's duplicate-pair cache key: identical index expressions
/// under the same context share one solver verdict.
std::string pairKeyOf(int ctx, const QuestionPair& p) {
  std::string k = std::to_string(ctx);
  k += '|';
  k += p.primedWrite.key();
  k += '|';
  k += p.other.key();
  for (size_t d = 0; d < p.primedDims.size(); ++d) {
    k += '|';
    k += p.primedDims[d].key();
    k += '~';
    k += p.otherDims[d].key();
  }
  return k;
}

}  // namespace

QueryScheduler::QueryScheduler(const RegionModel& model,
                               const ExploitOptions& opts)
    : model_(model), opts_(opts) {
  auto t0 = std::chrono::steady_clock::now();
  plan();
  planSeconds_ = secondsSince(t0);
}

void QueryScheduler::plan() {
  // Group knowledge and questions by context, in the same order the serial
  // walk sees them.
  std::map<int, std::vector<const KnowledgeAssertion*>> knowledgeAt;
  for (const auto& k : model_.knowledge) knowledgeAt[k.context].push_back(&k);

  struct Q {
    const QuestionPair* pair;
    size_t varIndex;
  };
  std::map<int, std::vector<Q>> questionsAt;
  for (size_t vi = 0; vi < model_.questions.size(); ++vi)
    for (const auto& p : model_.questions[vi].pairs)
      questionsAt[p.context].push_back(Q{&p, vi});

  // Content-key deriver shared by the whole plan: base deltas, probe keys,
  // and task fingerprints all come from one memo over the region's atoms.
  smt::Fingerprinter fp(*model_.atoms);

  // The base prefix tree. Node 0 is the root assertion — two threads never
  // share a loop-counter value — and every knowledge assertion the DFS
  // pushes becomes a child node, so a context path IS a tree path and
  // sibling tasks share their prefix structurally (no per-task copies).
  auto appendBase = [&](int parent, Constraint delta) {
    BaseNode n;
    n.parent = parent;
    n.deltaKey = fp.constraintKey(delta);
    n.delta = std::move(delta);
    const BaseNode* p =
        parent < 0 ? nullptr : &bases_[static_cast<size_t>(parent)];
    n.depth = (p == nullptr ? 0 : p->depth) + 1;
    n.sum = p == nullptr ? smt::Digest{} : p->sum;
    n.sum += smt::partDigest(n.deltaKey);
    bases_.push_back(std::move(n));
    return static_cast<int>(bases_.size()) - 1;
  };
  int current =
      appendBase(-1, Constraint::ne(LinExpr::atom(model_.counterPrimeAtom),
                                    LinExpr::atom(model_.counterAtom)));
  // Absint invariants sit right below the root, shared by every task in
  // the region (switchBase never pops past them). They are sound by
  // construction — no Consistency tasks are emitted for them; the dynamic
  // oracle in tests/test_absint.cpp cross-checks the analyzer instead.
  for (const auto& inv : model_.invariants) current = appendBase(current, inv);

  std::map<std::string, int> taskByPairKey;

  // Depth-first pre-order over the context tree — the exact order of the
  // paper's recursive walk. The emitted schedule_ is a linearization of
  // that walk; replay processes it front to back.
  std::function<void(int)> dfs = [&](int ctx) {
    int saved = current;
    for (const auto* k : knowledgeAt[ctx]) {
      current = appendBase(current, Constraint::ne(k->primed, k->other));
      if (opts_.checkKnowledgeConsistency) {
        QueryTask t;
        t.kind = QueryTask::Kind::Consistency;
        t.baseId = current;
        tasks_.push_back(std::move(t));
        Step s;
        s.op = Step::Op::Consistency;
        s.taskIndex = static_cast<int>(tasks_.size()) - 1;
        s.array = k->array;
        schedule_.push_back(std::move(s));
      }
    }
    for (const auto& q : questionsAt[ctx]) {
      std::string key = pairKeyOf(ctx, *q.pair);
      auto it = taskByPairKey.find(key);
      int taskIndex;
      if (it != taskByPairKey.end()) {
        taskIndex = it->second;
      } else {
        QueryTask t;
        t.kind = QueryTask::Kind::Pair;
        t.baseId = current;
        t.probes.push_back(Constraint::eq(q.pair->primedWrite, q.pair->other));
        if (opts_.useDimensionRule)
          for (size_t d = 0; d < q.pair->primedDims.size(); ++d)
            t.probes.push_back(
                Constraint::eq(q.pair->primedDims[d], q.pair->otherDims[d]));
        t.probeKeys.reserve(t.probes.size());
        for (const auto& probe : t.probes)
          t.probeKeys.push_back(fp.constraintKey(probe));
        tasks_.push_back(std::move(t));
        taskIndex = static_cast<int>(tasks_.size()) - 1;
        taskByPairKey.emplace(key, taskIndex);
      }
      Step s;
      s.op = Step::Op::Question;
      s.taskIndex = taskIndex;
      s.varIndex = q.varIndex;
      s.pair = q.pair;
      s.pairKey = std::move(key);
      schedule_.push_back(std::move(s));
    }
    for (int child : model_.contexts.node(ctx).children) dfs(child);
    current = saved;
  };
  dfs(model_.contexts.root());
  taskSteps_.assign(tasks_.size(), {});
  for (size_t pos = 0; pos < schedule_.size(); ++pos)
    taskSteps_[static_cast<size_t>(schedule_[pos].taskIndex)].push_back(pos);

  // Store keys: each base node's context digest in the run's key space,
  // and each task's own key within it — kind tag, then the probe keys IN
  // ORDER (the probe walk stops at the first Unsat, so order is
  // semantic). O(probes) per task; the canonical base keys are derived in
  // run(), for the bases a lookup opens. Derived only when a store serves.
  if (opts_.checks.servingStore() != nullptr) {
    // The fast-path mode and absint hints change tier attribution without
    // changing the conjunction, and records store tiers — so runs under
    // different modes or hint sets must never share records. The key
    // space is the Solver's, so a base's context and a worker solver's
    // context over the same constraints are one store context.
    keySpace_ = smt::keySpace(opts_.checks.fastpath, model_.hints.salt);
    for (auto& n : bases_)
      n.context = smt::contextDigest(n.sum, n.depth, keySpace_);
    for (auto& t : tasks_) {
      t.storeKey = t.kind == QueryTask::Kind::Consistency ? "C" : "P";
      for (const auto& pk : t.probeKeys) {
        t.storeKey += '|';
        t.storeKey += pk;
      }
      t.digest = smt::recordDigest(
          bases_[static_cast<size_t>(t.baseId)].context, t.storeKey);
    }
  }
}

void QueryScheduler::switchBase(smt::Solver& solver, int& cur,
                                int target) const {
  // Find the common ancestor of the current and target base nodes.
  auto depth = [&](int id) {
    return id < 0 ? size_t{0} : bases_[static_cast<size_t>(id)].depth;
  };
  auto parent = [&](int id) { return bases_[static_cast<size_t>(id)].parent; };
  int a = cur, b = target;
  while (depth(a) > depth(b)) a = parent(a);
  while (depth(b) > depth(a)) b = parent(b);
  while (a != b) {
    a = parent(a);
    b = parent(b);
  }
  // Pop down to the ancestor (each base constraint sits in its own push
  // scope, so one pop removes exactly one), then push the missing path.
  while (cur != a) {
    solver.pop();
    cur = parent(cur);
  }
  std::vector<int> path;
  for (int id = target; id != a; id = parent(id)) path.push_back(id);
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    const BaseNode& n = bases_[static_cast<size_t>(*it)];
    solver.push();
    solver.add(n.delta, n.deltaKey);
    cur = *it;
  }
}

QueryResult QueryScheduler::evaluate(smt::Solver& solver, int& cur,
                                     const QueryTask& task) const {
  auto t0 = std::chrono::steady_clock::now();
  switchBase(solver, cur, task.baseId);

  QueryResult r;
  r.evaluated = true;
  auto& checks = r.record.checks;
  if (task.kind == QueryTask::Kind::Consistency) {
    (void)solver.check();
    checks.push_back(solver.lastCheck());
  } else {
    // The serial walk checks the flattened offsets first, then — under the
    // in-bounds assumption — each dimension, stopping at the first Unsat.
    for (size_t k = 0; k < task.probes.size() && !r.record.proved(); ++k) {
      solver.push();
      solver.add(task.probes[k], task.probeKeys[k]);
      (void)solver.check();
      checks.push_back(solver.lastCheck());
      solver.pop();
    }
  }
  r.seconds = secondsSince(t0);
  return r;
}

RegionVerdict QueryScheduler::replay(const std::vector<QueryResult>& results,
                                     const std::vector<char>& skipped) const {
  auto resultOf = [&](int i) -> const QueryResult& {
    FORMAD_ASSERT(skipped[static_cast<size_t>(i)] == 0,
                  "replay read a task the scheduler skipped");
    return results[static_cast<size_t>(i)];
  };
  RegionVerdict verdict;
  verdict.loop = model_.loop;
  verdict.modelAssertions = model_.modelSize();
  verdict.absintFacts = model_.absintFacts;
  verdict.uniqueExprs = model_.uniqueExprs;
  verdict.statementsInRegion = model_.statementsInRegion;
  for (const auto& vq : model_.questions) {
    VarVerdict vv;
    vv.var = vq.var;
    vv.safe = true;
    if (opts_.siteVerdicts) {
      // Seed one (initially safe) verdict per distinct primal site, in
      // first-appearance order over the variable's pairs — a pure function
      // of the model, so the export is width-independent like everything
      // else replay produces.
      std::set<const ir::Expr*> seen;
      for (const auto& p : vq.pairs)
        for (const ir::Expr* site : p.sites)
          if (seen.insert(site).second) {
            SiteVerdict sv;
            sv.site = site;
            vv.sites.push_back(std::move(sv));
          }
    }
    verdict.vars.push_back(std::move(vv));
  }

  // The serial solver's verdict cache, replayed symbolically: a check whose
  // stack fingerprint was already seen would have been a cache hit; the
  // first occurrence is attributed to the tier that decided it (a pure
  // function of the conjunction, so the breakdown is width-independent).
  // A stack's canonical conjunction is base ∪ {probe}. Knowledge base
  // constraints are all disequalities (key tag '!') and probes all
  // equalities (tag '='); the only equality bases are absint invariants,
  // which mention fresh `__ai_*` atoms that no question probe can contain.
  // So no probe key can equal a base key and the pair (base
  // content, probe key) identifies the sorted conjunction exactly —
  // dedup on the pair instead of materializing the multi-KB joined key
  // per check. Base content is identified by the node's 128-bit
  // order-independent content sum + depth (BaseNode::sum), accumulated in
  // O(1) per node at plan time: equal conjunctions always map to equal
  // triples, and the parts are mixed before they are summed, so distinct
  // conjunctions that differ in a constant do not cancel to one.
  using BaseContent = std::tuple<std::uint64_t, std::uint64_t, size_t>;
  std::map<BaseContent, int> contentIds;
  auto baseContentId = [&](int baseId) {
    const BaseNode& n = bases_[static_cast<size_t>(baseId)];
    return contentIds
        .emplace(BaseContent{n.sum.lo, n.sum.hi, n.depth},
                 static_cast<int>(contentIds.size()))
        .first->second;
  };
  std::set<std::pair<int, std::string>> seenStacks;
  auto accountChecks = [&](const QueryTask& task, const QueryResult& res) {
    const int base = baseContentId(task.baseId);
    const auto& checks = res.record.checks;
    for (size_t i = 0; i < checks.size(); ++i) {
      std::string probe = task.kind == QueryTask::Kind::Pair
                              ? task.probeKeys[i]
                              : std::string();
      ++verdict.queries;
      if (!seenStacks.emplace(base, std::move(probe)).second) {
        ++verdict.solverCacheHits;
        continue;
      }
      if (checks[i].tier == 0)
        ++verdict.tier0Hits;
      else if (checks[i].tier == 1)
        ++verdict.tier1Hits;
      else
        ++verdict.tier2Checks;
      if (!checks[i].complete) ++verdict.budgetExhaustedChecks;
    }
  };

  // Per-pair replay outcome: the verdict plus why (empty reason = the
  // classic "possible overlap"; otherwise a governance degradation).
  struct PairOutcome {
    bool safe = false;
    std::string reason;
  };
  std::map<std::string, PairOutcome> pairVerdicts;
  for (const auto& step : schedule_) {
    if (step.op == Step::Op::Consistency) {
      const QueryResult& res = resultOf(step.taskIndex);
      // A consistency probe that cancellation stopped skips silently:
      // claiming a contradiction it did not prove would be unsound, and
      // the safeguard still holds wherever evaluation did run.
      if (!res.evaluated) continue;
      accountChecks(tasks_[static_cast<size_t>(step.taskIndex)], res);
      if (res.record.proved()) {
        // Satisfiability safeguard (paper Sec. 5.5): the knowledge itself
        // is contradictory, so every disjointness "proof" below it would be
        // vacuous. Record the contradiction, distrust the whole region, and
        // let the caller decide whether it is fatal.
        verdict.knowledgeContradiction =
            "knowledge base unsatisfiable after asserting the disjointness "
            "of the primal writes to array '" +
            step.array +
            "': the primal parallel loop has a data race (or the extracted "
            "model is inconsistent)";
        for (auto& v : verdict.vars) {
          v.safe = false;
          // Site verdicts below a contradiction would be vacuous — force
          // the whole-variable fallback on every variable.
          v.sitelessUnsafe = true;
          for (auto& sv : v.sites) sv.safe = false;
        }
        break;
      }
      continue;
    }
    VarVerdict& vv = verdict.vars[step.varIndex];
    // Early exit per variable (paper Sec. 7.5). Site-verdict mode keeps
    // going: every pair must be answered so proven-disjoint sites of an
    // unsafe variable can stay plainly shared under the hybrid safeguard.
    if (!vv.safe && !opts_.siteVerdicts) continue;
    ++vv.pairsTested;
    PairOutcome outcome;
    auto cached = pairVerdicts.find(step.pairKey);
    if (cached != pairVerdicts.end()) {
      ++verdict.pairCacheHits;
      outcome = cached->second;
    } else {
      const QueryResult& res = resultOf(step.taskIndex);
      accountChecks(tasks_[static_cast<size_t>(step.taskIndex)], res);
      if (!res.evaluated) {
        // Cancellation (deadline or task failure) stopped this task before
        // it ran: degrade to unsafe — the atomic adjoint stays, which is
        // always sound.
        outcome.reason = "cancelled";
        ++verdict.degradedPairs;
      } else {
        const auto& checks = res.record.checks;
        outcome.safe = res.record.proved();
        if (!outcome.safe &&
            std::any_of(checks.begin(), checks.end(),
                        [](const smt::VerdictRecord& c) {
                          return !c.complete;
                        })) {
          outcome.reason = "step budget exhausted";
          ++verdict.degradedPairs;
        }
      }
      pairVerdicts.emplace(step.pairKey, outcome);
    }
    if (!outcome.safe) {
      if (vv.safe) {
        vv.safe = false;
        vv.unsafeReason = outcome.reason;
        vv.firstUnsafePair = model_.atoms->render(step.pair->primedWrite) +
                             " == " + model_.atoms->render(step.pair->other);
      }
      if (opts_.siteVerdicts) {
        if (step.pair->sites.empty()) vv.sitelessUnsafe = true;
        for (const ir::Expr* site : step.pair->sites)
          for (auto& sv : vv.sites)
            if (sv.site == site && sv.safe) {
              sv.safe = false;
              sv.unsafeReason = outcome.reason;
              sv.firstUnsafePair =
                  model_.atoms->render(step.pair->primedWrite) + " == " +
                  model_.atoms->render(step.pair->other);
            }
      }
    }
  }
  return verdict;
}

RegionVerdict QueryScheduler::run(support::TaskPool* pool,
                                  support::CancelToken* cancel) {
  auto t0 = std::chrono::steady_clock::now();
  // A null pool is a one-worker pool: it runs inline and starts no thread.
  support::WorkPool inlinePool(1);
  if (pool == nullptr) pool = &inlinePool;
  const int width = pool->width();

  smt::PersistentVerdictStore* store = opts_.checks.servingStore();
  const long long stepBudget = opts_.checks.stepBudget;

  std::vector<QueryResult> results(tasks_.size());
  long long splicedCount = 0;
  RegionVerdict verdict;

  // Incremental splice: serve whole task outcomes persisted by earlier
  // runs for conjunctions whose fingerprints did not move. A spliced task
  // is marked evaluated, so no solver touches it — the steady-state warm
  // run does no solver work at all. Replay consumes spliced and fresh
  // results identically (both are pure functions of conjunction +
  // budget), keeping the report byte-identical to a cold run at any width.
  auto adoptRecord = [&](size_t i,
                         smt::PersistentVerdictStore::TaskRecord&& rec) {
    results[i].evaluated = true;
    results[i].record = std::move(rec);
  };
  // The store context of each base a lookup reaches, opened once per run
  // by the serial walk below. Its canonical key — the key-space tag, then
  // the sorted base keys — is derived incrementally over the prefix tree:
  // a node's key is its parent's with the node's one delta key spliced in
  // at its sorted position (one linear copy), which by induction is the
  // sorted key of its whole conjunction. A task the batches evaluate was
  // visited by the walk (every step of one it passed stays dead, so the
  // batches skip it), so the batches only read opened handles.
  std::vector<smt::ContextHandle> contexts;
  std::vector<char> opened;
  std::vector<std::string> baseKeys;  // "" = not derived yet
  if (store != nullptr) {
    contexts.resize(bases_.size());
    opened.assign(bases_.size(), 0);
    baseKeys.resize(bases_.size());
  }
  auto baseKey = [&](int id) -> const std::string& {
    std::vector<int> path;
    for (int at = id; at >= 0 && baseKeys[static_cast<size_t>(at)].empty();
         at = bases_[static_cast<size_t>(at)].parent)
      path.push_back(at);
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      const BaseNode& n = bases_[static_cast<size_t>(*it)];
      const std::string& pk =
          n.parent < 0 ? keySpace_ : baseKeys[static_cast<size_t>(n.parent)];
      size_t pos = keySpace_.size();
      while (pos < pk.size()) {
        const size_t end = pk.find(';', pos);
        if (std::string_view(pk).substr(pos, end - pos) >= n.deltaKey) break;
        pos = end + 1;
      }
      std::string key;
      key.reserve(pk.size() + n.deltaKey.size() + 1);
      key.append(pk, 0, pos);
      key += n.deltaKey;
      key += ';';
      key.append(pk, pos, std::string::npos);
      baseKeys[static_cast<size_t>(*it)] = std::move(key);
    }
    return baseKeys[static_cast<size_t>(id)];
  };
  auto taskKey = [&](size_t i) {
    const QueryTask& t = tasks_[i];
    return smt::RecordKey{contexts[static_cast<size_t>(t.baseId)],
                          t.storeKey, t.digest};
  };
  auto spliceTask = [&](size_t i) {
    if (store == nullptr) return;
    const auto b = static_cast<size_t>(tasks_[i].baseId);
    if (opened[b] == 0) {
      contexts[b] = store->openContext(bases_[b].context,
                                       baseKey(tasks_[i].baseId));
      opened[b] = 1;
    }
    auto rec = store->loadTask(taskKey(i), stepBudget,
                               tasks_[i].probes.size());
    if (!rec) return;
    adoptRecord(i, std::move(*rec));
    ++splicedCount;
  };

  // Single-flight evaluation of one fresh (non-spliced) task. With a store
  // attached, the task fingerprint is claimed before any solver work: a
  // conjunction another worker or session is computing right now is
  // *joined* (its published record adopted — accounted exactly like a
  // splice, since both are pure functions of conjunction + budget), and a
  // task evaluated here is published the moment it completes, resolving
  // the claim, so concurrent joiners wait for one task rather than a whole
  // run. If evaluate() unwinds (deadline, cancellation, fault), the
  // claim's destructor unclaims and the next joiner recomputes — a failed
  // winner can delay duplicates, never poison or hang them.
  std::atomic<long long> joinedCount{0};
  std::atomic<long long> persistedCount{0};
  auto claimEvaluate = [&](smt::Solver& solver, int& atBase, size_t i) {
    if (store == nullptr) {
      results[i] = evaluate(solver, atBase, tasks_[i]);
      return;
    }
    const smt::RecordKey key = taskKey(i);
    auto flight = store->claimTask(key, stepBudget, cancel);
    if (flight.served) {
      adoptRecord(i, std::move(*flight.served));
      joinedCount.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    results[i] = evaluate(solver, atBase, tasks_[i]);
    store->storeTask(key, results[i].record);
    persistedCount.fetch_add(1, std::memory_order_relaxed);
  };

  // Early-exit awareness. Replay reads a task only at a step it reaches
  // with the step's variable still safe (the per-variable early exit,
  // paper Sec. 7.5) and before any knowledge contradiction. Every outcome
  // is a pure function of its conjunction, so each evaluated or spliced
  // one is a fact about replay: an unsafe pair makes every variable it is
  // asked under unsafe from that step on, and an Unsat consistency check
  // ends replay at its step. A task all of whose steps lie past such a
  // point is never read, so it is skipped instead of evaluated. Which
  // tasks get skipped may depend on timing, but replay reads none of them
  // at any timing, so every verdict and counter stays byte-identical.
  // Under siteVerdicts replay has no per-variable exit, so only
  // contradictions skip.
  constexpr size_t kNever = SIZE_MAX;
  std::vector<std::atomic<size_t>> unsafeFrom(model_.questions.size());
  for (auto& u : unsafeFrom) u = kNever;
  std::atomic<size_t> stopAt{kNever};
  auto lower = [](std::atomic<size_t>& a, size_t pos) {
    size_t cur = a.load();
    while (pos < cur && !a.compare_exchange_weak(cur, pos)) {
    }
  };
  auto learn = [&](size_t i) {
    const QueryResult& r = results[i];
    if (!r.evaluated) return;
    if (tasks_[i].kind == QueryTask::Kind::Consistency) {
      if (r.record.proved()) lower(stopAt, taskSteps_[i].front());
    } else if (!r.record.proved() && !opts_.siteVerdicts) {
      for (size_t pos : taskSteps_[i])
        lower(unsafeFrom[schedule_[pos].varIndex], pos);
    }
  };
  // True iff replay provably passes step `pos` without reading its task.
  auto stepDead = [&](size_t pos) {
    if (pos > stopAt.load()) return true;
    const Step& s = schedule_[pos];
    return s.op == Step::Op::Question && pos > unsafeFrom[s.varIndex].load();
  };

  // One thread-confined solver per worker; all share the verdict store,
  // if any.
  std::vector<std::unique_ptr<smt::Solver>> solvers;
  std::vector<int> atBase(static_cast<size_t>(width), -1);
  solvers.reserve(static_cast<size_t>(width));
  for (int w = 0; w < width; ++w) {
    solvers.push_back(
        std::make_unique<smt::Solver>(*model_.atoms, opts_.checks, cancel,
                                      /*persistChecks=*/false));
    solvers.back()->setAbsintHints(&model_.hints);
  }

  // The serial half: walk the schedule, visiting each task at the first
  // step replay may read, learning from every outcome as it lands — so the
  // walk follows replay's own path. It serves each task the store holds:
  // a warm run of an unchanged kernel probes only tasks replay reads, each
  // persisted by whichever earlier run evaluated it. When the calling
  // thread is the pool's only worker, the walk also evaluates each miss
  // in place on that worker's solver: the paper's testVar walk, which
  // evaluates exactly the tasks replay reads.
  const bool walkEvaluates = width == 1;
  if (store != nullptr || walkEvaluates) {
    std::vector<char> visited(tasks_.size(), 0);
    for (size_t pos = 0; pos < schedule_.size(); ++pos) {
      const auto i = static_cast<size_t>(schedule_[pos].taskIndex);
      if (visited[i] != 0 || stepDead(pos)) continue;
      visited[i] = 1;
      spliceTask(i);
      if (walkEvaluates && !results[i].evaluated &&
          (cancel == nullptr || !cancel->poll())) {
        try {
          claimEvaluate(*solvers[0], atBase[0], i);
        } catch (const support::Cancelled&) {
          // The token fired mid-check and stays fired, so neither this
          // walk nor the batches evaluate again; replay degrades the task.
          results[i] = QueryResult{};
        }
      }
      learn(i);
    }
  }

  // Speculative evaluation of whatever the walk left, over prefix-sharing
  // batches: tasks are grouped into contiguous runs of the canonical plan
  // order (the DFS emits tasks of one context consecutively, so a batch's
  // tasks share long base prefixes), and each worker walks between bases
  // with incremental push/pop on its solver instead of rebuilding the
  // stack per task. Several batches per worker keep the pool's dynamic
  // self-scheduling effective on uneven batch costs, and let outcomes of
  // the batches that run first skip tasks of the ones that run later. At
  // width 1 the walk left nothing to evaluate, and the batches only mark
  // the tasks it never reached as skipped.
  const size_t nBatches =
      std::min(tasks_.size(), static_cast<size_t>(width) * 8);
  std::vector<char> skipped(tasks_.size(), 0);
  pool->run(
      nBatches,
      [&](size_t b, int w) {
        const size_t lo = b * tasks_.size() / nBatches;
        const size_t hi = (b + 1) * tasks_.size() / nBatches;
        smt::Solver& solver = *solvers[static_cast<size_t>(w)];
        for (size_t i = lo; i < hi; ++i) {
          if (results[i].evaluated) continue;  // spliced or walked
          if (cancel != nullptr && cancel->cancelled()) return;
          if (std::all_of(taskSteps_[i].begin(), taskSteps_[i].end(),
                          stepDead)) {
            skipped[i] = 1;
            continue;
          }
          try {
            claimEvaluate(solver, atBase[static_cast<size_t>(w)], i);
          } catch (const support::Cancelled&) {
            // The token fired mid-check. The unwind may have skipped pops,
            // so this worker's solver stack no longer matches its atBase
            // trail — abandon the batch (the pool skips every later claim
            // once the token is set, so the solver is never touched
            // again). The task stays unevaluated; replay degrades it.
            results[i] = QueryResult{};
            return;
          }
          learn(i);
        }
      },
      cancel);

  auto tReplay = std::chrono::steady_clock::now();
  verdict = replay(results, skipped);
  const double replaySeconds = secondsSince(tReplay);
  verdict.threadsUsed = width;
  for (const auto& s : solvers) {
    // Fresh work: checks the store did not serve (tier-2 fresh = full
    // solves).
    const auto& st = s->stats();
    verdict.freshSolverChecks += st.checks - st.cacheHits;
    verdict.freshTier2Solves += st.checks - st.cacheHits - st.fastpathTier0 -
                                st.fastpathTier1;
  }
  verdict.tasksSpliced = splicedCount;
  verdict.tasksJoined = joinedCount.load(std::memory_order_relaxed);
  verdict.tasksPersisted = persistedCount.load(std::memory_order_relaxed);
  verdict.tasksSkipped = std::count(skipped.begin(), skipped.end(), 1);

  verdict.taskSeconds.reserve(results.size());
  for (const auto& r : results) verdict.taskSeconds.push_back(r.seconds);
  verdict.planSeconds = planSeconds_ + replaySeconds;
  verdict.analysisSeconds = planSeconds_ + secondsSince(t0);
  return verdict;
}

}  // namespace formad::core
