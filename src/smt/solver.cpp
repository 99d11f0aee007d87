#include "smt/solver.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>
#include <string>

#include "smt/diskcache.h"
#include "support/diagnostics.h"

namespace formad::smt {

std::string to_string(CheckResult r) {
  switch (r) {
    case CheckResult::Sat: return "sat";
    case CheckResult::Unsat: return "unsat";
    case CheckResult::Unknown: return "unknown";
  }
  return "?";
}

namespace {

/// Shared upgrade policy: true when `e` covers strictly more budgets than
/// `cur` (a complete verdict over an exhausted one, or an exhaustion at a
/// larger limit). Serving is guarded by sufficientFor, so this policy only
/// affects hit rates, never verdicts.
bool upgrades(const VerdictCache::Entry& e, const VerdictCache::Entry& cur) {
  return (e.complete && !cur.complete) ||
         (!e.complete && !cur.complete && e.steps > cur.steps);
}

void bumpTier(std::array<std::atomic<long long>, 3>& tiers, int tier) {
  if (tier >= 0 && tier < 3)
    tiers[static_cast<size_t>(tier)].fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::optional<VerdictCache::Entry> VerdictCache::lookup(
    const std::string& key, long long stepLimit) {
  {
    Shard& s = shardFor(key);
    std::lock_guard<std::mutex> lk(s.mu);
    auto it = s.map.find(key);
    if (it != s.map.end() && sufficientFor(it->second, stepLimit)) {
      memoryHits_.fetch_add(1, std::memory_order_relaxed);
      bumpTier(memoryHitTiers_, it->second.tier);
      return it->second;
    }
  }
  // Memory miss: consult the persistent store (IO outside the shard lock;
  // the store applies the same sufficientFor guard) and memoize a hit so
  // the rest of the run pays the disk read once per conjunction.
  if (store_ != nullptr) {
    if (auto e = store_->loadCheck(key, stepLimit)) {
      diskHits_.fetch_add(1, std::memory_order_relaxed);
      bumpTier(diskHitTiers_, e->tier);
      Shard& s = shardFor(key);
      std::lock_guard<std::mutex> lk(s.mu);
      auto [it, inserted] = s.map.emplace(key, *e);
      if (!inserted && upgrades(*e, it->second)) it->second = *e;
      return e;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void VerdictCache::store(const std::string& key, CheckResult r, int tier,
                         bool complete, long long steps) {
  stores_.fetch_add(1, std::memory_order_relaxed);
  const Entry e{r, tier, complete, steps};
  bool fresh = false;
  {
    Shard& s = shardFor(key);
    std::lock_guard<std::mutex> lk(s.mu);
    auto [it, inserted] = s.map.emplace(key, e);
    fresh = inserted;
    if (!inserted && upgrades(e, it->second)) {
      it->second = e;
      fresh = true;
    }
  }
  // Write-through outside the lock; only new/upgraded entries hit the disk.
  if (fresh && store_ != nullptr) {
    store_->storeCheck(key, e);
    diskStores_.fetch_add(1, std::memory_order_relaxed);
  }
}

VerdictCache::CheckFlight VerdictCache::claimCheck(
    const std::string& key, long long stepLimit,
    const support::CancelToken* cancel) {
  CheckFlight out;
  if (store_ == nullptr) return out;  // inert: caller computes, no claim
  auto res = store_->claimCheck(key, stepLimit, cancel);
  if (res.served) {
    // A joined result is a store-layer hit: account and memoize it exactly
    // like a disk hit in lookup(), so hit-rate diagnostics stay comparable.
    diskHits_.fetch_add(1, std::memory_order_relaxed);
    bumpTier(diskHitTiers_, res.served->tier);
    Shard& s = shardFor(key);
    std::lock_guard<std::mutex> lk(s.mu);
    auto [it, inserted] = s.map.emplace(key, *res.served);
    if (!inserted && upgrades(*res.served, it->second))
      it->second = *res.served;
    out.served = *res.served;
    return out;
  }
  out.claim = std::move(res.claim);
  return out;
}

VerdictCache::CacheStats VerdictCache::cacheStats() const {
  CacheStats cs;
  cs.memoryHits = memoryHits_.load(std::memory_order_relaxed);
  cs.diskHits = diskHits_.load(std::memory_order_relaxed);
  cs.misses = misses_.load(std::memory_order_relaxed);
  cs.stores = stores_.load(std::memory_order_relaxed);
  cs.diskStores = diskStores_.load(std::memory_order_relaxed);
  for (size_t t = 0; t < 3; ++t) {
    cs.memoryHitTiers[t] = memoryHitTiers_[t].load(std::memory_order_relaxed);
    cs.diskHitTiers[t] = diskHitTiers_[t].load(std::memory_order_relaxed);
  }
  return cs;
}

size_t VerdictCache::size() const {
  size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lk(const_cast<std::mutex&>(s.mu));
    n += s.map.size();
  }
  return n;
}

void VerdictCache::bind(const AtomTable* atoms) {
  std::lock_guard<std::mutex> lk(bindMu_);
  if (atoms_ == nullptr) {
    atoms_ = atoms;
    return;
  }
  if (atoms_ != atoms)
    fail("VerdictCache shared across distinct AtomTables: cache keys embed "
         "AtomIds, which are only meaningful relative to one table");
}

void Solver::attachCache(VerdictCache* cache) {
  if (cache != nullptr) cache->bind(&atoms_);
  sharedCache_ = cache;
}

void Solver::reset() {
  stack_.clear();
  sortedKeys_.clear();
  keySlots_.clear();
  marks_.clear();
  owner_ = std::thread::id{};
}

void Solver::requireOwner() {
  std::thread::id self = std::this_thread::get_id();
  if (owner_ == std::thread::id{}) {
    owner_ = self;
    return;
  }
  if (owner_ != self)
    fail("smt::Solver is thread-confined: used from a second thread without "
         "an intervening reset()");
}

void Solver::add(Constraint c) {
  requireOwner();
  std::string key = fp_.constraintKey(c);
  add(std::move(c), std::move(key));
}

void Solver::add(Constraint c, std::string key) {
  requireOwner();
  const auto at =
      std::upper_bound(sortedKeys_.begin(), sortedKeys_.end(), key);
  keySlots_.push_back(static_cast<size_t>(at - sortedKeys_.begin()));
  sortedKeys_.insert(at, std::move(key));
  stack_.push_back(std::move(c));
  ++stats_.assertionsAdded;
}

void Solver::push() {
  requireOwner();
  marks_.push_back(stack_.size());
}

void Solver::pop() {
  requireOwner();
  if (marks_.empty())
    fail("Solver::pop without matching push (assertion stack has " +
         std::to_string(stack_.size()) + " assertions and no open scope)");
  const size_t mark = marks_.back();
  // Newest first, so each recorded slot is valid when its key is erased.
  for (size_t k = stack_.size(); k-- > mark;)
    sortedKeys_.erase(sortedKeys_.begin() +
                      static_cast<std::ptrdiff_t>(keySlots_[k]));
  keySlots_.resize(mark);
  stack_.resize(mark);
  marks_.pop_back();
}

std::string Solver::stackKey() const {
  // A conjunction is order-independent; the sorted order makes stacks that
  // assert the same constraints in different orders share a cache entry.
  // The per-constraint keys were derived and placed once at add() time.
  size_t bytes = 32;  // room for the salt prefix
  for (const auto& p : sortedKeys_) bytes += p.size() + 1;
  std::string key;
  key.reserve(bytes);
  if (hints_ != nullptr && hints_->salt != 0) {
    // Verdicts carry the decision tier, and the available deciders differ
    // under -absint — prefixing the fact-bundle salt keeps the two key
    // spaces (and hence every in-memory and on-disk cache) disjoint.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "absint:%016llx;",
                  static_cast<unsigned long long>(hints_->salt));
    key += buf;
  }
  for (const auto& p : sortedKeys_) {
    key += p;
    key += ';';
  }
  return key;
}

CheckResult Solver::check() {
  requireOwner();
  ++stats_.checks;
  lastBudgetExhausted_ = false;
  lastSteps_ = 0;
  if (fault_ != nullptr) {
    long long n =
        fault_->checksSeen.fetch_add(1, std::memory_order_relaxed) + 1;
    if (fault_->throwAtCheck > 0 && n == fault_->throwAtCheck)
      fail("injected solver fault at check " + std::to_string(n));
    if (fault_->unknownAtCheck > 0 && n == fault_->unknownAtCheck) {
      // An injected fault is not a verdict — never cached.
      lastTier_ = 2;
      lastBudgetExhausted_ = true;
      ++stats_.budgetExhausted;
      return CheckResult::Unknown;
    }
  }
  std::string key = stackKey();
  if (sharedCache_ != nullptr) {
    if (auto cached = sharedCache_->lookup(key, stepLimit_)) {
      ++stats_.cacheHits;
      lastTier_ = cached->tier;
      lastSteps_ = cached->steps;  // served provenance (see lastCheckSteps)
      if (!cached->complete) {
        lastBudgetExhausted_ = true;
        ++stats_.budgetExhausted;
      }
      return cached->result;
    }
    // Single-flight gate (inert without an attached store): claim the
    // conjunction before solving so concurrent duplicates — other workers,
    // other sessions of a daemon — block and join this solve instead of
    // re-paying it. A served claim is indistinguishable from the cache hit
    // above (same counters, same provenance), keeping freshSolverChecks
    // = checks - cacheHits meaningful under dedup; and if decide() unwinds
    // (cancellation, deadline, injected fault), the claim's destructor
    // unclaims so a joiner recomputes instead of hanging.
    auto flight = sharedCache_->claimCheck(key, stepLimit_, cancel_);
    if (flight.served) {
      ++stats_.cacheHits;
      lastTier_ = flight.served->tier;
      lastSteps_ = flight.served->steps;
      if (!flight.served->complete) {
        lastBudgetExhausted_ = true;
        ++stats_.budgetExhausted;
      }
      return flight.served->result;
    }
    CheckResult r = decide();
    sharedCache_->store(key, r, lastTier_, !lastBudgetExhausted_,
                        lastBudgetExhausted_ ? stepLimit_ : lastSteps_);
    return r;
  }
  auto it = verdictCache_.find(key);
  if (it != verdictCache_.end() &&
      VerdictCache::sufficientFor(it->second, stepLimit_)) {
    ++stats_.cacheHits;
    lastTier_ = it->second.tier;
    lastSteps_ = it->second.steps;
    if (!it->second.complete) {
      lastBudgetExhausted_ = true;
      ++stats_.budgetExhausted;
    }
    return it->second.result;
  }
  CheckResult r = decide();
  VerdictCache::Entry e{r, lastTier_, !lastBudgetExhausted_,
                        lastBudgetExhausted_ ? stepLimit_ : lastSteps_};
  if (it != verdictCache_.end()) {
    // Insufficient entry found above: upgrade under the same policy as
    // VerdictCache::store.
    if (upgrades(e, it->second)) it->second = e;
  } else {
    verdictCache_.emplace(std::move(key), e);
  }
  return r;
}

CheckResult Solver::decide() {
  if (fastMode_ != FastPathMode::Off) {
    FastDecision d = decideFast(atoms_, stack_, fastMode_, hints_);
    if (d.verdict != FastVerdict::Unknown) {
      lastTier_ = d.tier;
      if (d.tier == 0)
        ++stats_.fastpathTier0;
      else
        ++stats_.fastpathTier1;
      return d.verdict == FastVerdict::Disjoint ? CheckResult::Unsat
                                                : CheckResult::Sat;
    }
  }
  lastTier_ = 2;
  budget_.arm(stepLimit_, cancel_);
  try {
    CheckResult r = solve();
    lastSteps_ = budget_.used();
    return r;
  } catch (const StepLimitReached&) {
    // Deterministic cutoff: the step count is a pure function of the
    // conjunction, so the same budget gives up on the same checks at any
    // pool width. Unknown is the safe direction (atomic adjoint).
    lastSteps_ = budget_.used();
    lastBudgetExhausted_ = true;
    ++stats_.budgetExhausted;
    return CheckResult::Unknown;
  }
}

std::string Solver::Stats::describe() const {
  std::string s = "checks " + std::to_string(checks) + " (" +
                  std::to_string(cacheHits) + " cached, " +
                  std::to_string(fastpathTier0) + " tier-0, " +
                  std::to_string(fastpathTier1) + " tier-1, " +
                  std::to_string(checks - cacheHits - fastpathTier0 -
                                 fastpathTier1) +
                  " tier-2), assertions " + std::to_string(assertionsAdded) +
                  ", reduces " + std::to_string(reduceCalls) + " (" +
                  std::to_string(reduceMemoHits) + " memoized), models " +
                  std::to_string(modelsFound) + "/" +
                  std::to_string(modelSearches);
  if (budgetExhausted > 0)
    s += ", budget-exhausted " + std::to_string(budgetExhausted);
  return s;
}

CheckResult Solver::solve() {
  LiaSystem lia;
  lia.setStepBudget(&budget_);
  for (const auto& c : stack_)
    if (c.rel == Rel::Eq && !lia.addEquality(c.expr))
      return CheckResult::Unsat;

  if (!congruenceClose(atoms_, lia)) return CheckResult::Unsat;
  if (!lia.integerFeasible()) return CheckResult::Unsat;  // fast gcd filter
  {
    // Exact joint integer feasibility of the (reduced) equality system.
    std::vector<LinExpr> eqs = lia.equations();
    std::vector<const LinExpr*> ptrs;
    ptrs.reserve(eqs.size());
    for (const auto& e : eqs) ptrs.push_back(&e);
    std::vector<IntRow> rows;
    (void)denseRows(ptrs, rows);
    if (!integerSolvable(std::move(rows), &budget_)) return CheckResult::Unsat;
  }

  // Disequalities: e != 0 is violated iff the equalities entail e = 0.
  // Each residue is computed once and reused by the pinned-interval pass.
  std::vector<LinExpr> neResidues;
  for (const auto& c : stack_) {
    if (c.rel != Rel::Ne) continue;
    ++stats_.reduceCalls;
    LinExpr r = lia.reduce(c.expr);
    if (r.isZero()) return CheckResult::Unsat;
    neResidues.push_back(std::move(r));
  }

  // Inequalities: constant violations, then single-atom interval tracking
  // (shared with the tier-1 "t1-interval" decider via smt/bounds.h, so the
  // two can never drift).
  bool sawUndecidedLe = false;
  BoundsMap bounds;
  for (const auto& c : stack_) {
    if (c.rel != Rel::Le) continue;
    ++stats_.reduceCalls;
    switch (bounds.foldLeResidue(lia.reduce(c.expr))) {
      case BoundsMap::LeFold::ConstantViolated:
        return CheckResult::Unsat;
      case BoundsMap::LeFold::ConstantHolds:
      case BoundsMap::LeFold::Folded:
        break;
      case BoundsMap::LeFold::MultiAtom:
        sawUndecidedLe = true;
        break;
    }
  }
  for (const auto& [id, bb] : bounds.all()) {
    (void)id;
    if (bb.empty()) return CheckResult::Unsat;
  }
  // Disequality pinned to a point interval (residues memoized above).
  for (const LinExpr& r : neResidues) {
    ++stats_.reduceMemoHits;
    if (r.coeffs().size() != 1) continue;
    auto [id, coeff] = *r.coeffs().begin();
    const Bounds* bb = bounds.find(id);
    if (bb == nullptr) continue;
    Rational v = (-r.constant()) / coeff;  // the excluded value
    if (bb->pinned() && *bb->lo == v) return CheckResult::Unsat;
  }

  return sawUndecidedLe ? CheckResult::Unknown : CheckResult::Sat;
}

Rational Solver::evaluate(const LinExpr& e, const Model& m) {
  Rational v = e.constant();
  for (const auto& [id, coeff] : e.coeffs()) {
    auto it = m.find(id);
    FORMAD_ASSERT(it != m.end(), "model evaluation: unassigned atom");
    v += coeff * Rational(it->second);
  }
  return v;
}

namespace {

/// Enumerates small integer coordinate vectors of dimension `dims` in
/// roughly increasing magnitude: the origin, then single-coordinate spikes
/// of growing height, then two-coordinate combinations, then a
/// deterministic pseudo-random sweep. The systems the race checker
/// produces need at most two active lattice directions (one to separate
/// the iteration pair, one to push a symbolic extent past the bounds), so
/// this order finds the small witnesses users want to read first.
class CoordinateSearch {
 public:
  explicit CoordinateSearch(size_t dims) : dims_(dims), t_(dims, 0) {}

  /// Returns the next candidate or nullptr once the budget is exhausted.
  const std::vector<long long>* next() {
    if (dims_ == 0) {
      // Zero-dimensional lattice: the particular solution is the only
      // candidate.
      return phase_++ == 0 ? &t_ : nullptr;
    }
    if (++emitted_ > kBudget) return nullptr;
    switch (phase_) {
      case 0:  // origin
        phase_ = 1;
        return &t_;
      case 1:  // single nonzero coordinate, growing magnitude
        if (singleNext()) return &t_;
        phase_ = 2;
        std::fill(t_.begin(), t_.end(), 0);
        [[fallthrough]];
      case 2:  // pairs of nonzero coordinates
        if (pairNext()) return &t_;
        phase_ = 3;
        std::fill(t_.begin(), t_.end(), 0);
        [[fallthrough]];
      default:  // deterministic pseudo-random sweep
        for (size_t j = 0; j < dims_; ++j) {
          rngState_ = rngState_ * 6364136223846793005ULL + 1442695040888963407ULL;
          t_[j] = static_cast<long long>((rngState_ >> 33) % 19) - 9;
        }
        return &t_;
    }
  }

 private:
  bool singleNext() {
    // State: (radius r in 1..kRadius, coordinate j, sign).
    while (r1_ <= kRadius) {
      if (j1_ < dims_) {
        std::fill(t_.begin(), t_.end(), 0);
        t_[j1_] = neg1_ ? -r1_ : r1_;
        if (neg1_) {
          neg1_ = false;
          ++j1_;
        } else {
          neg1_ = true;
        }
        return true;
      }
      j1_ = 0;
      ++r1_;
    }
    return false;
  }

  bool pairNext() {
    while (ra_ <= kPairRadius) {
      while (rb_ <= kPairRadius) {
        while (ja_ < dims_) {
          while (jb_ < dims_) {
            if (jb_ == ja_) {
              ++jb_;
              continue;
            }
            if (sign_ < 4) {
              std::fill(t_.begin(), t_.end(), 0);
              t_[ja_] = (sign_ & 1) ? -ra_ : ra_;
              t_[jb_] = (sign_ & 2) ? -rb_ : rb_;
              ++sign_;
              return true;
            }
            sign_ = 0;
            ++jb_;
          }
          jb_ = 0;
          ++ja_;
        }
        ja_ = 0;
        ++rb_;
      }
      rb_ = 1;
      ++ra_;
    }
    return false;
  }

  static constexpr long long kRadius = 24;
  static constexpr long long kPairRadius = 8;
  static constexpr long long kBudget = 60000;

  size_t dims_;
  std::vector<long long> t_;
  int phase_ = 0;
  long long emitted_ = 0;
  // single-coordinate state
  long long r1_ = 1;
  size_t j1_ = 0;
  bool neg1_ = false;
  // pair state
  long long ra_ = 1, rb_ = 1;
  size_t ja_ = 0, jb_ = 0;
  int sign_ = 0;
  // pseudo-random state (fixed seed: runs are reproducible)
  unsigned long long rngState_ = 0x9e3779b97f4a7c15ULL;
};

}  // namespace

std::optional<Model> Solver::model() {
  requireOwner();
  ++stats_.modelSearches;
  budget_.arm(stepLimit_, cancel_);
  try {
    return modelImpl();
  } catch (const StepLimitReached&) {
    // Witness search ran out of its step budget. No model means "unknown"
    // to every caller (never Unsat), so giving up here is sound.
    return std::nullopt;
  }
}

std::optional<Model> Solver::modelImpl() {
  // Rebuild the equality engine exactly as solve() does; a contradiction
  // here means Unsat, hence no model.
  LiaSystem lia;
  lia.setStepBudget(&budget_);
  for (const auto& c : stack_)
    if (c.rel == Rel::Eq && !lia.addEquality(c.expr)) return std::nullopt;
  if (!congruenceClose(atoms_, lia)) return std::nullopt;

  // The atom universe: everything the stack or the reduced system mentions
  // must receive a value.
  std::set<AtomId> universe;
  for (const auto& c : stack_)
    for (const auto& [id, coeff] : c.expr.coeffs()) {
      (void)coeff;
      universe.insert(id);
    }
  std::vector<LinExpr> eqs = lia.equations();
  std::vector<const LinExpr*> ptrs;
  ptrs.reserve(eqs.size());
  for (const auto& e : eqs) {
    for (const auto& [id, coeff] : e.coeffs()) {
      (void)coeff;
      universe.insert(id);
    }
    ptrs.push_back(&e);
  }

  // Parametric integer solution of the equality system.
  std::vector<IntRow> rows;
  std::vector<AtomId> columns = denseRows(ptrs, rows);
  std::optional<IntSolution> sol =
      integerSolve(std::move(rows), columns.size(), &budget_);
  if (!sol) return std::nullopt;

  // Atoms outside the equality system are unconstrained extra lattice
  // dimensions of their own.
  std::vector<AtomId> freeAtoms;
  for (AtomId id : universe)
    if (!std::binary_search(columns.begin(), columns.end(), id))
      freeAtoms.push_back(id);

  const size_t latticeDims = sol->basis.size();
  const size_t dims = latticeDims + freeAtoms.size();

  auto assemble = [&](const std::vector<long long>& t) {
    Model m;
    for (size_t c = 0; c < columns.size(); ++c) {
      __int128 v = sol->particular[c];
      for (size_t j = 0; j < latticeDims; ++j)
        v += static_cast<__int128>(t[j]) * sol->basis[j][c];
      FORMAD_ASSERT(v <= INT64_MAX && v >= INT64_MIN, "model value overflow");
      m[columns[c]] = static_cast<long long>(v);
    }
    for (size_t j = 0; j < freeAtoms.size(); ++j)
      m[freeAtoms[j]] = t[latticeDims + j];
    return m;
  };

  auto satisfies = [&](const Model& m) {
    for (const auto& c : stack_) {
      Rational v = evaluate(c.expr, m);
      switch (c.rel) {
        case Rel::Eq:
          if (!v.isZero()) return false;
          break;
        case Rel::Ne:
          if (v.isZero()) return false;
          break;
        case Rel::Le:
          if (v.sign() > 0) return false;
          break;
      }
    }
    return true;
  };

  CoordinateSearch search(dims);
  while (const std::vector<long long>* t = search.next()) {
    budget_.charge();  // one step per witness candidate
    Model m = assemble(*t);
    if (satisfies(m)) {
      ++stats_.modelsFound;
      return m;
    }
  }
  return std::nullopt;
}

}  // namespace formad::smt
