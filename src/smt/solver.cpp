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
  size_t bytes = 64;  // room for the key-space prefixes
  for (const auto& p : sortedKeys_) bytes += p.size() + 1;
  std::string key;
  key.reserve(bytes);
  // Verdicts carry the decision tier, and the available deciders differ
  // by fast-path mode and under -absint — prefixing both keeps each
  // setting's key space (and hence the store's records) disjoint. Full
  // mode, the analyses' default, adds no prefix.
  if (fastMode_ != FastPathMode::Full) {
    key += "fastpath:";
    key += to_string(fastMode_);
    key += ';';
  }
  if (hints_ != nullptr && hints_->salt != 0) {
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
  if (fault_ != nullptr) {
    long long n =
        fault_->checksSeen.fetch_add(1, std::memory_order_relaxed) + 1;
    if (fault_->throwAtCheck > 0 && n == fault_->throwAtCheck)
      fail("injected solver fault at check " + std::to_string(n));
    if (fault_->unknownAtCheck > 0 && n == fault_->unknownAtCheck) {
      // An injected fault is not a verdict — never cached.
      last_ = {CheckResult::Unknown, 2, false, stepLimit_};
      ++stats_.budgetExhausted;
      return last_.result;
    }
  }
  if (store_ == nullptr) {
    last_ = decide();
    return last_.result;
  }
  // Load, then claim: a conjunction another solver — another worker,
  // another session of a daemon — is deciding right now is joined
  // instead of re-paid. A joined verdict is indistinguishable from a
  // loaded one (same counters, same provenance), keeping
  // freshSolverChecks = checks - cacheHits meaningful under dedup; and if
  // decide() unwinds (cancellation, deadline, injected fault), the claim's
  // destructor unclaims so a joiner recomputes instead of hanging.
  const std::string key = stackKey();
  std::optional<VerdictRecord> served = store_->loadCheck(key, stepLimit_);
  PersistentVerdictStore::FlightClaim claim;
  if (!served) {
    auto flight = store_->claimCheck(key, stepLimit_, cancel_);
    served = std::move(flight.served);
    claim = std::move(flight.claim);
  }
  if (served) {
    ++stats_.cacheHits;
    last_ = *served;
    if (!last_.complete) ++stats_.budgetExhausted;
    return last_.result;
  }
  last_ = decide();
  store_->storeCheck(key, last_);
  return last_.result;
}

VerdictRecord Solver::decide() {
  if (fastMode_ != FastPathMode::Off) {
    FastDecision d = decideFast(atoms_, stack_, fastMode_, hints_);
    if (d.verdict != FastVerdict::Unknown) {
      if (d.tier == 0)
        ++stats_.fastpathTier0;
      else
        ++stats_.fastpathTier1;
      return {d.verdict == FastVerdict::Disjoint ? CheckResult::Unsat
                                                 : CheckResult::Sat,
              d.tier, true, 0};
    }
  }
  budget_.arm(stepLimit_, cancel_);
  try {
    const CheckResult r = solve();
    return {r, 2, true, budget_.used()};
  } catch (const StepLimitReached&) {
    // Deterministic cutoff: the step count is a pure function of the
    // conjunction, so the same budget gives up on the same checks at any
    // pool width. Unknown is the safe direction (atomic adjoint).
    ++stats_.budgetExhausted;
    return {CheckResult::Unknown, 2, false, stepLimit_};
  }
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
