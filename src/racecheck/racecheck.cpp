#include "racecheck/racecheck.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>

#include "analysis/accesses.h"
#include "analysis/instances.h"
#include "analysis/symbols.h"
#include "cfg/cfg.h"
#include "cfg/context.h"
#include "formad/knowledge.h"
#include "ir/printer.h"
#include "ir/traversal.h"
#include "smt/solver.h"
#include "support/cancel.h"
#include "support/pool.h"

namespace formad::racecheck {

using namespace ::formad::ir;
using analysis::ArrayAccess;
using smt::AtomId;
using smt::LinExpr;

std::string to_string(RaceVerdict v) {
  switch (v) {
    case RaceVerdict::RaceFree: return "race-free";
    case RaceVerdict::Racy: return "RACY";
    case RaceVerdict::Unknown: return "unknown";
  }
  return "?";
}

std::string RaceWitness::render() const {
  std::ostringstream os;
  if (scalar) {
    os << "shared scalar '" << array << "': every iteration pair writes the "
       << "same location (" << refA;
    if (locA.known()) os << ", " << locA.str();
    os << ")";
    return os.str();
  }
  os << "array '" << array << "': " << (bothWrites ? "write/write" : "write/read")
     << " collision between " << refA;
  if (locA.known()) os << " (" << locA.str() << ")";
  os << " on iteration " << iterA << " and " << refB;
  if (locB.known()) os << " (" << locB.str() << ")";
  os << " on iteration " << iterB << " at element [";
  for (size_t k = 0; k < indices.size(); ++k) {
    if (k) os << ", ";
    os << indices[k];
  }
  os << "]";
  if (!assignment.empty()) {
    os << " under ";
    for (size_t k = 0; k < assignment.size(); ++k) {
      if (k) os << ", ";
      os << assignment[k].first << " = " << assignment[k].second;
    }
  }
  return os.str();
}

RaceVerdict RaceReport::overall() const {
  RaceVerdict v = RaceVerdict::RaceFree;
  for (const auto& r : regions) {
    if (r.verdict == RaceVerdict::Racy) return RaceVerdict::Racy;
    if (r.verdict == RaceVerdict::Unknown) v = RaceVerdict::Unknown;
  }
  return v;
}

std::string RaceReport::describe() const {
  std::ostringstream os;
  os << "race check of kernel '" << kernel << "': " << to_string(overall())
     << " (" << regions.size() << " parallel region"
     << (regions.size() == 1 ? "" : "s") << ")\n";
  for (size_t i = 0; i < regions.size(); ++i) {
    const auto& r = regions[i];
    os << "  region " << i << " (counter '" << r.loop->var
       << "'): " << to_string(r.verdict) << " — " << r.pairsChecked
       << " pairs, " << r.pairsProven << " proven, " << r.pairsAssumed
       << " assumed, " << r.queries << " queries";
    // Governance suffix only when something degraded: default (unlimited,
    // no deadline) reports stay byte-identical to the classic format.
    if (r.budgetExhaustedChecks > 0 || r.degradedPairs > 0)
      os << " (" << r.budgetExhaustedChecks << " budget-exhausted, "
         << r.degradedPairs << " degraded)";
    os << "\n";
    for (const auto& w : r.witnesses) os << "    witness: " << w.render() << "\n";
    for (const auto& u : r.undecided)
      os << "    undecided: " << u.array << " " << u.refA << " vs " << u.refB
         << " — " << u.reason << "\n";
  }
  return os.str();
}

namespace {

/// A region stops collecting witnesses after this many.
constexpr int kMaxWitnessesPerRegion = 4;

/// One array reference with lowered per-dimension index expressions on both
/// the plain (iteration i) and primed (iteration i') side.
struct LoweredRef {
  const ArrayAccess* acc = nullptr;
  std::vector<LinExpr> dims;
  std::vector<LinExpr> dimsPrimed;
  bool lowered = false;    // false: index unsupported by the lowering
  bool guarded = false;    // reference sits under a condition in the region
};

class RegionChecker {
 public:
  RegionChecker(const For& loop, const analysis::SymbolTable& syms,
                const std::map<std::string, long long>& pinned,
                const RaceCheckOptions& opts)
      : loop_(loop),
        syms_(syms),
        pinned_(pinned),
        opts_(opts),
        inst_(analysis::computeInstances(loop)),
        privates_(core::privateNames(loop)),
        low_(atoms_, &inst_, privates_, syms_, &pinned_),
        cancel_(regionToken(opts, deadline_)),
        solver_(atoms_, opts.checks, cancel_) {}

  RegionRaceReport run() {
    report_.loop = &loop_;

    // Serial front half: lowering, substitution, and pair enumeration all
    // intern atoms and fill memo tables, so they stay on this thread. The
    // resulting tasks are self-contained converse queries.
    buildContexts();
    buildDefiningEquations();
    buildBaseConstraints();
    checkSharedScalarWrites();
    std::vector<PairTask> tasks = planArrayPairs();

    // Evaluate every pair query across the pool (the AtomTable is
    // read-only from here on) on per-worker solvers; without a pool, one
    // inline worker runs them in order. Each outcome is a pure function of
    // the task, so the merge below is independent of evaluation order.
    std::vector<PairOutcome> outcomes(tasks.size());
    support::WorkPool inlinePool(1);
    support::TaskPool* pool = opts_.pool != nullptr ? opts_.pool : &inlinePool;
    const int width = pool->width();
    std::vector<std::unique_ptr<smt::Solver>> solvers;
    std::vector<char> seeded(static_cast<size_t>(width), 0);
    for (int w = 0; w < width; ++w)
      solvers.push_back(
          std::make_unique<smt::Solver>(atoms_, opts_.checks, cancel_));
    pool->run(
        tasks.size(),
        [&](size_t i, int w) {
          smt::Solver& s = *solvers[static_cast<size_t>(w)];
          if (seeded[static_cast<size_t>(w)] == 0) {
            // Seed the worker's solver on its own thread (solvers are
            // thread-confined) with the region's base constraints.
            for (const auto& c : base_) s.add(c);
            seeded[static_cast<size_t>(w)] = 1;
          }
          try {
            outcomes[i] = evaluatePair(s, tasks[i]);
          } catch (const support::Cancelled&) {
            // Token fired mid-check. The unwind may have skipped a pop,
            // but the pool skips every later claim once the token is set,
            // so this worker's solver is never used again. The outcome
            // stays default (skipped); the merge degrades it.
            outcomes[i] = PairOutcome{};
          }
        },
        cancel_);

    // Canonical merge: pair order is the enumeration order, identical at
    // any pool width — as are the witness cap and every counter.
    for (size_t i = 0; i < tasks.size(); ++i) mergePair(tasks[i], outcomes[i]);

    if (!report_.witnesses.empty())
      report_.verdict = RaceVerdict::Racy;
    else if (!report_.undecided.empty())
      report_.verdict = RaceVerdict::Unknown;
    else
      report_.verdict = RaceVerdict::RaceFree;
    return std::move(report_);
  }

 private:
  const For& loop_;
  const analysis::SymbolTable& syms_;
  const std::map<std::string, long long>& pinned_;
  const RaceCheckOptions& opts_;

  analysis::InstanceMap inst_;
  std::set<std::string> privates_;
  smt::AtomTable atoms_;
  core::IndexLowering low_;
  /// Region-level cancellation: an externally owned token wins; otherwise
  /// a configured deadline arms deadline_, so every region receives the
  /// full deadline. Armed before any solver is built.
  support::CancelToken deadline_;
  support::CancelToken* const cancel_;
  smt::Solver solver_;  // base conjunction only: shared-scalar witnesses

  cfg::Cfg cfg_;
  cfg::ContextTree contexts_;

  AtomId counter_ = -1, counterPrime_ = -1;
  std::map<AtomId, LinExpr> defs_;       // private int scalar -> its value
  std::map<AtomId, LinExpr> substMemo_;  // fully substituted defs
  std::vector<smt::Constraint> base_;    // the every-query base conjunction
  RegionRaceReport report_;

  /// One self-contained converse query: reference A (primed side, always a
  /// write) against reference B, dims already substituted. Tasks own their
  /// data so evaluation can run on any worker.
  struct PairTask {
    std::string array;
    std::string refA, refB;
    SourceLoc locA, locB;
    bool bothWrites = false;
    bool guarded = false;
    bool lowered = false;
    std::vector<LinExpr> da, db, diffs;
  };

  static support::CancelToken* regionToken(const RaceCheckOptions& opts,
                                           support::CancelToken& deadline) {
    if (opts.cancel != nullptr) return opts.cancel;
    if (opts.checks.deadlineMs <= 0) return nullptr;
    deadline.armDeadline(opts.checks.deadlineMs);
    return &deadline;
  }

  /// Outcome of one converse query — a pure function of its task, so
  /// evaluation order (and hence pool width) cannot affect the merge.
  struct PairOutcome {
    enum class Kind { Proven, Assumed, Undecided, Witness };
    Kind kind = Kind::Undecided;
    std::string reason;  // Undecided; empty = never evaluated (cancelled)
    /// The solver's record of the one check this query issued, if any
    /// (deterministic under a fixed step budget).
    std::optional<smt::VerdictRecord> check;
    smt::Model model;    // Witness
    std::vector<long long> indices;
  };

  void buildContexts() {
    cfg_ = cfg::buildCfg(loop_.body);
    contexts_ = cfg::buildContextTree(cfg_);
  }

  /// Lowers an expression evaluated *before* the region body (loop bounds):
  /// no instance numbers apply, every use denotes the pre-loop value.
  [[nodiscard]] std::optional<LinExpr> lowerBound(const Expr& e) {
    core::IndexLowering boundLow(atoms_, nullptr, {}, syms_, &pinned_);
    try {
      return boundLow.lower(e, /*primed=*/false);
    } catch (const Error&) {
      return std::nullopt;
    }
  }

  /// Records, for every privately computed integer scalar, the lowered
  /// right-hand side of its defining statement — keyed by the (name,
  /// instance) atom the definition mints, in both plain and primed form.
  /// Substituting these into queried index dimensions is what lets the
  /// checker see through `var i = n_cell_entries * cell`.
  void buildDefiningEquations() {
    forEachStmt(loop_.body, [&](const Stmt& s) {
      const Expr* rhs = nullptr;
      std::string name;
      int instance = -1;
      if (s.kind() == StmtKind::Assign) {
        const auto& a = s.as<Assign>();
        if (a.lhs->kind() != ExprKind::VarRef) return;
        name = a.lhs->as<VarRef>().name;
        rhs = a.rhs.get();
        instance = inst_.instanceOf(a.lhs.get());
      } else if (s.kind() == StmtKind::DeclLocal) {
        const auto& d = s.as<DeclLocal>();
        if (!d.init) return;
        name = d.name;
        rhs = d.init.get();
        instance = inst_.instanceOfDef(&s);
      } else {
        return;
      }
      if (instance < 0 || name == loop_.var) return;
      if (privates_.count(name) == 0) return;
      const analysis::Symbol* sym = syms_.find(name);
      if (sym == nullptr || !sym->type.isInt() || sym->type.isArray()) return;
      try {
        LinExpr plain = low_.lower(*rhs, /*primed=*/false);
        LinExpr primed = low_.lower(*rhs, /*primed=*/true);
        defs_.emplace(atoms_.internVar(name, instance, false), plain);
        defs_.emplace(atoms_.internVar(name, instance, true), primed);
      } catch (const Error&) {
        // Unsupported rhs: the atom stays opaque; pairs depending on it
        // land in Unknown via the taint check.
      }
    });
  }

  [[nodiscard]] LinExpr substitute(const LinExpr& e, int depth = 16) {
    LinExpr out(e.constant());
    for (const auto& [id, c] : e.coeffs()) {
      auto def = defs_.find(id);
      if (def == defs_.end() || depth <= 0) {
        out.addTerm(id, c);
        continue;
      }
      auto memo = substMemo_.find(id);
      if (memo == substMemo_.end()) {
        LinExpr full = substitute(def->second, depth - 1);
        memo = substMemo_.emplace(id, std::move(full)).first;
      }
      out = out + memo->second.scaled(c);
    }
    return out;
  }

  /// The conjunction every collision query runs under: i != i', the
  /// counters tied to the loop's iteration lattice (i = lo + step*q with
  /// q >= 0 — this is what makes stride-s stencils provably safe), and the
  /// upper bound i <= hi. Bounds that fail to lower are simply omitted:
  /// fewer constraints only weakens Unsat proofs, never unsoundly.
  /// Appends to the base conjunction, mirrored into the region solver and
  /// into base_ so per-worker solvers can be seeded with the same stack.
  void addBase(smt::Constraint c) {
    base_.push_back(c);
    solver_.add(std::move(c));
  }

  void buildBaseConstraints() {
    counter_ = atoms_.internVar(loop_.var, 0, false);
    counterPrime_ = atoms_.internVar(loop_.var, 0, true);
    addBase(smt::Constraint::ne(LinExpr::atom(counterPrime_),
                                LinExpr::atom(counter_)));

    std::optional<LinExpr> lo = lowerBound(*loop_.lo);
    std::optional<LinExpr> hi = lowerBound(*loop_.hi);
    std::optional<LinExpr> step = lowerBound(*loop_.step);

    bool strideKnown = step && step->isConstant() &&
                       step->constant().isInteger() &&
                       step->constant().num() >= 1;
    if (lo && strideKnown) {
      AtomId q = atoms_.internVar("__" + loop_.var + "_iter", 0, false);
      AtomId qp = atoms_.internVar("__" + loop_.var + "_iter", 0, true);
      smt::Rational s = step->constant();
      addBase(smt::Constraint::eq(LinExpr::atom(counter_),
                                  *lo + LinExpr::atom(q, s)));
      addBase(smt::Constraint::eq(LinExpr::atom(counterPrime_),
                                  *lo + LinExpr::atom(qp, s)));
      addBase(smt::Constraint::le(LinExpr(0), LinExpr::atom(q)));
      addBase(smt::Constraint::le(LinExpr(0), LinExpr::atom(qp)));
    } else if (lo) {
      addBase(smt::Constraint::le(*lo, LinExpr::atom(counter_)));
      addBase(smt::Constraint::le(*lo, LinExpr::atom(counterPrime_)));
    }
    if (hi) {
      addBase(smt::Constraint::le(LinExpr::atom(counter_), *hi));
      addBase(smt::Constraint::le(LinExpr::atom(counterPrime_), *hi));
    }
  }

  /// Readable slice of a model: named variables only, primed names with an
  /// apostrophe, internal atoms (__iter, __dim_*) and UF reads skipped.
  [[nodiscard]] std::vector<std::pair<std::string, long long>>
  renderAssignment(const smt::Model& m) const {
    std::vector<std::pair<std::string, long long>> out;
    for (const auto& [id, value] : m) {
      const smt::Atom& a = atoms_.atom(id);
      if (a.kind != smt::AtomKind::Var) continue;
      if (a.name.rfind("__", 0) == 0) continue;
      out.emplace_back(a.name + (a.primed ? "'" : ""), value);
    }
    return out;
  }

  /// A model of the base constraints alone — any legal iteration pair.
  /// Used for collisions that hold on *every* pair (same constant index,
  /// shared scalar writes).
  [[nodiscard]] std::optional<smt::Model> anyIterationPair() {
    return solver_.model();
  }

  void checkSharedScalarWrites() {
    std::set<std::string> done;
    forEachStmt(loop_.body, [&](const Stmt& s) {
      if (s.kind() != StmtKind::Assign) return;
      const auto& a = s.as<Assign>();
      if (a.lhs->kind() != ExprKind::VarRef) return;
      const std::string& name = a.lhs->as<VarRef>().name;
      if (privates_.count(name) > 0) return;
      if (loop_.isReduction(name) || a.guard != Guard::None) return;
      if (!done.insert(name).second) return;
      // An unguarded write to a shared scalar: every iteration pair
      // collides on the same address.
      RaceWitness w;
      w.array = name;
      w.scalar = true;
      w.bothWrites = true;
      w.refA = name + " = " + printExpr(*a.rhs);
      w.locA = w.locB = s.loc();
      if (auto m = anyIterationPair()) {
        w.iterA = m->at(counterPrime_);
        w.iterB = m->at(counter_);
        w.assignment = renderAssignment(*m);
      } else {
        w.iterA = 0;
        w.iterB = 1;
      }
      if (static_cast<int>(report_.witnesses.size()) <
          kMaxWitnessesPerRegion)
        report_.witnesses.push_back(std::move(w));
      ++report_.pairsChecked;
    });
  }

  /// True if the (substituted) expression only depends on atoms the
  /// iteration pair determines: the two counters and their lattice
  /// coordinates. Anything else — an uninterpreted array read, an unpinned
  /// parameter, a private whose definition could not be resolved — makes a
  /// Sat answer inconclusive, because the collision would depend on values
  /// the checker does not control. `offender` receives a printable name.
  [[nodiscard]] bool iterationDetermined(const LinExpr& e,
                                         std::string& offender) const {
    for (const auto& [id, c] : e.coeffs()) {
      (void)c;
      const smt::Atom& a = atoms_.atom(id);
      if (a.kind == smt::AtomKind::UF) {
        offender = "index depends on data: " + a.str();
        return false;
      }
      if (id == counter_ || id == counterPrime_) continue;
      offender = "index depends on '" + a.str() + "'";
      return false;
    }
    return true;
  }

  /// True if the pair is discharged by a declared coloring fact: both
  /// dimension expressions are single reads of the same declared coloring
  /// array, on the primed vs the plain iteration — the caller's promise is
  /// exactly that such values never coincide across iterations.
  [[nodiscard]] bool coloringDischarges(const LinExpr& a,
                                        const LinExpr& b) const {
    auto coloringRead = [&](const LinExpr& e) -> std::string {
      if (!e.constant().isZero() || e.coeffs().size() != 1) return "";
      const auto& [id, c] = *e.coeffs().begin();
      if (c != smt::Rational(1)) return "";
      const smt::Atom& at = atoms_.atom(id);
      if (at.kind != smt::AtomKind::UF) return "";
      std::string base = at.fn.substr(0, at.fn.find('@'));
      return opts_.colorings.count(base) > 0 ? base : "";
    };
    std::string ca = coloringRead(a);
    std::string cb = coloringRead(b);
    // Identical atoms would mean the same element every iteration — that
    // case never reaches here (the difference reduces to zero first).
    return !ca.empty() && ca == cb;
  }

  void recordUndecided(const PairTask& t, std::string reason) {
    UndecidedPair u;
    u.array = t.array;
    u.refA = t.refA;
    u.refB = t.refB;
    u.locA = t.locA;
    u.locB = t.locB;
    u.reason = std::move(reason);
    report_.undecided.push_back(std::move(u));
  }

  void recordWitness(const PairTask& t, const smt::Model& m,
                     const std::vector<long long>& indices) {
    if (static_cast<int>(report_.witnesses.size()) >=
        kMaxWitnessesPerRegion)
      return;
    RaceWitness w;
    w.array = t.array;
    w.refA = t.refA;
    w.refB = t.refB;
    w.locA = t.locA;
    w.locB = t.locB;
    w.bothWrites = t.bothWrites;
    w.iterA = m.at(counterPrime_);
    w.iterB = m.at(counter_);
    w.indices = indices;
    w.assignment = renderAssignment(m);
    report_.witnesses.push_back(std::move(w));
  }

  /// Decides one reference pair: reference A on iteration i' against
  /// reference B on iteration i. `solver` must hold exactly the base
  /// conjunction; every path restores it before returning. Touches no
  /// report state — the merge consumes the outcome in canonical order.
  [[nodiscard]] PairOutcome evaluatePair(smt::Solver& solver,
                                         const PairTask& t) const {
    PairOutcome o;
    if (!t.lowered) {
      o.reason = "unsupported index expression";
      return o;
    }

    bool allZero = std::all_of(t.diffs.begin(), t.diffs.end(),
                               [](const LinExpr& d) { return d.isZero(); });

    if (allZero) {
      // The references hit the same element on every iteration pair.
      if (t.guarded) {
        o.reason =
            "same element every iteration, but the references "
            "are conditionally guarded";
        return o;
      }
      // Any legal iteration pair witnesses the collision (model search is
      // deterministic, so every worker derives the same pair).
      auto m = solver.model();
      if (!m) {
        o.reason =
            "same element every iteration, but no legal "
            "iteration pair was found";
        return o;
      }
      for (const auto& d : t.da) {
        smt::Rational v = smt::Solver::evaluate(substituteFree(d, *m), {});
        o.indices.push_back(v.num() / v.den());
      }
      o.kind = PairOutcome::Kind::Witness;
      o.model = std::move(*m);
      return o;
    }

    // Ask the solver: can all dimensions coincide while i != i'?
    solver.push();
    for (size_t k = 0; k < t.da.size(); ++k)
      solver.add(smt::Constraint::eq(t.da[k], t.db[k]));
    (void)solver.check();
    o.check = solver.lastCheck();
    if (o.check->result == smt::CheckResult::Unsat) {
      solver.pop();
      o.kind = PairOutcome::Kind::Proven;
      return o;
    }

    // Per-dimension coloring facts: under the in-bounds assumption a pair
    // is disjoint if ANY single dimension is (same rule the exploitation
    // phase uses), so a coloring promise on one dimension discharges it.
    for (size_t k = 0; k < t.da.size(); ++k) {
      if (coloringDischarges(t.da[k], t.db[k])) {
        solver.pop();
        o.kind = PairOutcome::Kind::Assumed;
        return o;
      }
    }

    // A budget-exhausted Unknown is a resource verdict, not a structural
    // one: the pair stays undecided (skip the witness search — a solver
    // that could not finish the check will not confirm a model either).
    if (!o.check->complete) {
      solver.pop();
      o.reason = "solver step budget exhausted";
      return o;
    }

    // Genuineness: a Racy claim needs the collision to be forced by the
    // iteration pair alone.
    for (const auto& d : t.diffs) {
      std::string offender;
      if (!iterationDetermined(d, offender)) {
        solver.pop();
        o.reason = std::move(offender);
        return o;
      }
    }
    if (t.guarded) {
      solver.pop();
      o.reason =
          "possible collision, but the references are "
          "conditionally guarded";
      return o;
    }

    std::optional<smt::Model> m = solver.model();
    if (!m) {
      solver.pop();
      o.reason = "no witness found within search budget";
      return o;
    }
    // Confirm the witness by exact evaluation: equal indices, distinct
    // iterations. A mismatch would be a solver bug — degrade to Unknown
    // rather than report a bogus collision.
    std::vector<long long> indices;
    bool confirmed = m->at(counter_) != m->at(counterPrime_);
    for (size_t k = 0; k < t.da.size() && confirmed; ++k) {
      smt::Rational va = smt::Solver::evaluate(t.da[k], *m);
      smt::Rational vb = smt::Solver::evaluate(t.db[k], *m);
      confirmed = va == vb && va.isInteger();
      indices.push_back(va.num());
    }
    solver.pop();
    if (!confirmed) {
      o.reason = "witness failed confirmation";
      return o;
    }
    o.kind = PairOutcome::Kind::Witness;
    o.model = std::move(*m);
    o.indices = std::move(indices);
    return o;
  }

  /// Folds one outcome into the report — the order-sensitive half of the
  /// old checkPair, always executed in canonical pair order.
  void mergePair(const PairTask& t, const PairOutcome& o) {
    ++report_.pairsChecked;
    const bool exhausted = o.check && !o.check->complete;
    if (o.check) ++report_.queries;
    if (exhausted) ++report_.budgetExhaustedChecks;
    switch (o.kind) {
      case PairOutcome::Kind::Proven:
        ++report_.pairsProven;
        break;
      case PairOutcome::Kind::Assumed:
        ++report_.pairsAssumed;
        break;
      case PairOutcome::Kind::Undecided: {
        // An empty reason marks a task the pool never evaluated
        // (cancellation got there first); both that and budget exhaustion
        // are governance degradations, not structural unknowns.
        const bool skipped = o.reason.empty();
        if (skipped || exhausted) ++report_.degradedPairs;
        recordUndecided(
            t, skipped ? "cancelled before evaluation (deadline or failure)"
                       : o.reason);
        break;
      }
      case PairOutcome::Kind::Witness:
        recordWitness(t, o.model, o.indices);
        break;
    }
  }

  /// Evaluates the atoms of `e` that the model assigns, leaving none: the
  /// trivial-collision path evaluates constant-index dims whose atoms may
  /// be absent from the model universe (they cancelled in the diff).
  [[nodiscard]] static LinExpr substituteFree(const LinExpr& e,
                                              const smt::Model& m) {
    LinExpr out(e.constant());
    for (const auto& [id, c] : e.coeffs()) {
      auto it = m.find(id);
      if (it == m.end())
        out.addConstant(smt::Rational(0));  // unconstrained: treat as 0
      else
        out.addConstant(c * smt::Rational(it->second));
    }
    return out;
  }

  /// Enumerates the reference pairs in canonical order and packages each as
  /// a self-contained task (lowering and substitution happen here, on the
  /// planning thread — the only phase that interns atoms).
  [[nodiscard]] std::vector<PairTask> planArrayPairs() {
    std::vector<ArrayAccess> accesses = analysis::collectAccesses(loop_);

    std::map<std::string, std::vector<LoweredRef>> byArray;
    for (const auto& acc : accesses) {
      LoweredRef lr;
      lr.acc = &acc;
      lr.guarded = contexts_.contextOf(cfg_, acc.stmt) != contexts_.root();
      try {
        for (const auto& i : acc.ref->indices) {
          lr.dims.push_back(low_.lower(*i, /*primed=*/false));
          lr.dimsPrimed.push_back(low_.lower(*i, /*primed=*/true));
        }
        lr.lowered = true;
      } catch (const Error&) {
        lr.dims.clear();
        lr.dimsPrimed.clear();
        lr.lowered = false;
      }
      byArray[acc.array].push_back(std::move(lr));
    }

    std::vector<PairTask> tasks;
    for (const auto& [array, refs] : byArray) {
      bool anyWrite = std::any_of(
          refs.begin(), refs.end(),
          [](const LoweredRef& r) { return r.acc->isWrite; });
      if (!anyWrite) continue;

      std::set<std::string> seen;  // dedupe textually identical pairs
      for (size_t i = 0; i < refs.size(); ++i) {
        for (size_t j = i; j < refs.size(); ++j) {
          const LoweredRef& a = refs[i];
          const LoweredRef& b = refs[j];
          if (!a.acc->isWrite && !b.acc->isWrite) continue;
          if (a.acc->isAtomic && b.acc->isAtomic) continue;
          // Put a write on the primed side (the query is symmetric under
          // swapping primed/plain, so one orientation suffices).
          const LoweredRef& w = a.acc->isWrite ? a : b;
          const LoweredRef& x = a.acc->isWrite ? b : a;
          std::string key = printExpr(*w.acc->ref) + "#" +
                            printExpr(*x.acc->ref) + "#" +
                            (w.acc->isWrite ? "w" : "r") +
                            (x.acc->isWrite ? "w" : "r");
          if (!seen.insert(key).second) continue;

          PairTask t;
          t.array = array;
          t.refA = printExpr(*w.acc->ref);
          t.refB = printExpr(*x.acc->ref);
          t.locA = w.acc->stmt->loc();
          t.locB = x.acc->stmt->loc();
          t.bothWrites = w.acc->isWrite && x.acc->isWrite;
          t.guarded = w.guarded || x.guarded;
          t.lowered = w.lowered && x.lowered;
          if (t.lowered) {
            for (size_t k = 0; k < w.dimsPrimed.size(); ++k) {
              t.da.push_back(substitute(w.dimsPrimed[k]));
              t.db.push_back(substitute(x.dims[k]));
              t.diffs.push_back(t.da.back() - t.db.back());
            }
          }
          tasks.push_back(std::move(t));
        }
      }
    }
    return tasks;
  }
};

}  // namespace

RaceReport checkKernelRaces(const Kernel& kernel,
                            const RaceCheckOptions& opts) {
  analysis::SymbolTable syms = analysis::verifyKernel(kernel);

  // Pinned parameters must be integer scalars the kernel never writes —
  // otherwise substituting a constant would be unsound. The validation is
  // shared with the abstract interpreter and the linter (analysis/symbols).
  std::map<std::string, long long> pinned =
      analysis::validatePins(kernel, syms, opts.paramValues);

  RaceReport report;
  report.kernel = kernel.name;
  forEachStmt(kernel.body, [&](const Stmt& s) {
    if (s.kind() != StmtKind::For) return;
    const auto& f = s.as<For>();
    if (!f.parallel) return;
    try {
      report.regions.push_back(
          RegionChecker(f, syms, pinned, opts).run());
    } catch (const support::Cancelled&) {
      // The region deadline (or an external cancel) fired outside the
      // per-pair degradation paths: report the whole region undecided
      // rather than aborting the kernel-level check.
      RegionRaceReport r;
      r.loop = &f;
      r.verdict = RaceVerdict::Unknown;
      r.degradedPairs = 1;
      UndecidedPair u;
      u.reason = "region analysis cancelled (deadline or failure)";
      r.undecided.push_back(std::move(u));
      report.regions.push_back(std::move(r));
    } catch (const Error& e) {
      RegionRaceReport r;
      r.loop = &f;
      r.verdict = RaceVerdict::Unknown;
      UndecidedPair u;
      u.reason = std::string("region analysis failed: ") + e.what();
      r.undecided.push_back(std::move(u));
      report.regions.push_back(std::move(r));
    }
  });
  return report;
}

}  // namespace formad::racecheck
