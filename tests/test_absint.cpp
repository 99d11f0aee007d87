// The abstract interpreter's test suite (src/absint/).
//
// Four independent layers of defense:
//   1. domain unit tests + an operator-soundness fuzzer: for random
//      abstract values and random concrete members, every transfer
//      function's result must contain the concrete result;
//   2. a dynamic oracle: random kernels from the shared generator are
//      analyzed AND concretely executed by a mini tracer in this file —
//      every recorded invariant must contain every value the trace
//      observes, and every guard the analysis calls decided must evaluate
//      that way on every visit;
//   3. lint goldens: every racy mutant in src/kernels/mutants.* is
//      flagged, every clean paper kernel lints clean;
//   4. consumer contracts: hint-guided fast-path deciders stay exact under
//      arbitrary (even inconsistent) hints, -absint=on is deterministic
//      and thread-invariant, invariants kill tier-2 work without weakening
//      a verdict, and absint on/off runs never cross-pollinate a shared
//      persistent verdict store.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "absint/analyze.h"
#include "absint/domain.h"
#include "absint/lint.h"
#include "driver/driver.h"
#include "formad/formad.h"
#include "helpers.h"
#include "kernels/gfmc.h"
#include "kernels/greengauss.h"
#include "kernels/lbm.h"
#include "kernels/mutants.h"
#include "kernels/stencil.h"
#include "parser/parser.h"
#include "smt/diskcache.h"
#include "smt/fastpath.h"
#include "smt/solver.h"

namespace formad::absint {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- domain

TEST(Domain, IntervalLattice) {
  Itv a = Itv::range(2, 5), b = Itv::range(4, 9);
  EXPECT_TRUE(join(a, b).sameAs(Itv::range(2, 9)));
  EXPECT_TRUE(meet(a, b).sameAs(Itv::range(4, 5)));
  EXPECT_TRUE(meet(Itv::range(0, 1), Itv::range(3, 4)).bot);
  // Widening jumps unstable endpoints to infinity.
  Itv w = widen(Itv::range(0, 4), Itv::range(0, 5));
  EXPECT_TRUE(w.lo && *w.lo == 0);
  EXPECT_FALSE(w.hi.has_value());
  EXPECT_TRUE(widen(a, a).sameAs(a));
}

TEST(Domain, CongruenceLattice) {
  Cong even = Cong::make(2, 0), odd = Cong::make(2, 1);
  // Granger join: gcd of moduli and the remainder difference.
  EXPECT_TRUE(join(even, odd).isTop());
  EXPECT_TRUE(join(Cong::make(6, 1), Cong::make(9, 4)).sameAs(Cong::make(3, 1)));
  // CRT meet; incompatible congruences are bottom.
  EXPECT_FALSE(meet(even, odd).has_value());
  auto m = meet(Cong::make(3, 2), Cong::make(4, 3));
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(m->sameAs(Cong::make(12, 11)));
  EXPECT_TRUE(Cong::make(5, -3).sameAs(Cong::make(5, 2)));  // normalization
}

TEST(Domain, ReduceCouplesTheComponents) {
  // Interval [3,4] has no point ≡ 0 (mod 8): the product is empty.
  AbsVal v;
  v.itv = Itv::range(3, 4);
  v.cong = Cong::make(8, 0);
  v.reduce();
  EXPECT_TRUE(v.bot);
  // Endpoints tighten to the nearest lattice points of the congruence.
  AbsVal t;
  t.itv = Itv::range(3, 14);
  t.cong = Cong::make(5, 0);
  t.reduce();
  EXPECT_TRUE(t.itv.sameAs(Itv::range(5, 10)));
  // A singleton interval collapses the congruence to a constant.
  AbsVal s;
  s.itv = Itv::range(7, 7);
  s.cong = Cong::top();
  s.reduce();
  EXPECT_TRUE(s.cong.isConstant());
  EXPECT_EQ(s.cong.r, 7);
}

// Operator soundness fuzz: draw random abstract values, sample random
// concrete members, and check op(aᵃ, bᵃ) contains op(a, b) for every
// arithmetic transfer function.
TEST(DomainFuzz, TransferFunctionsOverapproximate) {
  std::mt19937_64 rng(20260808);
  auto pick = [&](long long lo, long long hi) {
    return lo + static_cast<long long>(
                    rng() % static_cast<unsigned long long>(hi - lo + 1));
  };
  // A random abstract value plus a concrete member of it.
  auto draw = [&](long long& concrete) {
    AbsVal v;
    const long long m = pick(0, 8);  // 0 = constant, 1 = no congruence
    if (m == 0) {
      concrete = pick(-50, 50);
      v = AbsVal::constant(concrete);
      return v;
    }
    const long long r = m >= 2 ? pick(0, m - 1) : 0;
    const long long base = pick(-20, 20);
    concrete = m >= 2 ? ((base * m) + r) : base;
    v.cong = Cong::make(m, r);
    switch (pick(0, 3)) {
      case 0: break;  // unbounded interval
      case 1: v.itv.lo = concrete - pick(0, 30); break;
      case 2: v.itv.hi = concrete + pick(0, 30); break;
      default:
        v.itv.lo = concrete - pick(0, 30);
        v.itv.hi = concrete + pick(0, 30);
    }
    v.reduce();
    return v;
  };

  for (int iter = 0; iter < 5000; ++iter) {
    long long x = 0, y = 0;
    const AbsVal a = draw(x), b = draw(y);
    ASSERT_TRUE(a.contains(x)) << "generator bug at iter " << iter;
    ASSERT_TRUE(b.contains(y)) << "generator bug at iter " << iter;

    EXPECT_TRUE(add(a, b).contains(x + y)) << "add, iter " << iter;
    EXPECT_TRUE(sub(a, b).contains(x - y)) << "sub, iter " << iter;
    EXPECT_TRUE(mul(a, b).contains(x * y)) << "mul, iter " << iter;
    EXPECT_TRUE(neg(a).contains(-x)) << "neg, iter " << iter;
    if (y != 0) {
      EXPECT_TRUE(div(a, b).contains(x / y)) << "div, iter " << iter << " "
                                             << x << "/" << y;
      EXPECT_TRUE(mod(a, b).contains(x % y)) << "mod, iter " << iter << " "
                                             << x << "%" << y;
    }
    // Join is an upper bound of both sides.
    const AbsVal j = join(a, b);
    EXPECT_TRUE(j.contains(x) && j.contains(y)) << "join, iter " << iter;
    // Widening is an upper bound of the join.
    const AbsVal w = widen(a, j);
    EXPECT_TRUE(w.contains(x) && w.contains(y)) << "widen, iter " << iter;
  }
}

// ---------------------------------------------- dynamic oracle (tracer)

// A minimal concrete evaluator of the kernel IR, mirroring the execution
// semantics in exec/interp.cpp (inclusive Fortran-style loop bounds,
// C-style truncating integer / and %). It records every integer scalar
// value it produces, attributed to the enclosing parallel region, plus the
// outcome of every If visit — the ground truth the abstract facts must
// contain.
class Tracer {
 public:
  struct Value {
    enum class Kind { Int, Real, Bool } kind = Kind::Int;
    long long i = 0;
    double d = 0;
    bool b = false;

    [[nodiscard]] double asReal() const {
      return kind == Kind::Int ? static_cast<double>(i) : d;
    }
  };

  // region -> variable -> observed values (region -1 = kernel scope).
  std::map<int, std::map<std::string, std::vector<long long>>> observed;
  // If statement -> observed condition outcomes.
  std::map<const ir::If*, std::vector<bool>> guards;

  explicit Tracer(long long n) : n_(n) {
    ints_["c"].resize(static_cast<size_t>(n));
    for (long long i = 0; i < n; ++i)  // a permutation (gcd(7, 64) == 1)
      ints_["c"][static_cast<size_t>(i)] = (i * 7 + 3) % n;
    reals_["u"].assign(static_cast<size_t>(n), 0.0);
    reals_["v"].assign(static_cast<size_t>(n), 0.0);
    reals_["r"].assign(static_cast<size_t>(n), 0.0);
    reals_["w"].assign(static_cast<size_t>(3 * n), 0.0);
    for (auto& [name, data] : reals_)
      for (size_t k = 0; k < data.size(); ++k)
        data[k] = 0.2 + 0.6 * std::fmod(0.37 * static_cast<double>(k + 1) +
                                            static_cast<double>(name[0]),
                                        1.0);
  }

  void run(const ir::Kernel& k) {
    scalars_["n"] = intVal(n_);
    record("n", n_);
    exec(k.body);
  }

 private:
  static Value intVal(long long v) { return {Value::Kind::Int, v, 0, false}; }
  static Value realVal(double v) { return {Value::Kind::Real, 0, v, false}; }
  static Value boolVal(bool v) { return {Value::Kind::Bool, 0, 0, v}; }

  void record(const std::string& name, long long v) {
    observed[region_][name].push_back(v);
  }

  [[nodiscard]] size_t flatten(const ir::ArrayRef& a,
                               const std::vector<Value>& idx) const {
    // Row-major; only `w` is 2-D ({3, n}), everything else is {n}.
    const long long flat =
        idx.size() == 1 ? idx[0].i : idx[0].i * n_ + idx[1].i;
    const size_t limit = reals_.count(a.name) != 0u
                             ? reals_.at(a.name).size()
                             : ints_.at(a.name).size();
    if (flat < 0 || static_cast<size_t>(flat) >= limit)
      throw std::runtime_error("tracer: index out of range on " + a.name);
    return static_cast<size_t>(flat);
  }

  Value eval(const ir::Expr& e) {
    using namespace ir;
    switch (e.kind()) {
      case ExprKind::IntLit: return intVal(e.as<IntLit>().value);
      case ExprKind::RealLit: return realVal(e.as<RealLit>().value);
      case ExprKind::BoolLit: return boolVal(e.as<BoolLit>().value);
      case ExprKind::VarRef: return scalars_.at(e.as<VarRef>().name);
      case ExprKind::ArrayRef: {
        const auto& a = e.as<ArrayRef>();
        std::vector<Value> idx;
        for (const auto& ix : a.indices) idx.push_back(eval(*ix));
        const size_t flat = flatten(a, idx);
        if (ints_.count(a.name) != 0u) return intVal(ints_.at(a.name)[flat]);
        return realVal(reals_.at(a.name)[flat]);
      }
      case ExprKind::Unary: {
        const auto& u = e.as<Unary>();
        Value v = eval(*u.operand);
        if (u.op == UnOp::Not) return boolVal(!v.b);
        if (v.kind == Value::Kind::Int) return intVal(-v.i);
        return realVal(-v.d);
      }
      case ExprKind::Binary: return evalBinary(e.as<Binary>());
      case ExprKind::Call: {
        const auto& c = e.as<Call>();
        std::vector<double> a;
        for (const auto& arg : c.args) a.push_back(eval(*arg).asReal());
        switch (c.fn) {
          case Intrinsic::Sin: return realVal(std::sin(a[0]));
          case Intrinsic::Cos: return realVal(std::cos(a[0]));
          case Intrinsic::Tan: return realVal(std::tan(a[0]));
          case Intrinsic::Exp: return realVal(std::exp(a[0]));
          case Intrinsic::Log: return realVal(std::log(a[0]));
          case Intrinsic::Sqrt: return realVal(std::sqrt(a[0]));
          case Intrinsic::Abs: return realVal(std::fabs(a[0]));
          case Intrinsic::Min: return realVal(std::min(a[0], a[1]));
          case Intrinsic::Max: return realVal(std::max(a[0], a[1]));
          case Intrinsic::Pow: return realVal(std::pow(a[0], a[1]));
          case Intrinsic::Tanh: return realVal(std::tanh(a[0]));
        }
        throw std::runtime_error("tracer: unknown intrinsic");
      }
    }
    throw std::runtime_error("tracer: unknown expression kind");
  }

  Value evalBinary(const ir::Binary& b) {
    using ir::BinOp;
    if (b.op == BinOp::And) return boolVal(eval(*b.lhs).b && eval(*b.rhs).b);
    if (b.op == BinOp::Or) return boolVal(eval(*b.lhs).b || eval(*b.rhs).b);
    Value l = eval(*b.lhs), r = eval(*b.rhs);
    const bool ints =
        l.kind == Value::Kind::Int && r.kind == Value::Kind::Int;
    if (ir::isComparison(b.op)) {
      if (ints) {
        switch (b.op) {
          case BinOp::Lt: return boolVal(l.i < r.i);
          case BinOp::Le: return boolVal(l.i <= r.i);
          case BinOp::Gt: return boolVal(l.i > r.i);
          case BinOp::Ge: return boolVal(l.i >= r.i);
          case BinOp::Eq: return boolVal(l.i == r.i);
          default: return boolVal(l.i != r.i);
        }
      }
      const double x = l.asReal(), y = r.asReal();
      switch (b.op) {
        case BinOp::Lt: return boolVal(x < y);
        case BinOp::Le: return boolVal(x <= y);
        case BinOp::Gt: return boolVal(x > y);
        case BinOp::Ge: return boolVal(x >= y);
        case BinOp::Eq: return boolVal(x == y);
        default: return boolVal(x != y);
      }
    }
    if (ints) {
      switch (b.op) {
        case BinOp::Add: return intVal(l.i + r.i);
        case BinOp::Sub: return intVal(l.i - r.i);
        case BinOp::Mul: return intVal(l.i * r.i);
        case BinOp::Div:
          if (r.i == 0) throw std::runtime_error("tracer: div by zero");
          return intVal(l.i / r.i);
        case BinOp::Mod:
          if (r.i == 0) throw std::runtime_error("tracer: mod by zero");
          return intVal(l.i % r.i);
        default: break;
      }
    }
    const double x = l.asReal(), y = r.asReal();
    switch (b.op) {
      case BinOp::Add: return realVal(x + y);
      case BinOp::Sub: return realVal(x - y);
      case BinOp::Mul: return realVal(x * y);
      case BinOp::Div: return realVal(x / y);
      default: break;
    }
    throw std::runtime_error("tracer: bad binary operator");
  }

  void exec(const ir::StmtList& body) {
    using namespace ir;
    for (const auto& sp : body) {
      switch (sp->kind()) {
        case StmtKind::DeclLocal: {
          const auto& d = sp->as<DeclLocal>();
          Value v = d.init != nullptr
                        ? eval(*d.init)
                        : (d.type.isInt() ? intVal(0) : realVal(0.0));
          scalars_[d.name] = v;
          if (v.kind == Value::Kind::Int) record(d.name, v.i);
          break;
        }
        case StmtKind::Assign: {
          const auto& a = sp->as<Assign>();
          Value v = eval(*a.rhs);
          if (a.lhs->kind() == ExprKind::VarRef) {
            const std::string& name = a.lhs->as<VarRef>().name;
            scalars_[name] = v;
            if (v.kind == Value::Kind::Int) record(name, v.i);
          } else {
            const auto& ref = a.lhs->as<ArrayRef>();
            std::vector<Value> idx;
            for (const auto& ix : ref.indices) idx.push_back(eval(*ix));
            const size_t flat = flatten(ref, idx);
            if (ints_.count(ref.name) != 0u)
              ints_[ref.name][flat] = v.i;
            else
              reals_[ref.name][flat] = v.asReal();
          }
          break;
        }
        case StmtKind::If: {
          const auto& s = sp->as<If>();
          const bool taken = eval(*s.cond).b;
          guards[&s].push_back(taken);
          exec(taken ? s.thenBody : s.elseBody);
          break;
        }
        case StmtKind::For: {
          const auto& f = sp->as<For>();
          const long long lo = eval(*f.lo).i;
          const long long hi = eval(*f.hi).i;
          const long long step = eval(*f.step).i;
          const bool entersRegion = f.parallel && region_ < 0;
          if (entersRegion) region_ = nextRegion_++;
          for (long long v = lo; v <= hi; v += step) {
            scalars_[f.var] = intVal(v);
            record(f.var, v);
            exec(f.body);
          }
          if (entersRegion) region_ = -1;
          break;
        }
        default:
          throw std::runtime_error("tracer: unexpected tape statement");
      }
    }
  }

  long long n_;
  int region_ = -1;
  int nextRegion_ = 0;
  std::map<std::string, Value> scalars_;
  std::map<std::string, std::vector<double>> reals_;
  std::map<std::string, std::vector<long long>> ints_;
};

// Every fact the interpreter derives must contain every value one concrete
// execution observes, and every guard it calls decided must evaluate that
// way on every visit. 60 random kernels, pinned n = 64.
TEST(DynamicOracle, FactsContainEveryTracedValue) {
  for (unsigned seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto kernel = parser::parseKernel(testing::randomKernelSource(seed));

    AbsintOptions opts;
    opts.paramValues["n"] = 64;
    const KernelFacts kf = analyzeKernel(*kernel, opts);

    Tracer tracer(64);
    ASSERT_NO_THROW(tracer.run(*kernel));

    for (const auto& [region, vars] : tracer.observed) {
      const std::map<std::string, AbsVal>* facts = nullptr;
      if (region < 0) {
        facts = &kf.globals;
      } else {
        ASSERT_LT(static_cast<size_t>(region), kf.regions.size());
        facts = &kf.regions[static_cast<size_t>(region)].facts;
      }
      for (const auto& [name, values] : vars) {
        auto it = facts->find(name);
        if (it == facts->end()) continue;  // absent = top, trivially sound
        for (long long v : values)
          EXPECT_TRUE(it->second.contains(v))
              << "region " << region << ": fact " << name << " = "
              << it->second.str() << " misses observed value " << v;
      }
    }

    for (const auto& g : kf.guards) {
      if (!g.decided().has_value()) continue;
      auto it = tracer.guards.find(g.stmt);
      if (it == tracer.guards.end()) continue;  // never reached in the trace
      for (bool outcome : it->second)
        EXPECT_EQ(outcome, *g.decided())
            << "guard declared always-" << (*g.decided() ? "true" : "false")
            << " evaluated the other way";
    }
  }
}

// The analysis is a pure function of (kernel, options): same facts, same
// digest, on repeated runs.
TEST(DynamicOracle, AnalysisIsDeterministic) {
  for (unsigned seed : {3u, 11u, 27u}) {
    auto kernel = parser::parseKernel(testing::randomKernelSource(seed));
    AbsintOptions opts;
    opts.paramValues["n"] = 64;
    const KernelFacts a = analyzeKernel(*kernel, opts);
    const KernelFacts b = analyzeKernel(*kernel, opts);
    EXPECT_EQ(a.describe(), b.describe()) << "seed " << seed;
    for (size_t r = 0; r < a.regions.size(); ++r) {
      EXPECT_EQ(factsDigest(a.regions[r]), factsDigest(b.regions[r]));
      EXPECT_NE(factsDigest(a.regions[r]), 0u);
    }
  }
}

// ------------------------------------------------------------------ lint

LintReport lintSpec(const kernels::KernelSpec& spec,
                    const std::map<std::string, long long>& pins = {}) {
  auto kernel = parser::parseKernel(spec.source);
  LintOptions opts;
  opts.paramValues = pins;
  return lintKernel(*kernel, opts);
}

TEST(Lint, FlagsEveryRacyMutant) {
  EXPECT_FALSE(lintSpec(kernels::stencilRacySpec()).clean());
  EXPECT_FALSE(lintSpec(kernels::stencilStrideRacySpec()).clean());
  EXPECT_FALSE(lintSpec(kernels::gatherRacySpec()).clean());
  EXPECT_FALSE(lintSpec(kernels::sumRacySpec()).clean());
  // The LBM mutant's collision needs the cell layout pinned to become
  // affine-resolvable (same pins its binder uses).
  EXPECT_FALSE(lintSpec(kernels::lbmRacySpec(),
                        {{"n_cell_entries", 20}, {"c", 0}, {"margin", 2}})
                   .clean());
}

TEST(Lint, PaperKernelsLintClean) {
  for (const auto& spec :
       {kernels::stencilSpec(1), kernels::stencilSpec(8),
        kernels::greenGaussSpec(), kernels::gfmcSplitSpec(),
        kernels::gfmcFusedSpec()}) {
    const LintReport r = lintSpec(spec);
    EXPECT_TRUE(r.clean()) << spec.name << ":\n" << r.render();
  }
  const LintReport lbm = lintSpec(
      kernels::lbmSpec(), {{"n_cell_entries", 20}, {"margin", 2}});
  EXPECT_TRUE(lbm.clean()) << lbm.render();
}

TEST(Lint, ReportIsDeterministic) {
  const auto spec = kernels::lbmRacySpec();
  const std::map<std::string, long long> pins = {
      {"n_cell_entries", 20}, {"c", 0}, {"margin", 2}};
  EXPECT_EQ(lintSpec(spec, pins).render(), lintSpec(spec, pins).render());
}

// ------------------------------------------- fast-path hint exactness

// Arbitrary hints — even ones inconsistent with the conjunction — must
// never break the exactness contract: hints guide witness choice, they do
// not constrain, and every claim is verified independently.
TEST(AbsintFastPathFuzz, ArbitraryHintsNeverBreakExactness) {
  for (unsigned seed = 0; seed < 300; ++seed) {
    smt::AtomTable atoms;
    std::vector<smt::Constraint> stack =
        testing::randomConjunction(atoms, seed);

    smt::Solver reference(atoms);  // FastPathMode::Off: pure SMT truth
    for (const auto& c : stack) reference.add(c);
    const smt::CheckResult truth = reference.check();

    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 99);
    auto pick = [&](long long lo, long long hi) {
      return lo + static_cast<long long>(
                      rng() % static_cast<unsigned long long>(hi - lo + 1));
    };
    smt::AbsintHints hints;
    hints.salt = rng() | 1;  // nonzero: the hint-gated deciders run
    for (const char* name : {"i", "q", "n"}) {
      smt::AbsintFact f;
      const long long m = pick(0, 6);
      f.modulus = m;
      f.remainder = m >= 2 ? pick(0, m - 1) : (m == 0 ? pick(-8, 8) : 0);
      if (pick(0, 1) != 0) f.lo = pick(-10, 2);
      if (pick(0, 1) != 0) f.hi = pick(3, 20);
      hints.facts[name] = f;
    }

    const smt::FastDecision d =
        smt::decideFast(atoms, stack, smt::FastPathMode::Full, &hints);
    if (d.verdict == smt::FastVerdict::Disjoint) {
      EXPECT_EQ(truth, smt::CheckResult::Unsat)
          << "seed " << seed << ": " << d.decider << " claimed Disjoint — "
          << d.justification;
    } else if (d.verdict == smt::FastVerdict::Overlap) {
      EXPECT_EQ(truth, smt::CheckResult::Sat)
          << "seed " << seed << ": " << d.decider << " claimed Overlap — "
          << d.justification;
    }
  }
}

// Hints with salt == 0 must be invisible: identical verdict, tier, and
// decider to a hint-free run (the default path stays byte-identical to the
// seed analyzer).
TEST(AbsintFastPathFuzz, ZeroSaltHintsAreInert) {
  for (unsigned seed = 0; seed < 200; ++seed) {
    smt::AtomTable atoms;
    std::vector<smt::Constraint> stack =
        testing::randomConjunction(atoms, seed);
    smt::AbsintHints inert;
    inert.facts["i"] = smt::AbsintFact{0, 100, 2, 1};
    ASSERT_EQ(inert.salt, 0u);

    const smt::FastDecision bare =
        smt::decideFast(atoms, stack, smt::FastPathMode::Full);
    const smt::FastDecision hinted =
        smt::decideFast(atoms, stack, smt::FastPathMode::Full, &inert);
    EXPECT_EQ(static_cast<int>(bare.verdict),
              static_cast<int>(hinted.verdict))
        << "seed " << seed;
    EXPECT_EQ(bare.tier, hinted.tier) << "seed " << seed;
    EXPECT_EQ(bare.decider, hinted.decider) << "seed " << seed;
  }
}

// --------------------------------------------------- analysis consumers

/// Per-region per-variable safety verdicts, for cross-option comparison.
std::vector<std::pair<std::string, bool>> verdictsOf(
    const core::KernelAnalysis& a) {
  std::vector<std::pair<std::string, bool>> out;
  for (const auto& r : a.regions)
    for (const auto& v : r.vars) out.emplace_back(v.var, v.safe);
  return out;
}

// Injected invariants kill the remaining tier-2 (full-solver) checks on
// the strided paper kernels without weakening any verdict, and the default
// run reports zero absint facts.
TEST(AbsintAnalysis, InvariantsKillTier2WithoutWeakeningVerdicts) {
  for (const auto& spec : {kernels::stencilSpec(8), kernels::gfmcSplitSpec(),
                           kernels::gfmcFusedSpec()}) {
    SCOPED_TRACE(spec.name);
    auto kernel = parser::parseKernel(spec.source);
    const auto baseline = core::analyzeKernel(*kernel, spec.independents,
                                              spec.dependents, {});
    core::AnalyzeOptions on;
    on.model.absint = true;
    const auto absint = core::analyzeKernel(*kernel, spec.independents,
                                            spec.dependents, on);

    EXPECT_EQ(baseline.absintFacts(), 0);
    EXPECT_GT(absint.absintFacts(), 0);
    EXPECT_LE(absint.tier2Checks(), baseline.tier2Checks());
    EXPECT_EQ(absint.tier2Checks(), 0) << "invariants should drain tier 2";

    // Verdicts can only improve (UNSAFE -> SAFE), never weaken.
    const auto before = verdictsOf(baseline), after = verdictsOf(absint);
    ASSERT_EQ(before.size(), after.size());
    for (size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(before[i].first, after[i].first);
      if (before[i].second) {
        EXPECT_TRUE(after[i].second)
            << before[i].first << " weakened from SAFE to UNSAFE";
      }
    }
  }
}

// -absint=on is deterministic and thread-invariant: the timing-free report
// and the tier breakdown must be byte-identical at 1/2/4/8 analysis
// threads (and across repeated runs).
TEST(AbsintAnalysis, AbsintOnIsThreadInvariant) {
  for (const auto& spec :
       {kernels::stencilSpec(8), kernels::gfmcFusedSpec()}) {
    SCOPED_TRACE(spec.name);
    auto kernel = parser::parseKernel(spec.source);
    driver::DriverOptions opts;
    opts.absint = true;
    opts.analysisThreads = 1;
    const auto serial = driver::analyze(*kernel, spec.independents,
                                        spec.dependents, opts);
    const std::string want =
        core::describe(serial, false) + core::describeTiers(serial);
    for (int threads : {1, 2, 4, 8}) {
      opts.analysisThreads = threads;
      const auto run = driver::analyze(*kernel, spec.independents,
                                       spec.dependents, opts);
      EXPECT_EQ(core::describe(run, false) + core::describeTiers(run), want)
          << "absint=on report diverges at " << threads << " threads";
    }
  }
}

// ------------------------------------------------- persistent-store keys

struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag)
      : path(fs::temp_directory_path() /
             (std::string("formad_absint_") + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

// Satellite: absint on/off runs share cache infrastructure but must never
// serve each other's verdicts — the absint salt is part of every key. A
// store populated by an off run then used by an on run (and vice versa)
// must reproduce the store-free reports byte-for-byte.
TEST(AbsintAnalysis, StoreNeverCrossPollinatesAbsintModes) {
  const auto spec = kernels::stencilSpec(8);
  auto kernel = parser::parseKernel(spec.source);

  auto report = [&](const driver::DriverOptions& opts) {
    const auto a =
        driver::analyze(*kernel, spec.independents, spec.dependents, opts);
    return core::describe(a, false) + core::describeTiers(a);
  };

  driver::DriverOptions offPlain, onPlain;
  onPlain.absint = true;
  const std::string wantOff = report(offPlain);
  const std::string wantOn = report(onPlain);

  TempDir dir("store");
  smt::PersistentVerdictStore store(dir.path.string());
  driver::DriverOptions offStored = offPlain, onStored = onPlain;
  offStored.verdictStore = &store;
  onStored.verdictStore = &store;

  // off cold -> on warm over the same store, then the reverse order.
  EXPECT_EQ(report(offStored), wantOff);
  EXPECT_EQ(report(onStored), wantOn);
  EXPECT_EQ(report(offStored), wantOff);
  EXPECT_EQ(report(onStored), wantOn);
}

}  // namespace
}  // namespace formad::absint
