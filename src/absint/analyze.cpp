#include "absint/analyze.h"

#include <sstream>

#include "analysis/symbols.h"
#include "cfg/cfg.h"
#include "cfg/context.h"
#include "smt/fingerprint.h"
#include "support/diagnostics.h"

namespace formad::absint {

namespace {

using Env = std::map<std::string, AbsVal>;

AbsVal envGet(const Env& env, const std::string& name) {
  auto it = env.find(name);
  return it == env.end() ? AbsVal::top() : it->second;
}

void joinInto(std::map<std::string, AbsVal>& facts, const std::string& name,
              const AbsVal& v) {
  auto it = facts.find(name);
  if (it == facts.end())
    facts.emplace(name, v);
  else
    it->second = join(it->second, v);
}

/// Flip a comparison for the false branch of a guard.
ir::BinOp negateCmp(ir::BinOp op) {
  switch (op) {
    case ir::BinOp::Lt: return ir::BinOp::Ge;
    case ir::BinOp::Le: return ir::BinOp::Gt;
    case ir::BinOp::Gt: return ir::BinOp::Le;
    case ir::BinOp::Ge: return ir::BinOp::Lt;
    case ir::BinOp::Eq: return ir::BinOp::Ne;
    case ir::BinOp::Ne: return ir::BinOp::Eq;
    default: return op;
  }
}

struct Interp {
  const analysis::SymbolTable& syms;
  const AbsintOptions& opts;
  KernelFacts& out;

  // Recording state while inside a parallel region.
  RegionFacts* rf = nullptr;
  const cfg::Cfg* cfg = nullptr;
  const cfg::ContextTree* tree = nullptr;
  std::map<const ir::For*, size_t> regionIndex{};
  std::map<const ir::If*, size_t> guardIndex{};

  [[nodiscard]] bool tracked(const std::string& name) const {
    const analysis::Symbol* s = syms.find(name);
    return s != nullptr && !s->type.isArray() && s->type.isInt();
  }

  /// The interpreter's env only ever holds tracked names, so the shared
  /// lookup-or-top evaluator is exact here.
  [[nodiscard]] AbsVal eval(const ir::Expr& e, const Env& env) const {
    return evalExpr(e, env);
  }

  /// Narrow `env` under the assumption that `cond` evaluates to `branch`.
  /// Only ever meets (never widens), so refinement is always sound.
  void refine(Env& env, const ir::Expr& cond, bool branch) const {
    if (cond.kind() == ir::ExprKind::Unary) {
      const auto& u = cond.as<ir::Unary>();
      if (u.op == ir::UnOp::Not) refine(env, *u.operand, !branch);
      return;
    }
    if (cond.kind() != ir::ExprKind::Binary) return;
    const auto& b = cond.as<ir::Binary>();
    if (b.op == ir::BinOp::And && branch) {
      refine(env, *b.lhs, true);
      refine(env, *b.rhs, true);
      return;
    }
    if (b.op == ir::BinOp::Or && !branch) {
      refine(env, *b.lhs, false);
      refine(env, *b.rhs, false);
      return;
    }
    if (!ir::isComparison(b.op)) return;
    ir::BinOp op = branch ? b.op : negateCmp(b.op);
    refineCmp(env, *b.lhs, op, *b.rhs);
    refineCmp(env, *b.rhs, mirror(op), *b.lhs);
  }

  /// Mirror a comparison to read right-to-left: a < b  <=>  b > a.
  [[nodiscard]] static ir::BinOp mirror(ir::BinOp op) {
    switch (op) {
      case ir::BinOp::Lt: return ir::BinOp::Gt;
      case ir::BinOp::Le: return ir::BinOp::Ge;
      case ir::BinOp::Gt: return ir::BinOp::Lt;
      case ir::BinOp::Ge: return ir::BinOp::Le;
      default: return op;
    }
  }

  /// Tighten a tracked variable on the left of `x op rhs`. Also handles
  /// the stride guard shape `x % c == k` for nonnegative x.
  void refineCmp(Env& env, const ir::Expr& lhs, ir::BinOp op,
                 const ir::Expr& rhs) const {
    AbsVal r = eval(rhs, env);
    if (lhs.kind() == ir::ExprKind::VarRef) {
      const std::string& name = lhs.as<ir::VarRef>().name;
      if (!tracked(name)) return;
      AbsVal cur = envGet(env, name);
      AbsVal bound = AbsVal::top();
      switch (op) {
        case ir::BinOp::Lt:
          if (r.itv.hi) bound.itv.hi = *r.itv.hi - 1;
          break;
        case ir::BinOp::Le:
          bound.itv.hi = r.itv.hi;
          break;
        case ir::BinOp::Gt:
          if (r.itv.lo) bound.itv.lo = *r.itv.lo + 1;
          break;
        case ir::BinOp::Ge:
          bound.itv.lo = r.itv.lo;
          break;
        case ir::BinOp::Eq:
          bound = r;
          break;
        default:
          return;  // Ne carries no interval refinement
      }
      env[name] = meet(cur, bound);
      return;
    }
    // x % c == k  (x nonnegative): x ≡ k (mod c).
    if (op == ir::BinOp::Eq && lhs.kind() == ir::ExprKind::Binary) {
      const auto& m = lhs.as<ir::Binary>();
      if (m.op != ir::BinOp::Mod || m.lhs->kind() != ir::ExprKind::VarRef)
        return;
      const std::string& name = m.lhs->as<ir::VarRef>().name;
      if (!tracked(name)) return;
      AbsVal c = eval(*m.rhs, env);
      if (!r.itv.isConstant() || !c.itv.isConstant() || *c.itv.lo <= 0) return;
      AbsVal cur = envGet(env, name);
      if (!cur.itv.lo || *cur.itv.lo < 0) return;
      AbsVal bound = AbsVal::top();
      bound.cong = Cong::make(*c.itv.lo, *r.itv.lo);
      env[name] = meet(cur, bound);
    }
  }

  void record(const ir::Stmt& s, const Env& env) {
    if (rf == nullptr) return;
    int ctx = 0;
    if (cfg != nullptr && tree != nullptr) ctx = tree->contextOf(*cfg, &s);
    for (const auto& [name, val] : env) {
      joinInto(rf->facts, name, val);
      joinInto(rf->contextFacts[ctx], name, val);
    }
  }

  void recordGuard(const ir::If& s, const Env& env) {
    if (s.cond->kind() != ir::ExprKind::Binary) return;
    const auto& b = s.cond->as<ir::Binary>();
    if (!ir::isComparison(b.op)) return;
    auto [it, inserted] = guardIndex.emplace(&s, out.guards.size());
    if (inserted) {
      GuardFact g;
      g.stmt = &s;
      g.op = b.op;
      out.guards.push_back(g);
    }
    GuardFact& g = out.guards[it->second];
    g.diff = join(g.diff, sub(eval(*b.lhs, env), eval(*b.rhs, env)));
  }

  [[nodiscard]] Env execList(const ir::StmtList& body, Env env) {
    for (const auto& s : body) {
      record(*s, env);
      env = exec(*s, std::move(env));
    }
    return env;
  }

  [[nodiscard]] Env exec(const ir::Stmt& s, Env env) {
    switch (s.kind()) {
      case ir::StmtKind::Assign: {
        const auto& a = s.as<ir::Assign>();
        if (a.lhs->kind() == ir::ExprKind::VarRef) {
          const std::string& name = a.lhs->as<ir::VarRef>().name;
          if (tracked(name)) env[name] = eval(*a.rhs, env);
        }
        return env;
      }
      case ir::StmtKind::DeclLocal: {
        const auto& d = s.as<ir::DeclLocal>();
        if (!d.type.isArray() && d.type.isInt())
          env[d.name] = d.init ? eval(*d.init, env) : AbsVal::top();
        return env;
      }
      case ir::StmtKind::If: {
        const auto& i = s.as<ir::If>();
        recordGuard(i, env);
        Env t = env;
        Env f = env;
        refine(t, *i.cond, true);
        refine(f, *i.cond, false);
        t = execList(i.thenBody, std::move(t));
        f = execList(i.elseBody, std::move(f));
        Env merged;
        for (const auto& [name, tv] : t) {
          auto it = f.find(name);
          if (it != f.end()) merged.emplace(name, join(tv, it->second));
        }
        return merged;
      }
      case ir::StmtKind::For:
        return execFor(s.as<ir::For>(), std::move(env));
      case ir::StmtKind::Push:
        return env;
      case ir::StmtKind::Pop: {
        const auto& p = s.as<ir::Pop>();
        if (tracked(p.target)) env[p.target] = AbsVal::top();
        return env;
      }
    }
    return env;
  }

  [[nodiscard]] Env execFor(const ir::For& s, Env env) {
    AbsVal lo = eval(*s.lo, env);
    AbsVal hi = eval(*s.hi, env);
    AbsVal st = eval(*s.step, env);
    const bool stepConst = st.itv.isConstant() && *st.itv.lo > 0;
    const long long step = stepConst ? *st.itv.lo : 1;

    // Closed-form counter invariant, straight off the loop header: the
    // counter walks lo, lo+step, ..., never past hi (inclusive bounds,
    // positive step in the surface language).
    AbsVal counter = AbsVal::top();
    counter.itv.lo = lo.itv.lo;
    counter.itv.hi = hi.itv.hi;
    if (stepConst && !lo.bot)
      counter.cong = Cong::make(gcdCong(lo.cong.m, step), lo.cong.r);
    counter.reduce();

    // Parallel loop => a FormAD region: record per-context facts under the
    // same cfg/context numbering the knowledge model uses. A region nested
    // in a serial loop is revisited once per outer fixpoint iteration and
    // its facts keep joining — exactly the join over outer iterations.
    RegionFacts* prevRf = rf;
    const cfg::Cfg* prevCfg = cfg;
    const cfg::ContextTree* prevTree = tree;
    cfg::Cfg localCfg;
    cfg::ContextTree localTree;
    if (s.parallel && prevRf == nullptr) {
      auto [it, inserted] = regionIndex.emplace(&s, out.regions.size());
      if (inserted) {
        RegionFacts fresh;
        fresh.region = static_cast<int>(out.regions.size());
        fresh.loop = &s;
        out.regions.push_back(std::move(fresh));
      }
      rf = &out.regions[it->second];
      localCfg = cfg::buildCfg(s.body);
      localTree = cfg::buildContextTree(localCfg);
      cfg = &localCfg;
      tree = &localTree;
      // Privatized scalars start each iteration unassigned.
      for (const auto& p : s.privates) env.erase(p);
    }

    Env base = env;
    if (tracked(s.var)) base[s.var] = counter;
    Env cur = base;
    bool stable = false;
    for (int iter = 0; iter < 64 && !stable; ++iter) {
      Env next = execList(s.body, cur);
      if (tracked(s.var)) next[s.var] = counter;  // body never writes it
      Env merged;
      stable = true;
      for (const auto& [name, cv] : cur) {
        auto it = next.find(name);
        AbsVal nv = it == next.end() ? cv : it->second;
        AbsVal m = iter < 4 ? join(cv, nv) : widen(cv, nv);
        if (!m.sameAs(cv)) stable = false;
        merged.emplace(name, m);
      }
      cur = std::move(merged);
    }
    if (!stable)  // bail out soundly (should be unreachable with widening)
      for (auto& [name, v] : cur) v = AbsVal::top();

    rf = prevRf;
    cfg = prevCfg;
    tree = prevTree;

    // Post-loop: zero-trip path joins with the stable body state; the
    // counter lands at most one stride past hi, on the same lattice.
    Env post;
    for (const auto& [name, v] : env) {
      auto it = cur.find(name);
      post.emplace(name, it == cur.end() ? v : join(v, it->second));
    }
    if (tracked(s.var)) {
      AbsVal final = counter;
      if (final.itv.hi) {
        auto h = final.itv.hi;
        final.itv.hi = add(Itv::constant(*h), Itv::constant(step)).hi;
      }
      final.reduce();
      post[s.var] = final;
    }
    return post;
  }

  [[nodiscard]] static long long gcdCong(long long a, long long b) {
    if (a < 0) a = -a;
    if (b < 0) b = -b;
    while (b != 0) {
      long long t = a % b;
      a = b;
      b = t;
    }
    return a;
  }
};

}  // namespace

AbsVal evalExpr(const ir::Expr& e, const std::map<std::string, AbsVal>& env) {
  switch (e.kind()) {
    case ir::ExprKind::IntLit:
      return AbsVal::constant(e.as<ir::IntLit>().value);
    case ir::ExprKind::VarRef:
      return envGet(env, e.as<ir::VarRef>().name);
    case ir::ExprKind::Unary: {
      const auto& u = e.as<ir::Unary>();
      if (u.op == ir::UnOp::Neg) return neg(evalExpr(*u.operand, env));
      return AbsVal::top();
    }
    case ir::ExprKind::Binary: {
      const auto& b = e.as<ir::Binary>();
      switch (b.op) {
        case ir::BinOp::Add:
          return add(evalExpr(*b.lhs, env), evalExpr(*b.rhs, env));
        case ir::BinOp::Sub:
          return sub(evalExpr(*b.lhs, env), evalExpr(*b.rhs, env));
        case ir::BinOp::Mul:
          return mul(evalExpr(*b.lhs, env), evalExpr(*b.rhs, env));
        case ir::BinOp::Div:
          return div(evalExpr(*b.lhs, env), evalExpr(*b.rhs, env));
        case ir::BinOp::Mod:
          return mod(evalExpr(*b.lhs, env), evalExpr(*b.rhs, env));
        default:
          return AbsVal::top();
      }
    }
    default:
      return AbsVal::top();  // array reads, calls, literals of other types
  }
}

std::optional<bool> GuardFact::decided() const {
  if (diff.bot) return std::nullopt;  // unreachable guard: not "dead"
  const auto& i = diff.itv;
  switch (op) {
    case ir::BinOp::Lt:
      if (i.hi && *i.hi < 0) return true;
      if (i.lo && *i.lo >= 0) return false;
      break;
    case ir::BinOp::Le:
      if (i.hi && *i.hi <= 0) return true;
      if (i.lo && *i.lo > 0) return false;
      break;
    case ir::BinOp::Gt:
      if (i.lo && *i.lo > 0) return true;
      if (i.hi && *i.hi <= 0) return false;
      break;
    case ir::BinOp::Ge:
      if (i.lo && *i.lo >= 0) return true;
      if (i.hi && *i.hi < 0) return false;
      break;
    case ir::BinOp::Eq:
      if (i.isConstant() && *i.lo == 0) return true;
      if (!diff.contains(0)) return false;
      break;
    case ir::BinOp::Ne:
      if (!diff.contains(0)) return true;
      if (i.isConstant() && *i.lo == 0) return false;
      break;
    default:
      break;
  }
  return std::nullopt;
}

int RegionFacts::factCount() const {
  int n = 0;
  for (const auto& [name, v] : facts) {
    (void)name;
    if (!v.isTop()) ++n;
  }
  return n;
}

std::string RegionFacts::describe() const {
  std::ostringstream os;
  os << "region " << region << " loop " << (loop != nullptr ? loop->var : "?")
     << "\n";
  for (const auto& [name, v] : facts)
    if (!v.isTop()) os << "  " << name << ": " << v.str() << "\n";
  for (const auto& [ctx, m] : contextFacts) {
    int nontrivial = 0;
    for (const auto& [name, v] : m) {
      (void)name;
      if (!v.isTop()) ++nontrivial;
    }
    if (nontrivial == 0) continue;
    os << "  context " << ctx << "\n";
    for (const auto& [name, v] : m)
      if (!v.isTop()) os << "    " << name << ": " << v.str() << "\n";
  }
  return os.str();
}

int KernelFacts::factCount() const {
  int n = 0;
  for (const auto& r : regions) n += r.factCount();
  for (const auto& [name, v] : globals) {
    (void)name;
    if (!v.isTop()) ++n;
  }
  return n;
}

std::string KernelFacts::describe() const {
  std::ostringstream os;
  for (const auto& [name, v] : globals)
    if (!v.isTop()) os << "global " << name << ": " << v.str() << "\n";
  for (const auto& r : regions) os << r.describe();
  return os.str();
}

KernelFacts analyzeKernel(const ir::Kernel& k, const AbsintOptions& opts) {
  analysis::SymbolTable syms = analysis::verifyKernel(k);
  // Only sound pins survive validation: integer scalar parameters the
  // kernel never writes (shared rule with racecheck and the linter).
  const std::map<std::string, long long> pins =
      analysis::validatePins(k, syms, opts.paramValues);
  KernelFacts out;
  Interp interp{syms, opts, out};
  Env env;
  for (const auto& p : k.params) {
    if (p.type.isArray() || !p.type.isInt()) continue;
    auto it = pins.find(p.name);
    env[p.name] =
        it != pins.end() ? AbsVal::constant(it->second) : AbsVal::top();
  }
  out.globals = interp.execList(k.body, std::move(env));
  return out;
}

smt::AbsintHints toHints(const RegionFacts& rf) {
  smt::AbsintHints hints;
  for (const auto& [name, v] : rf.facts) {
    if (v.bot || v.isTop()) continue;
    smt::AbsintFact f;
    f.lo = v.itv.lo;
    f.hi = v.itv.hi;
    f.modulus = v.cong.m;
    f.remainder = v.cong.r;
    hints.facts.emplace(name, f);
  }
  hints.salt = factsDigest(rf);
  return hints;
}

std::uint64_t factsDigest(const RegionFacts& rf) {
  std::uint64_t h = smt::fnv1a64(rf.describe());
  return h == 0 ? 1 : h;
}

}  // namespace formad::absint
