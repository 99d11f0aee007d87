// Unit and property tests for the SMT substrate: exact rationals, linear
// expressions, the Gaussian equality engine, congruence closure, and the
// solver facade — including a randomized cross-check against brute-force
// enumeration over a small integer domain.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <random>
#include <thread>
#include <vector>

#include "smt/diskcache.h"
#include "smt/fastpath.h"
#include "smt/solver.h"
#include "support/diagnostics.h"

namespace formad::smt {
namespace {

// ---------------------------------------------------------------- Rational

TEST(Rational, NormalizationAndArithmetic) {
  Rational a(2, 4);
  EXPECT_EQ(a.num(), 1);
  EXPECT_EQ(a.den(), 2);
  Rational b(-3, -6);
  EXPECT_EQ(b, a);
  Rational c(3, -6);
  EXPECT_EQ(c, -a);

  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(9, 4), Rational(3, 2));
  EXPECT_EQ(Rational(2, 3) / Rational(4, 3), Rational(1, 2));
  EXPECT_EQ(Rational(7).inverse(), Rational(1, 7));
}

TEST(Rational, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_GE(Rational(5, 5), Rational(1));
  EXPECT_EQ(Rational(0).sign(), 0);
  EXPECT_EQ(Rational(-7, 3).sign(), -1);
}

TEST(Rational, IntegerPredicates) {
  EXPECT_TRUE(Rational(4, 2).isInteger());
  EXPECT_FALSE(Rational(1, 2).isInteger());
  EXPECT_TRUE(Rational(0).isZero());
}

TEST(Rational, GcdLcmHelpers) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(0, 5), 5);
  EXPECT_EQ(lcm64(4, 6), 12);
  EXPECT_EQ(lcm64(1, 7), 7);
}

// ---------------------------------------------------------------- LinExpr

TEST(LinExpr, TermMergingDropsZeros) {
  LinExpr e;
  e.addTerm(3, Rational(2));
  e.addTerm(3, Rational(-2));
  EXPECT_TRUE(e.isConstant());
  e.addTerm(1, Rational(1));
  e.addConstant(Rational(5));
  EXPECT_EQ(e.coeff(1), Rational(1));
  EXPECT_EQ(e.constant(), Rational(5));
}

TEST(LinExpr, Arithmetic) {
  LinExpr a = LinExpr::atom(0) + LinExpr::atom(1).scaled(Rational(2));
  LinExpr b = LinExpr::atom(1).scaled(Rational(-2)) + LinExpr(Rational(7));
  LinExpr s = a + b;
  EXPECT_EQ(s.coeff(0), Rational(1));
  EXPECT_EQ(s.coeff(1), Rational(0));
  EXPECT_EQ(s.constant(), Rational(7));
  EXPECT_TRUE((a - a).isZero());
}

TEST(LinExpr, KeyIsStable) {
  LinExpr a = LinExpr::atom(2) + LinExpr(Rational(1));
  LinExpr b = LinExpr(Rational(1)) + LinExpr::atom(2);
  EXPECT_EQ(a.key(), b.key());
}

// ---------------------------------------------------------------- LiaSystem

TEST(Lia, EntailmentThroughSubstitution) {
  LiaSystem lia;
  // x0 = x1 + 1, x1 = 5  =>  x0 - 6 == 0
  ASSERT_TRUE(lia.addEquality(LinExpr::atom(0) - LinExpr::atom(1) -
                              LinExpr(Rational(1))));
  ASSERT_TRUE(lia.addEquality(LinExpr::atom(1) - LinExpr(Rational(5))));
  EXPECT_TRUE(lia.impliesZero(LinExpr::atom(0) - LinExpr(Rational(6))));
  EXPECT_FALSE(lia.impliesZero(LinExpr::atom(0) - LinExpr(Rational(5))));
}

TEST(Lia, RationalConflict) {
  LiaSystem lia;
  ASSERT_TRUE(lia.addEquality(LinExpr::atom(0) - LinExpr(Rational(1))));
  EXPECT_FALSE(lia.addEquality(LinExpr::atom(0) - LinExpr(Rational(2))));
}

TEST(Lia, RedundantEqualityIsAccepted) {
  LiaSystem lia;
  ASSERT_TRUE(lia.addEquality(LinExpr::atom(0) - LinExpr::atom(1)));
  EXPECT_TRUE(lia.addEquality(LinExpr::atom(1) - LinExpr::atom(0)));
  EXPECT_EQ(lia.rowCount(), 1u);
}

TEST(Lia, GcdIntegerInfeasibility) {
  LiaSystem lia;
  // 2x = 1 has no integer solution.
  ASSERT_TRUE(lia.addEquality(LinExpr::atom(0).scaled(Rational(2)) -
                              LinExpr(Rational(1))));
  EXPECT_FALSE(lia.integerFeasible());

  LiaSystem ok;
  ASSERT_TRUE(ok.addEquality(LinExpr::atom(0).scaled(Rational(2)) -
                             LinExpr(Rational(4))));
  EXPECT_TRUE(ok.integerFeasible());
}

// ---------------------------------------------------------------- Solver

// The fixture's solver caches through a memory-only verdict store, the
// way the analyses' solvers do, with the raw solver's fast path off.
class SolverTest : public ::testing::Test {
 protected:
  AtomTable atoms;
  AtomId i = atoms.internVar("i", 0, false);
  AtomId ip = atoms.internVar("i", 0, true);
  PersistentVerdictStore store{""};
  Solver solver{atoms, {.fastpath = FastPathMode::Off, .store = &store},
                nullptr};
};

TEST_F(SolverTest, PaperFig2Scenario) {
  // knowledge: i != i', c(i') != c(i); question: c(i')+7 == c(i)+7.
  AtomId ci = atoms.internUF("c", {LinExpr::atom(i)});
  AtomId cip = atoms.internUF("c", {LinExpr::atom(ip)});
  solver.add(Constraint::ne(LinExpr::atom(ip), LinExpr::atom(i)));
  solver.add(Constraint::ne(LinExpr::atom(cip), LinExpr::atom(ci)));
  EXPECT_EQ(solver.check(), CheckResult::Sat);

  solver.push();
  solver.add(Constraint::eq(LinExpr::atom(cip) + LinExpr(Rational(7)),
                            LinExpr::atom(ci) + LinExpr(Rational(7))));
  EXPECT_EQ(solver.check(), CheckResult::Unsat);
  solver.pop();
  EXPECT_EQ(solver.check(), CheckResult::Sat);
}

TEST_F(SolverTest, CongruenceMergesEqualArguments) {
  // i' == i + 0 forces c(i') == c(i), contradicting c(i') != c(i).
  AtomId ci = atoms.internUF("c", {LinExpr::atom(i)});
  AtomId cip = atoms.internUF("c", {LinExpr::atom(ip)});
  solver.add(Constraint::ne(LinExpr::atom(cip), LinExpr::atom(ci)));
  solver.add(Constraint::eq(LinExpr::atom(ip), LinExpr::atom(i)));
  EXPECT_EQ(solver.check(), CheckResult::Unsat);
}

TEST_F(SolverTest, DistinctFunctionsDoNotMerge) {
  AtomId ci = atoms.internUF("c", {LinExpr::atom(i)});
  AtomId di = atoms.internUF("d", {LinExpr::atom(i)});
  solver.add(Constraint::ne(LinExpr::atom(ci), LinExpr::atom(di)));
  EXPECT_EQ(solver.check(), CheckResult::Sat);
}

TEST_F(SolverTest, NestedCongruence) {
  // i' == i  =>  c(i') == c(i)  =>  d(c(i')) == d(c(i)).
  AtomId ci = atoms.internUF("c", {LinExpr::atom(i)});
  AtomId cip = atoms.internUF("c", {LinExpr::atom(ip)});
  AtomId dci = atoms.internUF("d", {LinExpr::atom(ci)});
  AtomId dcip = atoms.internUF("d", {LinExpr::atom(cip)});
  solver.add(Constraint::eq(LinExpr::atom(ip), LinExpr::atom(i)));
  solver.add(Constraint::ne(LinExpr::atom(dcip), LinExpr::atom(dci)));
  EXPECT_EQ(solver.check(), CheckResult::Unsat);
}

TEST_F(SolverTest, StencilKnowledgePattern) {
  // knowledge: i' != i, i' != i-1, i'-1 != i, i'-1 != i-1.
  LinExpr I = LinExpr::atom(i), Ip = LinExpr::atom(ip);
  LinExpr one{Rational(1)};
  solver.add(Constraint::ne(Ip, I));
  solver.add(Constraint::ne(Ip, I - one));
  solver.add(Constraint::ne(Ip - one, I));
  solver.add(Constraint::ne(Ip - one, I - one));
  EXPECT_EQ(solver.check(), CheckResult::Sat);
  // All four adjoint pairs must be refuted.
  const LinExpr ws[2] = {Ip, Ip - one};
  const LinExpr xs[2] = {I, I - one};
  for (const auto& w : ws)
    for (const auto& x : xs) {
      solver.push();
      solver.add(Constraint::eq(w, x));
      EXPECT_EQ(solver.check(), CheckResult::Unsat);
      solver.pop();
    }
}

TEST_F(SolverTest, LbmUnsafePattern) {
  // knowledge: (eb' + n*-14399 + i') != (eb + n*-14399 + i) and friends do
  // NOT refute (eb' + i') == (eb + i).
  AtomId ebA = atoms.internVar("eb", 0, false);
  AtomId nA = atoms.internVar("n_cell_entries", 0, false);
  LinExpr EB = LinExpr::atom(ebA), N = LinExpr::atom(nA);
  LinExpr I = LinExpr::atom(i), Ip = LinExpr::atom(ip);
  solver.add(Constraint::ne(Ip, I));
  solver.add(Constraint::ne(EB + N.scaled(Rational(-14399)) + Ip,
                            EB + N.scaled(Rational(-14399)) + I));
  solver.push();
  solver.add(Constraint::eq(EB + Ip, EB + I));
  // i' == i contradicts the root assertion -> Unsat? No: the question uses
  // the *unprimed write against primed write of a different offset*. Use
  // distinct offsets to model the real situation:
  solver.pop();
  solver.push();
  // question: (eb' + n*0 + i') == (c + n*0 + i) with distinct field vars.
  AtomId cA = atoms.internVar("c", 0, false);
  solver.add(Constraint::eq(EB + Ip, LinExpr::atom(cA) + I));
  EXPECT_EQ(solver.check(), CheckResult::Sat);  // not provably disjoint
  solver.pop();
}

TEST_F(SolverTest, InequalitySupport) {
  LinExpr I = LinExpr::atom(i);
  solver.add(Constraint::le(I, LinExpr(Rational(5))));       // i <= 5
  solver.add(Constraint::le(LinExpr(Rational(7)), I));       // i >= 7
  EXPECT_EQ(solver.check(), CheckResult::Unsat);
}

TEST_F(SolverTest, PointIntervalPlusDisequality) {
  LinExpr I = LinExpr::atom(i);
  solver.add(Constraint::le(I, LinExpr(Rational(4))));
  solver.add(Constraint::le(LinExpr(Rational(4)), I));
  solver.add(Constraint::ne(I, LinExpr(Rational(4))));
  EXPECT_EQ(solver.check(), CheckResult::Unsat);
}

TEST_F(SolverTest, StatsCountAssertionsAndChecks) {
  solver.add(Constraint::ne(LinExpr::atom(ip), LinExpr::atom(i)));
  (void)solver.check();
  (void)solver.check();
  EXPECT_EQ(solver.stats().assertionsAdded, 1);
  EXPECT_EQ(solver.stats().checks, 2);
}

TEST_F(SolverTest, PushPopRestoresAssertionCount) {
  solver.add(Constraint::ne(LinExpr::atom(ip), LinExpr::atom(i)));
  solver.push();
  solver.add(Constraint::eq(LinExpr::atom(ip), LinExpr::atom(i)));
  EXPECT_EQ(solver.assertionCount(), 2u);
  solver.pop();
  EXPECT_EQ(solver.assertionCount(), 1u);
  EXPECT_EQ(solver.check(), CheckResult::Sat);
}

// ------------------------------------------------ property: brute force

/// Random conjunctions of (dis)equalities over 3 integer variables with
/// small coefficients, cross-checked against enumeration over [-4, 4]^3.
/// The solver must never answer Unsat when a model exists in that box
/// (soundness); when it answers Sat and the box has no model, the formula
/// may still have a model outside the box, so only the Unsat direction is
/// a hard check.
TEST(SolverProperty, UnsatSoundnessAgainstBruteForce) {
  std::mt19937_64 rng(20220829);
  std::uniform_int_distribution<int> coeff(-3, 3);
  std::uniform_int_distribution<int> numCons(1, 6);
  std::uniform_int_distribution<int> relPick(0, 2);

  for (int trial = 0; trial < 400; ++trial) {
    AtomTable atoms;
    AtomId v[3] = {atoms.internVar("a", 0, false),
                   atoms.internVar("b", 0, false),
                   atoms.internVar("c", 0, false)};
    Solver solver(atoms);

    struct Con {
      int c[3];
      int k;
      Rel rel;
    };
    std::vector<Con> cons;
    int n = numCons(rng);
    for (int j = 0; j < n; ++j) {
      Con con{};
      LinExpr e;
      for (int q = 0; q < 3; ++q) {
        con.c[q] = coeff(rng);
        e.addTerm(v[q], Rational(con.c[q]));
      }
      con.k = coeff(rng);
      e.addConstant(Rational(con.k));
      con.rel = static_cast<Rel>(relPick(rng));
      cons.push_back(con);
      solver.add(Constraint{e, con.rel});
    }

    bool bruteSat = false;
    for (int a = -4; a <= 4 && !bruteSat; ++a)
      for (int b = -4; b <= 4 && !bruteSat; ++b)
        for (int cc = -4; cc <= 4 && !bruteSat; ++cc) {
          bool ok = true;
          for (const auto& con : cons) {
            long long val =
                con.c[0] * a + con.c[1] * b + con.c[2] * cc + con.k;
            if (con.rel == Rel::Eq && val != 0) ok = false;
            if (con.rel == Rel::Ne && val == 0) ok = false;
            if (con.rel == Rel::Le && val > 0) ok = false;
          }
          bruteSat = ok;
        }

    CheckResult r = solver.check();
    if (bruteSat) {
      EXPECT_NE(r, CheckResult::Unsat)
          << "solver refuted a satisfiable conjunction (trial " << trial
          << ")";
    }
  }
}

/// Equality-only conjunctions are decided exactly over the rationals: if
/// brute force over a large box finds no solution AND the system is
/// infeasible over Q or gcd-infeasible, the solver must say Unsat for
/// directly contradicting equalities.
TEST(SolverProperty, EntailedEqualityContradictsDisequality) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int> coeff(-2, 2);
  for (int trial = 0; trial < 200; ++trial) {
    AtomTable atoms;
    AtomId a = atoms.internVar("a", 0, false);
    AtomId b = atoms.internVar("b", 0, false);
    Solver solver(atoms);
    int c1 = coeff(rng), c2 = coeff(rng), k = coeff(rng);
    LinExpr e = LinExpr::atom(a).scaled(Rational(c1)) +
                LinExpr::atom(b).scaled(Rational(c2)) + LinExpr(Rational(k));
    // Assert e == 0 and e != 0 together: always Unsat.
    solver.add(Constraint{e, Rel::Eq});
    solver.add(Constraint{e, Rel::Ne});
    EXPECT_EQ(solver.check(), CheckResult::Unsat);
  }
}

TEST(AtomTable, InterningIsStructural) {
  AtomTable atoms;
  AtomId a1 = atoms.internVar("x", 1, false);
  AtomId a2 = atoms.internVar("x", 1, false);
  AtomId a3 = atoms.internVar("x", 2, false);
  AtomId a4 = atoms.internVar("x", 1, true);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, a3);
  EXPECT_NE(a1, a4);

  AtomId u1 = atoms.internUF("f", {LinExpr::atom(a1)});
  AtomId u2 = atoms.internUF("f", {LinExpr::atom(a2)});
  AtomId u3 = atoms.internUF("f", {LinExpr::atom(a3)});
  EXPECT_EQ(u1, u2);
  EXPECT_NE(u1, u3);
}

TEST(AtomTable, RenderIsReadable) {
  AtomTable atoms;
  AtomId i = atoms.internVar("i", 0, false);
  AtomId ci = atoms.internUF("c@0", {LinExpr::atom(i)});
  LinExpr e = LinExpr::atom(ci) + LinExpr(Rational(7));
  std::string s = atoms.render(e);
  EXPECT_NE(s.find("c@0"), std::string::npos);
  EXPECT_NE(s.find("i_0"), std::string::npos);
  EXPECT_NE(s.find("7"), std::string::npos);
}

// -------------------------------------------------- stack discipline

TEST_F(SolverTest, PopWithoutPushThrows) {
  solver.push();
  solver.pop();
  EXPECT_THROW(solver.pop(), Error);
}

TEST_F(SolverTest, PopUnderflowLeavesAssertionsIntact) {
  solver.add(Constraint::ne(LinExpr::atom(i), LinExpr::atom(ip)));
  EXPECT_THROW(solver.pop(), Error);
  EXPECT_EQ(solver.assertionCount(), 1u);
  EXPECT_EQ(solver.check(), CheckResult::Sat);
}

// -------------------------------------------------- Unknown paths

TEST_F(SolverTest, MultiAtomInequalityIsUnknown) {
  // i + i' <= 3 leaves a multi-atom residue the interval tracker cannot
  // decide: the verdict must degrade to Unknown, never to Sat.
  solver.add(Constraint::le(LinExpr::atom(i) + LinExpr::atom(ip),
                            LinExpr(Rational(3))));
  EXPECT_EQ(solver.check(), CheckResult::Unknown);
}

TEST_F(SolverTest, UndecidedLeStillDetectsIntervalConflicts) {
  // The undecided multi-atom Le must not mask a decidable single-atom
  // interval conflict elsewhere on the stack.
  solver.add(Constraint::le(LinExpr::atom(i) + LinExpr::atom(ip),
                            LinExpr(Rational(3))));
  solver.add(Constraint::le(LinExpr(Rational(5)), LinExpr::atom(i)));
  solver.add(Constraint::le(LinExpr::atom(i), LinExpr(Rational(4))));
  EXPECT_EQ(solver.check(), CheckResult::Unsat);
}

// -------------------------------------------------- Stats counters

TEST_F(SolverTest, StoreCountsHits) {
  solver.add(Constraint::ne(LinExpr::atom(i), LinExpr::atom(ip)));
  EXPECT_EQ(solver.check(), CheckResult::Sat);
  EXPECT_EQ(solver.stats().cacheHits, 0);
  EXPECT_EQ(solver.check(), CheckResult::Sat);
  EXPECT_EQ(solver.stats().cacheHits, 1);
  EXPECT_EQ(solver.stats().checks, 2);

  // A different stack misses; an order-permuted copy of a seen stack hits.
  solver.push();
  solver.add(Constraint::eq(LinExpr::atom(i), LinExpr(Rational(0))));
  EXPECT_EQ(solver.check(), CheckResult::Sat);
  EXPECT_EQ(solver.stats().cacheHits, 1);
  solver.pop();
}

TEST_F(SolverTest, ReduceMemoServesThePinnedIntervalPass) {
  // 0 <= i <= 0 pins i to a point and i != 0 excludes it: the verdict is
  // Unsat, reached in the pinned-interval pass that reuses the memoized
  // Ne residues (reduceMemoHits) instead of reducing them again.
  solver.add(Constraint::ne(LinExpr::atom(i), LinExpr::atom(ip)));
  solver.add(Constraint::le(LinExpr(Rational(0)), LinExpr::atom(i)));
  solver.add(Constraint::le(LinExpr::atom(i), LinExpr(Rational(0))));
  solver.add(Constraint::ne(LinExpr::atom(i), LinExpr(Rational(0))));
  EXPECT_EQ(solver.check(), CheckResult::Unsat);
  EXPECT_GT(solver.stats().reduceMemoHits, 0);
  EXPECT_GT(solver.stats().reduceCalls, 0);

  // The cached re-check must not re-reduce anything.
  long long reduceCalls = solver.stats().reduceCalls;
  long long memoHits = solver.stats().reduceMemoHits;
  EXPECT_EQ(solver.check(), CheckResult::Unsat);
  EXPECT_EQ(solver.stats().reduceCalls, reduceCalls);
  EXPECT_EQ(solver.stats().reduceMemoHits, memoHits);
}

// -------------------------------------------- fast-path tier-1 deciders
//
// Each tier-1 decider on a hand-built conjunction: decideFast must name
// the decider, the full solver must agree (exactness), and a Solver with
// the fast path enabled must report the check's tier.

class FastPathTier1Test : public SolverTest {
 protected:
  // decideFast on `stack` plus cross-checks: the pure-SMT verdict equals
  // `expect`, and a fast-pathed solver reaches the same verdict.
  FastDecision decideAndCrossCheck(const std::vector<Constraint>& stack,
                                   CheckResult expect) {
    Solver pure(atoms);  // FastPathMode::Off by default
    Solver fast(atoms, {.fastpath = FastPathMode::Full}, nullptr);
    for (const auto& c : stack) {
      pure.add(c);
      fast.add(c);
    }
    EXPECT_EQ(pure.check(), expect);
    EXPECT_EQ(fast.check(), expect);
    lastFastTier = fast.lastCheck().tier;
    return decideFast(atoms, stack, FastPathMode::Full);
  }
  int lastFastTier = 2;
};

TEST_F(FastPathTier1Test, GcdDivisibilitySeparates) {
  // 2i + 4i' = 1 has no integer solution: gcd(2, 4) = 2 does not divide 1.
  std::vector<Constraint> stack = {
      Constraint::eq(LinExpr::atom(i, Rational(2)) +
                         LinExpr::atom(ip, Rational(4)),
                     LinExpr(Rational(1)))};
  FastDecision d = decideAndCrossCheck(stack, CheckResult::Unsat);
  EXPECT_EQ(d.verdict, FastVerdict::Disjoint);
  EXPECT_EQ(d.tier, 1);
  EXPECT_EQ(d.decider, "t1-gcd");
  EXPECT_NE(d.justification.find("gcd"), std::string::npos);
  EXPECT_EQ(lastFastTier, 1);
}

TEST_F(FastPathTier1Test, StrideLatticeFromLbmColoringFacts) {
  // The LBM checkerboard coloring yields lattice facts of the shape
  // 20q' - 20q + c = 0 between same-color cell bases (20 doubles per
  // cell). With 20 not dividing c the bases can never collide; the
  // stride-lattice decider must answer without the solver's HNF pass.
  AtomId q = atoms.internVar("q", 0, false);
  AtomId qp = atoms.internVar("q", 0, true);
  std::vector<Constraint> stack = {
      Constraint::ne(LinExpr::atom(qp), LinExpr::atom(q)),
      Constraint::eq(LinExpr::atom(qp, Rational(20)) -
                         LinExpr::atom(q, Rational(20)) +
                         LinExpr(Rational(7)),
                     LinExpr(Rational(0)))};
  FastDecision d = decideAndCrossCheck(stack, CheckResult::Unsat);
  EXPECT_EQ(d.verdict, FastVerdict::Disjoint);
  EXPECT_EQ(d.tier, 1);
  EXPECT_EQ(d.decider, "t1-stride");
  EXPECT_NE(d.justification.find("stride lattice"), std::string::npos);
  EXPECT_EQ(lastFastTier, 1);
}

TEST_F(FastPathTier1Test, RationalEqualityConflict) {
  // i = 3 and i = 5 are already rationally inconsistent.
  std::vector<Constraint> stack = {
      Constraint::eq(LinExpr::atom(i), LinExpr(Rational(3))),
      Constraint::eq(LinExpr::atom(i), LinExpr(Rational(5)))};
  FastDecision d = decideAndCrossCheck(stack, CheckResult::Unsat);
  EXPECT_EQ(d.verdict, FastVerdict::Disjoint);
  EXPECT_EQ(d.tier, 1);
  EXPECT_EQ(d.decider, "t1-eq-conflict");
  EXPECT_EQ(lastFastTier, 1);
}

TEST_F(FastPathTier1Test, EntailedDisequality) {
  // i = i' makes the standard i != i' probe base unsatisfiable.
  std::vector<Constraint> stack = {
      Constraint::eq(LinExpr::atom(i), LinExpr::atom(ip)),
      Constraint::ne(LinExpr::atom(ip), LinExpr::atom(i))};
  FastDecision d = decideAndCrossCheck(stack, CheckResult::Unsat);
  EXPECT_EQ(d.verdict, FastVerdict::Disjoint);
  EXPECT_EQ(d.tier, 1);
  EXPECT_EQ(d.decider, "t1-ne-entailed");
  EXPECT_EQ(lastFastTier, 1);
}

TEST_F(FastPathTier1Test, IntervalSeparation) {
  // 7 <= i <= 5 is empty.
  std::vector<Constraint> stack = {
      Constraint::ne(LinExpr::atom(ip), LinExpr::atom(i)),
      Constraint::le(LinExpr::atom(i), LinExpr(Rational(5))),
      Constraint::le(LinExpr(Rational(7)), LinExpr::atom(i))};
  FastDecision d = decideAndCrossCheck(stack, CheckResult::Unsat);
  EXPECT_EQ(d.verdict, FastVerdict::Disjoint);
  EXPECT_EQ(d.tier, 1);
  EXPECT_EQ(d.decider, "t1-interval");
  EXPECT_EQ(lastFastTier, 1);
}

TEST_F(FastPathTier1Test, PointIntervalExcludedByDisequality) {
  // 4 <= i <= 4 pins i; i != 4 excludes the only point.
  std::vector<Constraint> stack = {
      Constraint::le(LinExpr::atom(i), LinExpr(Rational(4))),
      Constraint::le(LinExpr(Rational(4)), LinExpr::atom(i)),
      Constraint::ne(LinExpr::atom(i), LinExpr(Rational(4)))};
  FastDecision d = decideAndCrossCheck(stack, CheckResult::Unsat);
  EXPECT_EQ(d.verdict, FastVerdict::Disjoint);
  EXPECT_EQ(d.tier, 1);
  EXPECT_EQ(d.decider, "t1-interval");
  EXPECT_EQ(lastFastTier, 1);
}

TEST_F(FastPathTier1Test, BoundFactsSeparatingInOneDimensionOnly) {
  // Regression: a 2-D access whose range facts separate only in the first
  // dimension. 0 <= i <= 10 and 20 <= j <= 30 separate; the second
  // dimension's 0 <= k, l <= 30 do not. Probing the separating dimension
  // must decide via the interval decider; probing the overlapping one
  // must fall through to the solver, which finds a collision.
  AtomId j = atoms.internVar("j", 0, true);
  AtomId k = atoms.internVar("k", 0, false);
  AtomId l = atoms.internVar("l", 0, true);
  std::vector<Constraint> facts = {
      Constraint::le(LinExpr(Rational(0)), LinExpr::atom(i)),
      Constraint::le(LinExpr::atom(i), LinExpr(Rational(10))),
      Constraint::le(LinExpr(Rational(20)), LinExpr::atom(j)),
      Constraint::le(LinExpr::atom(j), LinExpr(Rational(30))),
      Constraint::le(LinExpr(Rational(0)), LinExpr::atom(k)),
      Constraint::le(LinExpr::atom(k), LinExpr(Rational(30))),
      Constraint::le(LinExpr(Rational(0)), LinExpr::atom(l)),
      Constraint::le(LinExpr::atom(l), LinExpr(Rational(30)))};

  std::vector<Constraint> separating = facts;
  separating.push_back(Constraint::eq(LinExpr::atom(i), LinExpr::atom(j)));
  FastDecision d = decideAndCrossCheck(separating, CheckResult::Unsat);
  EXPECT_EQ(d.verdict, FastVerdict::Disjoint);
  EXPECT_EQ(d.decider, "t1-interval");
  EXPECT_EQ(lastFastTier, 1);

  std::vector<Constraint> overlapping = facts;
  overlapping.push_back(Constraint::eq(LinExpr::atom(k), LinExpr::atom(l)));
  d = decideAndCrossCheck(overlapping, CheckResult::Sat);
  EXPECT_EQ(d.verdict, FastVerdict::Unknown);
  EXPECT_EQ(d.tier, 2);
  EXPECT_EQ(lastFastTier, 2);
}

TEST_F(FastPathTier1Test, UfAtomsDisableTheIntervalDecider) {
  // An interval conflict in the presence of an uninterpreted read must
  // stay Unknown at the fast path: congruence merges could reshape Le
  // residues, so only solve() may claim the verdict (still Unsat here —
  // exactness allows falling through, never disagreeing).
  AtomId ci = atoms.internUF("c", {LinExpr::atom(i)});
  AtomId cip = atoms.internUF("c", {LinExpr::atom(ip)});
  std::vector<Constraint> stack = {
      Constraint::ne(LinExpr::atom(cip), LinExpr::atom(ci)),
      Constraint::le(LinExpr::atom(i), LinExpr(Rational(5))),
      Constraint::le(LinExpr(Rational(7)), LinExpr::atom(i))};
  FastDecision d = decideAndCrossCheck(stack, CheckResult::Unsat);
  EXPECT_EQ(d.verdict, FastVerdict::Unknown);
  EXPECT_EQ(lastFastTier, 2);
}

// -------------------------------------------------- model extraction

TEST_F(SolverTest, ModelSatisfiesEqualitiesAndBounds) {
  // i' = i + 3 with i >= 2: any returned model must lie on the line and
  // inside the half-space.
  solver.add(Constraint::eq(LinExpr::atom(ip),
                            LinExpr::atom(i) + LinExpr(Rational(3))));
  solver.add(Constraint::le(LinExpr(Rational(2)), LinExpr::atom(i)));
  auto m = solver.model();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->at(ip), m->at(i) + 3);
  EXPECT_GE(m->at(i), 2);
  EXPECT_EQ(solver.stats().modelSearches, 1);
  EXPECT_EQ(solver.stats().modelsFound, 1);
}

TEST_F(SolverTest, ModelRespectsDisequalities) {
  solver.add(Constraint::ne(LinExpr::atom(i), LinExpr::atom(ip)));
  solver.add(Constraint::ne(LinExpr::atom(i), LinExpr(Rational(0))));
  auto m = solver.model();
  ASSERT_TRUE(m.has_value());
  EXPECT_NE(m->at(i), m->at(ip));
  EXPECT_NE(m->at(i), 0);
}

TEST_F(SolverTest, NoModelForUnsatConjunction) {
  // 2i = 1 has no integer solution; model() must not fabricate one.
  solver.add(Constraint::eq(LinExpr::atom(i).scaled(Rational(2)),
                            LinExpr(Rational(1))));
  EXPECT_FALSE(solver.model().has_value());
  EXPECT_EQ(solver.stats().modelsFound, 0);
}

TEST_F(SolverTest, ModelFindsStrideCongruenceWitness) {
  // i and i' on the lattice 1 + 2Z with i == i' + 2 and i != i' — the
  // witness the race checker needs for a stride-2 loop writing one stride
  // behind: two distinct iterations, indices colliding.
  AtomId q = atoms.internVar("q", 0, false);
  AtomId qp = atoms.internVar("q", 0, true);
  solver.add(Constraint::eq(
      LinExpr::atom(i),
      LinExpr::atom(q).scaled(Rational(2)) + LinExpr(Rational(1))));
  solver.add(Constraint::eq(
      LinExpr::atom(ip),
      LinExpr::atom(qp).scaled(Rational(2)) + LinExpr(Rational(1))));
  solver.add(Constraint::ne(LinExpr::atom(i), LinExpr::atom(ip)));
  solver.add(Constraint::eq(LinExpr::atom(i),
                            LinExpr::atom(ip) + LinExpr(Rational(2))));
  auto m = solver.model();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->at(i), m->at(ip) + 2);
  EXPECT_EQ(m->at(i) % 2 == 0, false);
  EXPECT_EQ(m->at(qp) + 1, m->at(q));
}

TEST(SolverModel, EvaluateIsExact) {
  Model m{{0, 2}, {1, -5}};
  LinExpr e = LinExpr::atom(0).scaled(Rational(3)) + LinExpr::atom(1) +
              LinExpr(Rational(7));
  EXPECT_EQ(Solver::evaluate(e, m), Rational(8));
}

TEST(SolverModelProperty, ReturnedModelsSatisfyTheStack) {
  // model() self-verifies before returning; this re-verifies externally
  // over random stacks, and cross-checks "no model" answers against brute
  // force (a brute-force-infeasible stack must never yield a model).
  std::mt19937_64 rng(20260806);
  std::uniform_int_distribution<int> coeff(-3, 3);
  std::uniform_int_distribution<int> numCons(1, 5);
  std::uniform_int_distribution<int> relPick(0, 2);

  for (int trial = 0; trial < 200; ++trial) {
    AtomTable atoms;
    AtomId v[3] = {atoms.internVar("a", 0, false),
                   atoms.internVar("b", 0, false),
                   atoms.internVar("c", 0, false)};
    Solver solver(atoms);

    struct Con {
      int c[3];
      int k;
      Rel rel;
    };
    std::vector<Con> cons;
    int n = numCons(rng);
    for (int j = 0; j < n; ++j) {
      Con con{};
      LinExpr e;
      for (int q = 0; q < 3; ++q) {
        con.c[q] = coeff(rng);
        e.addTerm(v[q], Rational(con.c[q]));
      }
      con.k = coeff(rng);
      e.addConstant(Rational(con.k));
      con.rel = static_cast<Rel>(relPick(rng));
      cons.push_back(con);
      solver.add(Constraint{e, con.rel});
    }

    auto m = solver.model();
    if (m.has_value()) {
      // An atom whose coefficient is zero in every constraint never enters
      // the solver's universe and gets no assignment; any value works.
      auto at = [&](AtomId id) -> long long {
        auto it = m->find(id);
        return it == m->end() ? 0 : it->second;
      };
      for (const auto& con : cons) {
        long long val = con.c[0] * at(v[0]) + con.c[1] * at(v[1]) +
                        con.c[2] * at(v[2]) + con.k;
        if (con.rel == Rel::Eq)
          EXPECT_EQ(val, 0) << "trial " << trial;
        else if (con.rel == Rel::Ne)
          EXPECT_NE(val, 0) << "trial " << trial;
        else
          EXPECT_LE(val, 0) << "trial " << trial;
      }
    }
  }
}

// ------------------------------------------------ verdict cache & threading

// Regression for the scope-staleness hazard: a verdict computed inside a
// push()ed scope must never answer a check() made after the pop(). The
// cache key is the fingerprint of the FULL assertion stack, so the Unsat
// seen under the extra assertion and the Sat of the base scope are distinct
// entries — a cache that keyed on anything less would replay the stale
// Unsat here.
TEST_F(SolverTest, CacheNeverServesStaleScopedVerdict) {
  solver.add(Constraint::ne(LinExpr::atom(ip), LinExpr::atom(i)));
  ASSERT_EQ(solver.check(), CheckResult::Sat);

  solver.push();
  solver.add(Constraint::eq(LinExpr::atom(ip), LinExpr::atom(i)));
  EXPECT_EQ(solver.check(), CheckResult::Unsat);
  solver.pop();

  // Same solver, same base assertions as the first check: must be Sat
  // again (and IS allowed to be a cache hit — of the base entry).
  EXPECT_EQ(solver.check(), CheckResult::Sat);

  // Re-entering an identical scope is a legitimate hit on the scoped entry.
  long long hitsBefore = solver.stats().cacheHits;
  solver.push();
  solver.add(Constraint::eq(LinExpr::atom(ip), LinExpr::atom(i)));
  EXPECT_EQ(solver.check(), CheckResult::Unsat);
  solver.pop();
  EXPECT_EQ(solver.stats().cacheHits, hitsBefore + 1);
}

// The same property across solvers sharing one store (as the worker
// solvers of a parallel exploitation do).
TEST_F(SolverTest, SharedStoreNeverServesStaleScopedVerdict) {
  solver.add(Constraint::ne(LinExpr::atom(ip), LinExpr::atom(i)));
  ASSERT_EQ(solver.check(), CheckResult::Sat);
  solver.push();
  solver.add(Constraint::eq(LinExpr::atom(ip), LinExpr::atom(i)));
  EXPECT_EQ(solver.check(), CheckResult::Unsat);
  solver.pop();
  EXPECT_EQ(solver.check(), CheckResult::Sat);

  // A second solver over the same store replays all three verdicts
  // without solving.
  Solver other(atoms, {.fastpath = FastPathMode::Off, .store = &store},
               nullptr);
  other.add(Constraint::ne(LinExpr::atom(ip), LinExpr::atom(i)));
  EXPECT_EQ(other.check(), CheckResult::Sat);
  other.push();
  other.add(Constraint::eq(LinExpr::atom(ip), LinExpr::atom(i)));
  EXPECT_EQ(other.check(), CheckResult::Unsat);
  other.pop();
  EXPECT_EQ(other.check(), CheckResult::Sat);
  EXPECT_EQ(other.stats().cacheHits, 3);
}

// The stack fingerprint is insertion-order independent: the same set of
// constraints asserted in a different order is the same cache entry.
TEST_F(SolverTest, StackKeyIsOrderIndependent) {
  AtomId ci = atoms.internUF("c", {LinExpr::atom(i)});
  Solver a(atoms), b(atoms);
  a.add(Constraint::ne(LinExpr::atom(ip), LinExpr::atom(i)));
  a.add(Constraint::le(LinExpr::atom(ci), LinExpr(Rational(8))));
  b.add(Constraint::le(LinExpr::atom(ci), LinExpr(Rational(8))));
  b.add(Constraint::ne(LinExpr::atom(ip), LinExpr::atom(i)));
  EXPECT_EQ(a.stackKey(), b.stackKey());
}

// The solver keeps its constraint keys sorted as constraints come and go
// instead of re-sorting them per check. Random add/push/pop/reset
// sequences — drawing from a small pool so duplicates are frequent, mixing
// pre-keyed and self-keyed adds, and attaching an absint salt part way —
// must keep stackKey() byte-equal to the from-scratch conjunctionKey of the
// live keys after every step, behind the key-space prefixes of the
// round's fast-path mode (none for Full) and the salt.
TEST(SolverStackKey, IncrementalKeyMatchesConjunctionKey) {
  AtomTable atoms;
  std::vector<AtomId> vars;
  for (int v = 0; v < 4; ++v)
    vars.push_back(atoms.internVar("v", v, v % 2 == 1));
  vars.push_back(atoms.internUF("c", {LinExpr::atom(vars[0])}));
  std::vector<Constraint> pool;
  for (AtomId a : vars)
    for (AtomId b : vars) {
      if (a == b) continue;
      pool.push_back(Constraint::ne(LinExpr::atom(a), LinExpr::atom(b)));
      pool.push_back(Constraint::eq(LinExpr::atom(a),
                                    LinExpr::atom(b) + LinExpr(Rational(1))));
    }
  pool.push_back(Constraint::le(LinExpr::atom(vars[4]), LinExpr(Rational(8))));

  Fingerprinter fp(atoms);
  AbsintHints hints;
  hints.salt = 0x0123456789abcdefULL;
  std::mt19937 rng(1234);
  const FastPathMode modes[] = {FastPathMode::Full, FastPathMode::Off,
                                FastPathMode::Syntactic};
  for (int round = 0; round < 6; ++round) {
    const FastPathMode mode = modes[round % 3];
    Solver solver(atoms, {.fastpath = mode}, nullptr);
    const int saltAt = round % 2 == 1 ? static_cast<int>(rng() % 300) : -1;
    std::vector<std::string> live;
    std::vector<size_t> marks;
    for (int step = 0; step < 300; ++step) {
      if (step == saltAt) solver.setAbsintHints(&hints);
      const unsigned op = rng() % 16;
      if (op < 8) {
        const Constraint& c = pool[rng() % pool.size()];
        std::string key = fp.constraintKey(c);
        if (op % 2 == 0)
          solver.add(c);
        else
          solver.add(c, key);
        live.push_back(std::move(key));
      } else if (op < 11) {
        solver.push();
        marks.push_back(live.size());
      } else if (op < 15) {
        if (marks.empty()) continue;
        solver.pop();
        live.resize(marks.back());
        marks.pop_back();
      } else {
        solver.reset();
        live.clear();
        marks.clear();
      }
      std::string want = conjunctionKey(live);
      if (solver.absintHints() != nullptr) {
        char prefix[32];
        std::snprintf(prefix, sizeof(prefix), "absint:%016llx;",
                      static_cast<unsigned long long>(hints.salt));
        want.insert(0, prefix);
      }
      if (mode != FastPathMode::Full)
        want.insert(0, "fastpath:" + to_string(mode) + ";");
      ASSERT_EQ(solver.stackKey(), want) << "round " << round << " step "
                                         << step;
      ASSERT_EQ(solver.assertionCount(), live.size());
    }
  }
}

// Keys are content fingerprints, so solvers over different atom tables
// share one store: a conjunction built by interning the same atoms in the
// opposite order is served, and an unrelated one is not.
TEST(VerdictStoreTest, SharesVerdictsAcrossAtomTables) {
  PersistentVerdictStore store("");
  AtomTable t1, t2;
  const AtomId i1 = t1.internVar("i", 0, false);
  const AtomId ip1 = t1.internVar("i", 0, true);
  const AtomId ip2 = t2.internVar("i", 0, true);
  const AtomId i2 = t2.internVar("i", 0, false);
  const CheckPolicy stored{.fastpath = FastPathMode::Off, .store = &store};
  Solver s1(t1, stored, nullptr), s2(t2, stored, nullptr);
  s1.add(Constraint::ne(LinExpr::atom(ip1), LinExpr::atom(i1)));
  s1.add(Constraint::eq(LinExpr::atom(ip1), LinExpr::atom(i1)));
  EXPECT_EQ(s1.check(), CheckResult::Unsat);
  s2.add(Constraint::eq(LinExpr::atom(ip2), LinExpr::atom(i2)));
  s2.add(Constraint::ne(LinExpr::atom(ip2), LinExpr::atom(i2)));
  EXPECT_EQ(s2.check(), CheckResult::Unsat);
  EXPECT_EQ(s2.stats().cacheHits, 1);
  s2.push();
  s2.add(Constraint::eq(LinExpr::atom(i2), LinExpr(Rational(0))));
  EXPECT_EQ(s2.check(), CheckResult::Unsat);
  EXPECT_EQ(s2.stats().cacheHits, 1);
  s2.pop();
}

// A solver without a store decides every check: nothing is served, even
// for a stack it has just decided.
TEST(VerdictStoreTest, NoStoreDecidesEveryCheck) {
  AtomTable atoms;
  const AtomId i = atoms.internVar("i", 0, false);
  const AtomId ip = atoms.internVar("i", 0, true);
  Solver solver(atoms);
  solver.add(Constraint::ne(LinExpr::atom(ip), LinExpr::atom(i)));
  EXPECT_EQ(solver.check(), CheckResult::Sat);
  EXPECT_EQ(solver.check(), CheckResult::Sat);
  EXPECT_EQ(solver.stats().checks, 2);
  EXPECT_EQ(solver.stats().cacheHits, 0);
}

// Solvers are thread-confined: the first add/check binds the owner thread,
// any use from another thread throws, and reset() releases the binding so
// a pool can hand the instance to a different worker.
TEST_F(SolverTest, ThreadConfinementIsEnforcedAndResetReleases) {
  solver.add(Constraint::ne(LinExpr::atom(ip), LinExpr::atom(i)));
  ASSERT_EQ(solver.check(), CheckResult::Sat);

  bool threw = false;
  std::thread probe([&] {
    try {
      (void)solver.check();
    } catch (const Error&) {
      threw = true;
    }
  });
  probe.join();
  EXPECT_TRUE(threw) << "second thread must be rejected without a reset()";

  solver.reset();
  CheckResult fromWorker = CheckResult::Unknown;
  std::thread worker([&] {
    solver.add(Constraint::eq(LinExpr::atom(ip), LinExpr::atom(i)));
    fromWorker = solver.check();
  });
  worker.join();
  EXPECT_EQ(fromWorker, CheckResult::Sat);
}

// The shared store itself is safe under concurrent store/lookup: hammer
// one store from several threads over disjoint and overlapping keys.
TEST(VerdictStoreTest, ConcurrentStoresAndLookupsAreConsistent) {
  AtomTable table;
  std::vector<AtomId> vars;
  for (int v = 0; v < 8; ++v)
    vars.push_back(table.internVar("v" + std::to_string(v), 0, false));
  PersistentVerdictStore store("");

  std::vector<std::thread> threads;
  std::atomic<int> disagreements{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Solver s(table, {.fastpath = FastPathMode::Off, .store = &store},
               nullptr);
      for (int round = 0; round < 50; ++round) {
        const int v = (t + round) % 8;
        s.push();
        // v == round is satisfiable on its own; v == round && v == round+1
        // is not.
        s.add(Constraint::eq(LinExpr::atom(vars[v]),
                             LinExpr(Rational(round % 4))));
        const CheckResult one = s.check();
        s.add(Constraint::eq(LinExpr::atom(vars[v]),
                             LinExpr(Rational(round % 4 + 1))));
        const CheckResult two = s.check();
        s.pop();
        if (one != CheckResult::Sat || two != CheckResult::Unsat)
          disagreements.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(disagreements.load(), 0);
  const auto stats = store.stats();
  EXPECT_GT(stats.checkHits, 0);
  EXPECT_GT(stats.checkStores, 0);
}

}  // namespace
}  // namespace formad::smt
