// Differential fuzz of the tiered fast-path deciders (smt/fastpath.h).
//
// The fast path claims EXACTNESS, not mere soundness: every Disjoint must
// be a conjunction the full solver proves Unsat, every Overlap one it
// proves Sat, and a Solver runs to the identical CheckResult at any
// -fastpath mode. This suite drives 500 random conjunctions from the
// FormAD query grammar (tests/helpers.h randomConjunction) through both
// paths and compares.
#include <gtest/gtest.h>

#include <algorithm>

#include "helpers.h"
#include "smt/fastpath.h"
#include "smt/solver.h"

namespace formad::smt {
namespace {

constexpr unsigned kSeeds = 500;

TEST(FastPathFuzz, DecidersAgreeWithFullSolverOn500RandomConjunctions) {
  int tier0 = 0, tier1 = 0, unknown = 0;
  for (unsigned seed = 0; seed < kSeeds; ++seed) {
    AtomTable atoms;
    std::vector<Constraint> stack = testing::randomConjunction(atoms, seed);

    Solver reference(atoms);  // defaults to FastPathMode::Off: pure SMT
    for (const auto& c : stack) reference.add(c);
    const CheckResult truth = reference.check();

    for (FastPathMode mode : {FastPathMode::Syntactic, FastPathMode::Full}) {
      FastDecision d = decideFast(atoms, stack, mode);
      if (d.verdict == FastVerdict::Disjoint) {
        EXPECT_EQ(truth, CheckResult::Unsat)
            << "seed " << seed << " mode " << to_string(mode) << ": "
            << d.decider << " claimed Disjoint — " << d.justification;
      } else if (d.verdict == FastVerdict::Overlap) {
        EXPECT_EQ(truth, CheckResult::Sat)
            << "seed " << seed << " mode " << to_string(mode) << ": "
            << d.decider << " claimed Overlap — " << d.justification;
      }
      if (mode == FastPathMode::Full) {
        if (d.verdict == FastVerdict::Unknown) ++unknown;
        else if (d.tier == 0) ++tier0;
        else ++tier1;
      }
    }
  }
  // The grammar must actually exercise the deciders, or the agreement
  // checks above are vacuous.
  EXPECT_GT(tier0 + tier1, static_cast<int>(kSeeds) / 5)
      << "tier0 " << tier0 << ", tier1 " << tier1 << ", unknown " << unknown;
  EXPECT_GT(unknown, 0) << "grammar never produces hard conjunctions";
}

TEST(FastPathFuzz, SolverVerdictIdenticalAtEveryMode) {
  for (unsigned seed = 0; seed < kSeeds; ++seed) {
    AtomTable atoms;
    std::vector<Constraint> stack = testing::randomConjunction(atoms, seed);

    Solver reference(atoms);
    for (const auto& c : stack) reference.add(c);
    const CheckResult truth = reference.check();

    for (FastPathMode mode : {FastPathMode::Syntactic, FastPathMode::Full}) {
      Solver s(atoms, {.fastpath = mode}, nullptr);
      for (const auto& c : stack) s.add(c);
      EXPECT_EQ(s.check(), truth)
          << "seed " << seed << " diverges at mode " << to_string(mode);
      EXPECT_LE(s.lastCheck().tier, 2);
    }
  }
}

TEST(FastPathFuzz, VerdictAndTierAreOrderIndependent) {
  // The tier of a check must be a pure function of the conjunction (as a
  // set): the verdict cache serves tiers across workers whose stacks agree
  // only up to order, and replay's per-tier accounting relies on it.
  for (unsigned seed = 0; seed < 200; ++seed) {
    AtomTable atoms;
    std::vector<Constraint> stack = testing::randomConjunction(atoms, seed);
    std::vector<Constraint> reversed(stack.rbegin(), stack.rend());

    FastDecision a = decideFast(atoms, stack, FastPathMode::Full);
    FastDecision b = decideFast(atoms, reversed, FastPathMode::Full);
    EXPECT_EQ(static_cast<int>(a.verdict), static_cast<int>(b.verdict))
        << "seed " << seed;
    EXPECT_EQ(a.tier, b.tier) << "seed " << seed;
  }
}

TEST(FastPath, JustificationsAreOneLine) {
  for (unsigned seed = 0; seed < 100; ++seed) {
    AtomTable atoms;
    std::vector<Constraint> stack = testing::randomConjunction(atoms, seed);
    FastDecision d = decideFast(atoms, stack, FastPathMode::Full);
    if (d.verdict == FastVerdict::Unknown) continue;
    EXPECT_FALSE(d.justification.empty());
    EXPECT_FALSE(d.decider.empty());
    EXPECT_EQ(d.justification.find('\n'), std::string::npos);
  }
}

}  // namespace
}  // namespace formad::smt
