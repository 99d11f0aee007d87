// Driver-layer tests: mode plumbing, report formatting, and describe().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "driver/driver.h"
#include "driver/report.h"
#include "helpers.h"
#include "support/flags.h"
#include "support/pool.h"

namespace formad::testing {
namespace {

using driver::AdjointMode;

TEST(Driver, ModeNames) {
  EXPECT_EQ(driver::to_string(AdjointMode::Serial), "serial");
  EXPECT_EQ(driver::to_string(AdjointMode::Atomic), "atomic");
  EXPECT_EQ(driver::to_string(AdjointMode::Reduction), "reduction");
  EXPECT_EQ(driver::to_string(AdjointMode::FormAD), "formad");
  EXPECT_EQ(driver::to_string(AdjointMode::Plain), "plain");
}

TEST(Driver, AdjointKernelNamesEncodeMode) {
  Harness h = indirectHarness(16, 1);
  auto k = h.parse();
  for (AdjointMode m : {AdjointMode::Serial, AdjointMode::Atomic,
                        AdjointMode::FormAD}) {
    auto dr = driver::differentiate(*k, h.spec.independents,
                                    h.spec.dependents, m);
    EXPECT_EQ(dr.adjoint->name, "gather7_b_" + driver::to_string(m));
  }
}

TEST(Driver, AnalysisAttachedOnlyInFormadMode) {
  Harness h = indirectHarness(16, 1);
  auto k = h.parse();
  auto atomic = driver::differentiate(*k, h.spec.independents,
                                      h.spec.dependents, AdjointMode::Atomic);
  EXPECT_TRUE(atomic.analysis.regions.empty());
  auto formad = driver::differentiate(*k, h.spec.independents,
                                      h.spec.dependents, AdjointMode::FormAD);
  EXPECT_EQ(formad.analysis.regions.size(), 1u);
}

TEST(Driver, DescribeMentionsVerdicts) {
  Harness h = lbmHarness(1);
  auto k = h.parse();
  auto a = driver::analyze(*k, h.spec.independents, h.spec.dependents);
  std::string text = core::describe(a);
  EXPECT_NE(text.find("srcgrid"), std::string::npos);
  EXPECT_NE(text.find("UNSAFE"), std::string::npos);
  EXPECT_NE(text.find("dstgrid"), std::string::npos);
  EXPECT_NE(text.find("SAFE"), std::string::npos);
}

TEST(Report, TableAlignsColumns) {
  driver::Table t({"a", "long-header", "c"});
  t.addRow({"x", "1", "yyyy"});
  t.addRow({"longer", "2", "z"});
  std::string s = t.str();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
  // The separator underlines the widest cell of each column.
  EXPECT_NE(s.find("-----------"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
}

TEST(Report, NumberFormatting) {
  EXPECT_EQ(driver::fmt(1.23456, 3), "1.235");
  EXPECT_EQ(driver::fmt(2.0, 1), "2.0");
  EXPECT_EQ(driver::fmtSpeedup(13.4), "13.40x");
}

TEST(Driver, InactiveIndependentsGetNoAdjointParams) {
  // s never influences y: no sb parameter is added even though the user
  // requested it as an independent.
  auto k = parser::parseKernel(R"(
kernel f(y: real[] inout, x: real[] in, s: real[] in, i: int in) {
  y[i] = x[i] * 2.0;
}
)");
  auto dr = driver::differentiate(*k, {"x", "s"}, {"y"}, AdjointMode::Plain);
  EXPECT_TRUE(dr.adjointParams.count("x"));
  EXPECT_FALSE(dr.adjointParams.count("s"));
}

// ------------------------------------------- decision-tier reporting

// describeTiers() renders one line per region and its counts partition the
// region's query total — the invariant the scheduler's replay maintains.
TEST(Report, DescribeTiersPartitionsQueries) {
  Harness h = stencilHarness(2, 32, 3);
  auto k = h.parse();
  auto a = driver::analyze(*k, h.spec.independents, h.spec.dependents);
  ASSERT_EQ(a.regions.size(), 1u);
  const auto& r = a.regions[0];
  EXPECT_EQ(r.queries,
            r.tier0Hits + r.tier1Hits + r.tier2Checks + r.solverCacheHits);
  EXPECT_EQ(core::describeTiers(a),
            "region #0 decision tiers: " + std::to_string(r.queries) +
                " queries = " + std::to_string(r.tier0Hits) + " tier-0 + " +
                std::to_string(r.tier1Hits) + " tier-1 + " +
                std::to_string(r.tier2Checks) + " tier-2 + " +
                std::to_string(r.solverCacheHits) + " cached\n");
  // The default analysis runs the full fast path: the stencil's queries
  // must not all fall through to tier 2.
  EXPECT_GT(r.tier0Hits + r.tier1Hits, 0);
}

// The kernel-level aggregates sum the regions and partition queries().
TEST(Driver, TierAggregatesPartitionQueries) {
  Harness h = gfmcHarness(false, 1);
  auto k = h.parse();
  auto a = driver::analyze(*k, h.spec.independents, h.spec.dependents);
  EXPECT_EQ(a.queries(), a.tier0Hits() + a.tier1Hits() + a.tier2Checks() +
                             a.cacheHits());
}

// ------------------------------------------- analysis thread resolution

// The -analysis-threads convention (shared by DriverOptions and the CLI):
// 0 = auto-detect, n >= 1 = exactly n, negative = a clear error.
TEST(Driver, AnalysisThreadsZeroMeansAutoDetect) {
  EXPECT_GE(driver::resolveAnalysisThreads(0), 1);
}

TEST(Driver, AnalysisThreadsPositivePassesThrough) {
  EXPECT_EQ(driver::resolveAnalysisThreads(1), 1);
  EXPECT_EQ(driver::resolveAnalysisThreads(7), 7);
}

TEST(Driver, AnalysisThreadsNegativeIsRejectedWithClearError) {
  try {
    (void)driver::resolveAnalysisThreads(-2);
    FAIL() << "expected a formad::Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(">= 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("-2"), std::string::npos) << msg;
  }
}

// analyze() goes through the same resolution: a negative analysisThreads
// throws before any analysis work starts, and explicit counts produce the
// same verdicts as auto width.
TEST(Driver, AnalyzeOverloadHonoursThreadConvention) {
  Harness h = stencilHarness(1, 32, 3);
  auto k = h.parse();
  auto analyzeAt = [&](int threads) {
    driver::DriverOptions opts;
    opts.analysisThreads = threads;
    return driver::analyze(*k, h.spec.independents, h.spec.dependents, opts);
  };
  EXPECT_THROW((void)analyzeAt(-1), Error);
  auto one = analyzeAt(1);
  auto four = analyzeAt(4);
  auto zero = analyzeAt(0);
  EXPECT_EQ(core::describe(one, false), core::describe(four, false));
  EXPECT_EQ(core::describe(one, false), core::describe(zero, false));
}

// ------------------------------------------- serve pool sizing policy

// resolveServePool shares resolveThreadRequest's validation core, so the
// daemon and the CLI agree on what a thread request means.
TEST(Driver, ServePoolRejectsNonPositiveSessions) {
  try {
    (void)driver::resolveServePool(0, 0, false);
    FAIL() << "expected a formad::Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("sessions"), std::string::npos) << msg;
    EXPECT_NE(msg.find(">= 1"), std::string::npos) << msg;
  }
  EXPECT_THROW((void)driver::resolveServePool(-3, 0, false), Error);
}

TEST(Driver, ServePoolRejectsNegativeWorkerRequests) {
  try {
    (void)driver::resolveServePool(1, -4, false);
    FAIL() << "expected a formad::Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(">= 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("-4"), std::string::npos) << msg;
  }
}

// Auto sizing leaves headroom for the session threads: workers = hardware
// concurrency minus sessions, floored at zero (sessions then analyze
// inline at width 1, never negative).
TEST(Driver, ServePoolAutoSizesToHardwareMinusSessions) {
  const int hw = support::WorkPool::hardwareWidth();
  const auto plan = driver::resolveServePool(1, 0, false);
  EXPECT_EQ(plan.sessions, 1);
  EXPECT_EQ(plan.poolWorkers, std::max(0, hw - 1));
  EXPECT_FALSE(plan.clamped);

  // Sessions alone saturating the machine: pool floors at 0, and the plan
  // carries a warning instead of failing (session threads mostly block).
  const auto packed = driver::resolveServePool(hw + 2, 0, false);
  EXPECT_EQ(packed.poolWorkers, 0);
  EXPECT_FALSE(packed.clamped);
  EXPECT_FALSE(packed.warning.empty());
}

// An explicit worker count that oversubscribes the machine is clamped back
// to the auto size with a warning naming the override flag — unless the
// operator opts in, in which case the request is honored verbatim.
TEST(Driver, ServePoolClampsOversubscriptionUnlessOverridden) {
  const int hw = support::WorkPool::hardwareWidth();
  const int greedy = hw * 4;

  const auto clamped = driver::resolveServePool(2, greedy, false);
  EXPECT_TRUE(clamped.clamped);
  EXPECT_EQ(clamped.poolWorkers, std::max(0, hw - 2));
  EXPECT_NE(clamped.warning.find("-allow-oversubscribe"), std::string::npos)
      << clamped.warning;

  const auto allowed = driver::resolveServePool(2, greedy, true);
  EXPECT_FALSE(allowed.clamped);
  EXPECT_EQ(allowed.poolWorkers, greedy);

  // A fitting explicit request is honored as-is either way. Only possible
  // when the machine has headroom beyond the session thread (an explicit 0
  // would mean auto, per the shared convention).
  if (hw >= 2) {
    const auto fitting = driver::resolveServePool(1, hw - 1, false);
    EXPECT_FALSE(fitting.clamped);
    EXPECT_EQ(fitting.poolWorkers, hw - 1);
    EXPECT_TRUE(fitting.warning.empty()) << fitting.warning;
  }
}

// DriverOptions::analysisThreads feeds the same gate: differentiate() must
// refuse a negative count up front.
TEST(Driver, DifferentiateRejectsNegativeAnalysisThreads) {
  Harness h = stencilHarness(1, 32, 3);
  auto k = h.parse();
  driver::DriverOptions opts;
  opts.analysisThreads = -1;
  EXPECT_THROW((void)driver::differentiate(*k, h.spec.independents,
                                           h.spec.dependents, opts),
               Error);
}

// support::parseIntFlag is the single validated numeric-flag parser shared
// by formad_cli, formad_serve, the examples, and the bench mains. The
// ENTIRE string must be one in-range decimal integer; anything else throws
// an Error naming the flag, the offending text, and the expectation.
TEST(FlagParsing, AcceptsWholeInRangeIntegers) {
  EXPECT_EQ(support::parseIntFlag("-threads", "4", 0, 64, "a count"), 4);
  EXPECT_EQ(support::parseIntFlag("-pin", "-20", INT64_MIN, INT64_MAX,
                                  "an integer"),
            -20);
  EXPECT_EQ(support::parseIntFlag("-budget", "0", 0, 1000, "steps"), 0);
}

TEST(FlagParsing, RejectsTrailingGarbage) {
  EXPECT_THROW((void)support::parseIntFlag("-threads", "4x", 0, 64, "a count"),
               Error);
  EXPECT_THROW((void)support::parseIntFlag("-threads", "8x", 0, 64, "a count"),
               Error);
  EXPECT_THROW((void)support::parseIntFlag("-threads", "7 ", 0, 64, "a count"),
               Error);
  // Scientific notation and hex prefixes are not decimal integers, even
  // though strtoll would happily consume their leading digits.
  EXPECT_THROW((void)support::parseIntFlag("-budget", "1e3", 0, 10000,
                                           "steps"),
               Error);
  EXPECT_THROW((void)support::parseIntFlag("-budget", "0x10", 0, 10000,
                                           "steps"),
               Error);
}

TEST(FlagParsing, RejectsEmptyAndLeadingWhitespace) {
  EXPECT_THROW((void)support::parseIntFlag("-threads", "", 0, 64, "a count"),
               Error);
  EXPECT_THROW((void)support::parseIntFlag("-threads", "  7", 0, 64,
                                           "a count"),
               Error);
}

TEST(FlagParsing, RejectsOutOfRangeAndOverflow) {
  EXPECT_THROW((void)support::parseIntFlag("-threads", "65", 0, 64, "a count"),
               Error);
  EXPECT_THROW((void)support::parseIntFlag("-threads", "-1", 0, 64, "a count"),
               Error);
  EXPECT_THROW((void)support::parseIntFlag("-budget", "99999999999999999999",
                                           0, INT64_MAX, "steps"),
               Error);
  // Exactly one past the representable range in either direction: strtoll
  // clamps and sets ERANGE, which must surface as a rejection rather than
  // the silently saturated value — while the extremes themselves parse.
  EXPECT_THROW((void)support::parseIntFlag("-pin", "9223372036854775808",
                                           INT64_MIN, INT64_MAX, "an integer"),
               Error);
  EXPECT_THROW((void)support::parseIntFlag("-pin", "-9223372036854775809",
                                           INT64_MIN, INT64_MAX, "an integer"),
               Error);
  EXPECT_EQ(support::parseIntFlag("-pin", "9223372036854775807", INT64_MIN,
                                  INT64_MAX, "an integer"),
            INT64_MAX);
  EXPECT_EQ(support::parseIntFlag("-pin", "-9223372036854775808", INT64_MIN,
                                  INT64_MAX, "an integer"),
            INT64_MIN);
}

TEST(FlagParsing, ErrorMessageNamesFlagTextAndExpectation) {
  try {
    (void)support::parseIntFlag("-sessions", "lots", 1, 1024,
                                "a session count");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("-sessions"), std::string::npos);
    EXPECT_NE(msg.find("'lots'"), std::string::npos);
    EXPECT_NE(msg.find("a session count"), std::string::npos);
  }
}

}  // namespace
}  // namespace formad::testing
