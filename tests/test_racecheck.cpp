// Tests for the static primal race checker (racecheck/) and its dynamic
// cross-validation oracle (exec::ExecOptions::logRaces).
//
// The matrix mirrors the PR's acceptance criteria: every paper kernel is
// statically proven race-free (with pins/colorings where the paper's own
// correctness argument needs them), every deliberately-racy mutant is
// flagged Racy with a concrete witness, and on every kernel the dynamic
// oracle's verdict on a concrete binding agrees with the static one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "driver/driver.h"
#include "exec/interp.h"
#include "kernels/data.h"
#include "kernels/gfmc.h"
#include "kernels/greengauss.h"
#include "kernels/indirect.h"
#include "kernels/lbm.h"
#include "kernels/mutants.h"
#include "kernels/stencil.h"
#include "parser/parser.h"
#include "racecheck/racecheck.h"
#include "support/diagnostics.h"

namespace formad::racecheck {
namespace {

RaceReport check(const kernels::KernelSpec& spec,
                 const RaceCheckOptions& opts = {}) {
  auto k = parser::parseKernel(spec.source);
  return checkKernelRaces(*k, opts);
}

/// Structural sanity of a Racy report: at least one witness, and every
/// witness names two *different* iterations with concrete index values
/// (scalar witnesses carry no indices — every pair collides).
void expectRacyWithWitness(const RaceReport& report) {
  ASSERT_EQ(report.overall(), RaceVerdict::Racy) << report.describe();
  bool sawWitness = false;
  for (const auto& region : report.regions) {
    for (const auto& w : region.witnesses) {
      sawWitness = true;
      EXPECT_NE(w.iterA, w.iterB) << report.describe();
      if (!w.scalar) {
        EXPECT_FALSE(w.indices.empty()) << report.describe();
      }
      EXPECT_FALSE(w.array.empty());
    }
  }
  EXPECT_TRUE(sawWitness) << report.describe();
}

/// Runs the kernel under the dynamic race oracle with the given binder.
template <typename Bind>
exec::RaceLog oracle(const kernels::KernelSpec& spec, Bind&& bind) {
  auto k = parser::parseKernel(spec.source);
  exec::Executor ex(*k);
  exec::Inputs io;
  kernels::Rng rng(42);
  bind(io, rng);
  exec::ExecOptions opts;
  opts.logRaces = true;
  return ex.run(io, opts).raceLog;
}

// ------------------------------------------------ paper kernels: race-free

TEST(RaceCheckStatic, CompactStencilIsRaceFree) {
  auto report = check(kernels::stencilSpec(1));
  EXPECT_EQ(report.overall(), RaceVerdict::RaceFree) << report.describe();
  ASSERT_EQ(report.regions.size(), 1u);
  EXPECT_EQ(report.regions[0].pairsChecked, 7);
  EXPECT_EQ(report.regions[0].pairsProven, 7);
  EXPECT_EQ(report.regions[0].pairsAssumed, 0);
}

TEST(RaceCheckStatic, WideStencilIsRaceFree) {
  auto report = check(kernels::stencilSpec(8));
  EXPECT_EQ(report.overall(), RaceVerdict::RaceFree) << report.describe();
  ASSERT_EQ(report.regions.size(), 1u);
  EXPECT_EQ(report.regions[0].pairsChecked, report.regions[0].pairsProven);
}

TEST(RaceCheckStatic, GfmcSplitIsRaceFree) {
  auto report = check(kernels::gfmcSplitSpec());
  EXPECT_EQ(report.overall(), RaceVerdict::RaceFree) << report.describe();
  EXPECT_EQ(report.regions.size(), 2u);
}

TEST(RaceCheckStatic, GfmcFusedIsRaceFree) {
  auto report = check(kernels::gfmcFusedSpec());
  EXPECT_EQ(report.overall(), RaceVerdict::RaceFree) << report.describe();
}

TEST(RaceCheckStatic, LbmIsRaceFreeWithPinnedFieldOffsets) {
  // The 19 per-direction field offsets and n_cell_entries are symbolic int
  // params; pinned to the paper's layout the displaced-write indices
  // linearize and all 190 pairs are proven disjoint.
  RaceCheckOptions opts;
  opts.paramValues = kernels::lbmPinnedParams();
  auto report = check(kernels::lbmSpec(), opts);
  EXPECT_EQ(report.overall(), RaceVerdict::RaceFree) << report.describe();
  ASSERT_EQ(report.regions.size(), 1u);
  EXPECT_EQ(report.regions[0].pairsChecked, 190);
  EXPECT_EQ(report.regions[0].pairsProven, 190);
}

TEST(RaceCheckStatic, LbmWithoutPinsIsUnknownNotRacy) {
  // Unpinned, the n_cell_entries*cell products are nonlinear; the checker
  // must degrade to Unknown (a data-dependent index is not a proof of a
  // race).
  auto report = check(kernels::lbmSpec());
  EXPECT_EQ(report.overall(), RaceVerdict::Unknown) << report.describe();
  for (const auto& region : report.regions)
    EXPECT_TRUE(region.witnesses.empty());
}

TEST(RaceCheckStatic, GreenGaussNeedsTheColoringFact) {
  // The edge->node gather is safe only because the mesh is edge-colored;
  // without that promise the verdict is Unknown, with it the pairs are
  // discharged as *assumed* (not proven).
  auto plain = check(kernels::greenGaussSpec());
  EXPECT_EQ(plain.overall(), RaceVerdict::Unknown) << plain.describe();

  RaceCheckOptions opts;
  opts.colorings.insert("edge2nodes");
  auto colored = check(kernels::greenGaussSpec(), opts);
  EXPECT_EQ(colored.overall(), RaceVerdict::RaceFree) << colored.describe();
  ASSERT_EQ(colored.regions.size(), 1u);
  EXPECT_EQ(colored.regions[0].pairsAssumed, 7);
  EXPECT_EQ(colored.regions[0].pairsProven, 0);
}

TEST(RaceCheckStatic, IndirectGatherNeedsTheColoringFact) {
  auto plain = check(kernels::indirectSpec());
  EXPECT_EQ(plain.overall(), RaceVerdict::Unknown) << plain.describe();

  RaceCheckOptions opts;
  opts.colorings.insert("c");
  auto colored = check(kernels::indirectSpec(), opts);
  EXPECT_EQ(colored.overall(), RaceVerdict::RaceFree) << colored.describe();
}

// ------------------------------------------------ mutants: proven racy

TEST(RaceCheckStatic, StencilRacyMutantHasAdjacentIterationWitness) {
  auto report = check(kernels::stencilRacySpec());
  expectRacyWithWitness(report);
  // The mutant writes unew[i+1] on top of the next iteration's unew[i]:
  // some witness must pin two adjacent iterations to the same element.
  bool adjacent = false;
  for (const auto& region : report.regions)
    for (const auto& w : region.witnesses)
      if (w.array == "unew" && std::llabs(w.iterA - w.iterB) == 1)
        adjacent = true;
  EXPECT_TRUE(adjacent) << report.describe();
}

TEST(RaceCheckStatic, StrideStencilRacyMutantIsRacy) {
  // The stride-2 loop writing one stride behind collides across the
  // lattice: the witness iterations must differ by the stride.
  auto report = check(kernels::stencilStrideRacySpec());
  expectRacyWithWitness(report);
  bool strideApart = false;
  for (const auto& region : report.regions)
    for (const auto& w : region.witnesses)
      if (std::llabs(w.iterA - w.iterB) == 2) strideApart = true;
  EXPECT_TRUE(strideApart) << report.describe();
}

TEST(RaceCheckStatic, LbmRacyMutantNeedsPinsToProduceTheWitness) {
  // Unpinned the offsets are symbolic and the verdict stays Unknown...
  auto unpinned = check(kernels::lbmRacySpec());
  EXPECT_EQ(unpinned.overall(), RaceVerdict::Unknown) << unpinned.describe();

  // ...pinned, the displaced own-cell/neighbor-cell write pair collides.
  RaceCheckOptions opts;
  opts.paramValues = {{"n_cell_entries", 20}, {"c", 0}, {"margin", 2}};
  auto report = check(kernels::lbmRacySpec(), opts);
  expectRacyWithWitness(report);
}

TEST(RaceCheckStatic, GatherRacyMutantReportsBothConflictKinds) {
  auto report = check(kernels::gatherRacySpec());
  expectRacyWithWitness(report);
  // y[0] is written on every iteration and read on every iteration: both a
  // write/write and a read/write witness must be found, and the
  // data-dependent c(i) gather pairs must stay undecided, not Racy.
  bool ww = false, rw = false;
  ASSERT_EQ(report.regions.size(), 1u);
  for (const auto& w : report.regions[0].witnesses) {
    if (w.bothWrites) ww = true;
    else rw = true;
  }
  EXPECT_TRUE(ww) << report.describe();
  EXPECT_TRUE(rw) << report.describe();
  EXPECT_FALSE(report.regions[0].undecided.empty());
}

TEST(RaceCheckStatic, SharedScalarSumIsTriviallyRacy) {
  auto report = check(kernels::sumRacySpec());
  expectRacyWithWitness(report);
  ASSERT_EQ(report.regions.size(), 1u);
  ASSERT_FALSE(report.regions[0].witnesses.empty());
  EXPECT_TRUE(report.regions[0].witnesses[0].scalar);
  // No solver involvement: the shared-scalar rule fires structurally.
  EXPECT_EQ(report.regions[0].queries, 0);
}

// ------------------------------------------------ witness rendering

TEST(RaceCheckStatic, WitnessRenderNamesLocationsAndIterations) {
  auto report = check(kernels::stencilRacySpec());
  ASSERT_EQ(report.overall(), RaceVerdict::Racy);
  ASSERT_FALSE(report.regions.empty());
  ASSERT_FALSE(report.regions[0].witnesses.empty());
  const auto& w = report.regions[0].witnesses[0];
  std::string s = w.render();
  EXPECT_NE(s.find(w.array), std::string::npos) << s;
  EXPECT_NE(s.find(std::to_string(w.iterA)), std::string::npos) << s;
  EXPECT_NE(s.find(std::to_string(w.iterB)), std::string::npos) << s;
  std::string full = report.describe();
  EXPECT_NE(full.find("racy"), std::string::npos) << full;
}

// ------------------------------------------------ dynamic oracle agreement

TEST(RaceOracle, CleanOnTheRaceFreeKernels) {
  auto stencil = oracle(kernels::stencilSpec(1),
                        [](exec::Inputs& io, kernels::Rng& rng) {
                          kernels::bindStencil(io, 1, 64, rng);
                        });
  EXPECT_FALSE(stencil.any()) << stencil.describe();

  auto gg = oracle(kernels::greenGaussSpec(),
                   [](exec::Inputs& io, kernels::Rng& rng) {
                     kernels::GreenGaussConfig cfg;
                     cfg.nodes = 200;
                     kernels::bindGreenGauss(io, cfg, rng);
                   });
  EXPECT_FALSE(gg.any()) << gg.describe();

  kernels::GfmcConfig gcfg;
  gcfg.ns = 8;
  gcfg.nw = 16;
  gcfg.npair = 6;
  gcfg.nk = 4;
  auto gfmc = oracle(kernels::gfmcSplitSpec(),
                     [&](exec::Inputs& io, kernels::Rng& rng) {
                       kernels::bindGfmc(io, gcfg, rng);
                     });
  EXPECT_FALSE(gfmc.any()) << gfmc.describe();

  kernels::LbmLayout layout;
  layout.nx = 8;
  layout.ny = 8;
  layout.nz = 4;
  auto lbm = oracle(kernels::lbmSpec(layout),
                    [&](exec::Inputs& io, kernels::Rng& rng) {
                      kernels::bindLbm(io, layout, rng);
                    });
  EXPECT_FALSE(lbm.any()) << lbm.describe();
}

TEST(RaceOracle, ObservesEveryMutantRace) {
  struct Case {
    kernels::KernelSpec spec;
    std::function<void(exec::Inputs&, kernels::Rng&)> bind;
  };
  std::vector<Case> cases;
  cases.push_back({kernels::stencilRacySpec(),
                   [](exec::Inputs& io, kernels::Rng& rng) {
                     kernels::bindStencilRacy(io, 32, rng);
                   }});
  cases.push_back({kernels::stencilStrideRacySpec(),
                   [](exec::Inputs& io, kernels::Rng& rng) {
                     kernels::bindStencilStrideRacy(io, 33, rng);
                   }});
  cases.push_back({kernels::lbmRacySpec(),
                   [](exec::Inputs& io, kernels::Rng& rng) {
                     kernels::bindLbmRacy(io, 16, rng);
                   }});
  cases.push_back({kernels::gatherRacySpec(),
                   [](exec::Inputs& io, kernels::Rng& rng) {
                     kernels::bindGatherRacy(io, 32, rng);
                   }});
  cases.push_back({kernels::sumRacySpec(),
                   [](exec::Inputs& io, kernels::Rng& rng) {
                     kernels::bindSumRacy(io, 32, rng);
                   }});
  for (auto& c : cases) {
    auto log = oracle(c.spec, c.bind);
    EXPECT_TRUE(log.any()) << c.spec.name << " produced no runtime events";
    for (const auto& e : log.events)
      EXPECT_NE(e.iterA, e.iterB) << c.spec.name;
  }
}

TEST(RaceOracle, ScalarSumConflictIsTaggedScalar) {
  auto log = oracle(kernels::sumRacySpec(),
                    [](exec::Inputs& io, kernels::Rng& rng) {
                      kernels::bindSumRacy(io, 8, rng);
                    });
  ASSERT_TRUE(log.any());
  bool scalar = false;
  for (const auto& e : log.events)
    if (e.scalar && e.var == "s") scalar = true;
  EXPECT_TRUE(scalar) << log.describe();
}

TEST(RaceOracle, CatchesABrokenColoringTheStaticCheckerCannot) {
  // Statically the correct Green-Gauss kernel is Unknown with or without a
  // trustworthy coloring — the coloring is an *assumption*. Binding a
  // deliberately conflicting coloring is caught only at runtime, which is
  // the oracle's reason to exist.
  auto log = oracle(kernels::greenGaussSpec(),
                    [](exec::Inputs& io, kernels::Rng& rng) {
                      kernels::bindGreenGaussBroken(io, 64, rng);
                    });
  EXPECT_TRUE(log.any());
  bool onGrad = false;
  for (const auto& e : log.events)
    if (e.var == "grad") onGrad = true;
  EXPECT_TRUE(onGrad) << log.describe();
}

TEST(RaceOracle, EventCapIsCountedNotSilent) {
  // 512 iterations all colliding on unew produce far more than the 64-event
  // cap; the overflow must surface as a count, not vanish.
  auto log = oracle(kernels::stencilRacySpec(),
                    [](exec::Inputs& io, kernels::Rng& rng) {
                      kernels::bindStencilRacy(io, 512, rng);
                    });
  ASSERT_TRUE(log.any());
  EXPECT_EQ(log.events.size(), 64u) << "cap should be filled exactly";
  EXPECT_GT(log.dropped, 0);
  // describe() must surface the exact overflow count, not just a vague
  // truncation marker.
  const std::string text = log.describe();
  const std::string tail =
      "... and " + std::to_string(log.dropped) + " more conflicts\n";
  EXPECT_NE(text.find(tail), std::string::npos) << text;
}

TEST(RaceOracle, DroppedCountsEveryEventBeyondTheCapExactly) {
  // A shifted-write loop with a conflict count known in closed form:
  // iteration i writes a[i] and a[i + 1], so iterations i-1 and i collide
  // on exactly the n-2 interior elements — one write-write event each,
  // nothing else. That makes the cap accounting checkable to the event:
  // with C conflicts the log must hold min(C, 64) events and report
  // dropped == max(0, C - 64), not an approximation.
  auto conflicts = [](long long n) {
    kernels::KernelSpec spec;
    spec.name = "race_cap";
    spec.source = R"(
kernel race_cap(n: int in, x: real[] in, a: real[] out) {
  parallel for i = 0 : n - 2 {
    a[i] = x[i];
    a[i + 1] = x[i] + 1.0;
  }
}
)";
    return oracle(spec, [n](exec::Inputs& io, kernels::Rng& rng) {
      io.bindInt("n", n);
      auto& x = io.bindArray("x", exec::ArrayValue::reals({n}));
      kernels::fillUniform(x, rng, 0.0, 1.0);
      io.bindArray("a", exec::ArrayValue::reals({n}));
    });
  };

  // 98 conflicts: the cap fills exactly and the other 34 are all counted.
  exec::RaceLog over = conflicts(100);
  EXPECT_EQ(over.events.size(), 64u);
  EXPECT_EQ(over.dropped, 34);

  // 64 conflicts land exactly on the cap: nothing may be dropped.
  exec::RaceLog atCap = conflicts(66);
  EXPECT_EQ(atCap.events.size(), 64u);
  EXPECT_EQ(atCap.dropped, 0);

  // One past the cap drops exactly one.
  exec::RaceLog justOver = conflicts(67);
  EXPECT_EQ(justOver.events.size(), 64u);
  EXPECT_EQ(justOver.dropped, 1);
}

// ------------------------------------------------ driver pre-flight gate

TEST(RaceCheckDriver, RefusesToDifferentiateARacyPrimal) {
  auto spec = kernels::stencilRacySpec();
  auto k = parser::parseKernel(spec.source);
  driver::DriverOptions opts;
  opts.mode = driver::AdjointMode::Atomic;
  opts.racecheckPrimal = true;
  try {
    (void)driver::differentiate(*k, spec.independents, spec.dependents, opts);
    FAIL() << "expected the race gate to throw";
  } catch (const Error& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("data race"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unew"), std::string::npos) << msg;
  }
}

TEST(RaceCheckDriver, InconclusiveCheckDegradesToAWarning) {
  auto spec = kernels::greenGaussSpec();
  auto k = parser::parseKernel(spec.source);
  driver::DriverOptions opts;
  opts.mode = driver::AdjointMode::Atomic;
  opts.racecheckPrimal = true;  // no coloring fact -> Unknown
  auto dr = driver::differentiate(*k, spec.independents, spec.dependents, opts);
  ASSERT_NE(dr.adjoint, nullptr);
  EXPECT_EQ(dr.raceReport.overall(), RaceVerdict::Unknown);
  ASSERT_FALSE(dr.warnings.empty());
  EXPECT_NE(dr.warnings[0].find("inconclusive"), std::string::npos);
}

TEST(RaceCheckDriver, RaceFreePrimalPassesTheGateSilently) {
  auto spec = kernels::stencilSpec(1);
  auto k = parser::parseKernel(spec.source);
  driver::DriverOptions opts;
  opts.mode = driver::AdjointMode::FormAD;
  opts.racecheckPrimal = true;
  auto dr = driver::differentiate(*k, spec.independents, spec.dependents, opts);
  ASSERT_NE(dr.adjoint, nullptr);
  EXPECT_EQ(dr.raceReport.overall(), RaceVerdict::RaceFree);
  EXPECT_TRUE(dr.warnings.empty());
}

TEST(RaceCheckDriver, ColoringFactForwardsThroughDriverOptions) {
  auto spec = kernels::greenGaussSpec();
  auto k = parser::parseKernel(spec.source);
  driver::DriverOptions opts;
  opts.mode = driver::AdjointMode::Atomic;
  opts.racecheckPrimal = true;
  opts.colorings.insert("edge2nodes");
  auto dr = driver::differentiate(*k, spec.independents, spec.dependents, opts);
  ASSERT_NE(dr.adjoint, nullptr);
  EXPECT_EQ(dr.raceReport.overall(), RaceVerdict::RaceFree);
  EXPECT_TRUE(dr.warnings.empty());
}

// ------------------------------------------------ static/dynamic agreement

TEST(RaceCheckAgreement, StaticAndDynamicVerdictsAgreeEverywhere) {
  // RaceFree statically -> the oracle must be clean on a correct binding;
  // Racy statically -> the oracle must observe events. (Unknown statically
  // is checked in the individual tests above: greengauss is clean with the
  // correct coloring, racy with the broken one.)
  struct Case {
    kernels::KernelSpec spec;
    RaceCheckOptions opts;
    std::function<void(exec::Inputs&, kernels::Rng&)> bind;
    bool racy;
  };
  RaceCheckOptions lbmPins;
  lbmPins.paramValues = kernels::lbmPinnedParams();
  kernels::LbmLayout small{8, 8, 4, 20};

  std::vector<Case> cases;
  cases.push_back({kernels::stencilSpec(2), {},
                   [](exec::Inputs& io, kernels::Rng& rng) {
                     kernels::bindStencil(io, 2, 48, rng);
                   },
                   false});
  cases.push_back({kernels::lbmSpec(small), lbmPins,
                   [&](exec::Inputs& io, kernels::Rng& rng) {
                     kernels::bindLbm(io, small, rng);
                   },
                   false});
  cases.push_back({kernels::stencilRacySpec(), {},
                   [](exec::Inputs& io, kernels::Rng& rng) {
                     kernels::bindStencilRacy(io, 24, rng);
                   },
                   true});
  cases.push_back({kernels::sumRacySpec(), {},
                   [](exec::Inputs& io, kernels::Rng& rng) {
                     kernels::bindSumRacy(io, 24, rng);
                   },
                   true});

  for (auto& c : cases) {
    auto staticReport = check(c.spec, c.opts);
    auto log = oracle(c.spec, c.bind);
    if (c.racy) {
      EXPECT_EQ(staticReport.overall(), RaceVerdict::Racy) << c.spec.name;
      EXPECT_TRUE(log.any()) << c.spec.name;
    } else {
      EXPECT_EQ(staticReport.overall(), RaceVerdict::RaceFree)
          << c.spec.name << "\n" << staticReport.describe();
      EXPECT_FALSE(log.any()) << c.spec.name << "\n" << log.describe();
    }
  }
}

}  // namespace
}  // namespace formad::racecheck
