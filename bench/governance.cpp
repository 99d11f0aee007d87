// Resource governance: verdict quality vs. solver step budget.
//
// FormAD's step budget (-solver-budget) caps every solver check at a
// deterministic number of internal steps; checks that run out degrade the
// affected variable to an atomic adjoint instead of hanging or aborting.
// This bench sweeps the budget from starvation to unlimited on the repo's
// benchmark kernels and reports, per point,
//   - how many variables stay provably safe (shared adjoint access),
//   - how many pairs degraded (kept atomic purely by governance),
//   - how many checks hit the budget, and the analysis wall time,
// making the quality/effort trade-off a table instead of folklore. It also
// re-runs one starved configuration at 1 and 4 analysis threads and checks
// that every verdict-affecting counter matches exactly — the determinism
// contract budgets are designed around (steps are counted, never timed).
//
// Writes BENCH_governance.json through the shared writer (bench_common.h).
// `--smoke` runs a seconds-sized subset for the CI quick-bench step.
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "driver/driver.h"
#include "driver/report.h"
#include "exec/costmodel.h"
#include "kernels/gfmc.h"
#include "kernels/greengauss.h"
#include "kernels/lbm.h"
#include "kernels/stencil.h"
#include "parser/parser.h"

using namespace formad;
using server::JsonValue;

namespace {

struct SweepPoint {
  long long budget = 0;  // 0 = unlimited
  long long safeVars = 0, unsafeVars = 0;
  long long degradedPairs = 0, exhaustedChecks = 0;
  double seconds = 0.0;
};

long long safeCount(const core::KernelAnalysis& a) {
  long long n = 0;
  for (const auto& r : a.regions)
    for (const auto& v : r.vars) n += v.safe ? 1 : 0;
  return n;
}

long long varCount(const core::KernelAnalysis& a) {
  long long n = 0;
  for (const auto& r : a.regions) n += static_cast<long long>(r.vars.size());
  return n;
}

SweepPoint runPoint(const ir::Kernel& kernel, const kernels::KernelSpec& spec,
                    long long budget, int threads = 1) {
  driver::DriverOptions opts;
  opts.analysisThreads = threads;
  // The tiered fast paths (smt/fastpath.h) answer most benchmark queries
  // without a single counted solver step, which would make every budget
  // point identical. Sweeping with the fast path off measures what the
  // budget actually governs: the full decision procedures.
  opts.checks.fastpath = smt::FastPathMode::Off;
  opts.checks.stepBudget = budget;
  auto a = driver::analyze(kernel, spec.independents, spec.dependents, opts);
  SweepPoint p;
  p.budget = budget;
  p.safeVars = safeCount(a);
  p.unsafeVars = varCount(a) - p.safeVars;
  p.degradedPairs = a.degradedPairs();
  p.exhaustedChecks = a.budgetExhaustedChecks();
  p.seconds = a.analysisSeconds();
  return p;
}

// ----- Hybrid safeguard ablation ------------------------------------------

struct AblationConfig {
  std::string name;
  kernels::KernelSpec spec;
  std::function<void(exec::Inputs&)> bind;
};

/// Binds zero-ish adjoint seed arrays for every adjoint parameter (their
/// contents do not affect operation counts).
void bindAdjointSeeds(exec::Inputs& io,
                      const std::map<std::string, std::string>& adjParams) {
  for (const auto& [p, pb] : adjParams) {
    const exec::ArrayValue& a = io.array(p);
    std::vector<long long> dims;
    for (int k = 0; k < a.rank(); ++k) dims.push_back(a.dim(k));
    exec::ArrayValue& b = io.bindArray(pb, exec::ArrayValue::reals(dims));
    b.fill(1e-3);
  }
}

/// Profiles one application of `adjoint` and returns its simulated wall
/// time on `threads` threads (0 = fully serialized baseline).
double simulatedAdjointSeconds(
    const ir::Kernel& adjoint,
    const std::map<std::string, std::string>& adjParams,
    const std::function<void(exec::Inputs&)>& bind,
    const exec::CostParams& costs, int threads) {
  exec::Executor ex(adjoint);
  exec::Inputs io;
  bind(io);
  bindAdjointSeeds(io, adjParams);
  exec::ExecStats st =
      ex.run(io, exec::ExecOptions{exec::ExecMode::Profile, 1});
  return threads == 0 ? exec::serialTime(st.profile, costs)
                      : exec::runTime(st.profile, costs, threads);
}

struct GuardMix {
  long long shared = 0, atomic = 0, localAccumulate = 0;
};

GuardMix guardMixOf(const std::vector<ad::LoopGuardReport>& reports) {
  GuardMix m;
  for (const auto& rep : reports)
    for (const auto& d : rep.siteDecisions) {
      if (d.guard == ir::Guard::None) ++m.shared;
      else if (d.guard == ir::Guard::Atomic) ++m.atomic;
      else ++m.localAccumulate;
    }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";

  std::vector<std::pair<std::string, kernels::KernelSpec>> configs;
  configs.emplace_back("small_stencil_r2", kernels::stencilSpec(2));
  if (!smoke) {
    configs.emplace_back("large_stencil_r8", kernels::stencilSpec(8));
    configs.emplace_back("lbm", kernels::lbmSpec());
    configs.emplace_back("gfmc_split", kernels::gfmcSplitSpec());
  }
  configs.emplace_back("greengauss", kernels::greenGaussSpec());

  // 0 terminates each sweep = unlimited (the reference verdict).
  std::vector<long long> budgets =
      smoke ? std::vector<long long>{1, 16, 256, 0}
            : std::vector<long long>{1, 4, 16, 64, 256, 1024, 4096, 0};

  JsonValue sweepRows = JsonValue::array();
  bool monotone = true;
  for (const auto& [name, spec] : configs) {
    auto kernel = parser::parseKernel(spec.source);
    std::cout << "\n### " << name << ": verdict quality vs. step budget\n\n";
    driver::Table t({"budget", "safe vars", "atomic vars", "degraded pairs",
                     "exhausted checks", "time [ms]"});
    long long prevSafe = -1;
    bool prevUnlimited = false;
    for (long long budget : budgets) {
      SweepPoint p = runPoint(*kernel, spec, budget);
      t.addRow({budget == 0 ? "unlimited" : std::to_string(budget),
                std::to_string(p.safeVars), std::to_string(p.unsafeVars),
                std::to_string(p.degradedPairs),
                std::to_string(p.exhaustedChecks),
                driver::fmt(p.seconds * 1e3, 2)});
      // Bigger budgets can only recover verdicts, never lose them.
      if (prevSafe >= 0 && !prevUnlimited && p.safeVars < prevSafe)
        monotone = false;
      prevSafe = p.safeVars;
      prevUnlimited = budget == 0;
      JsonValue row = JsonValue::object();
      row.set("config", JsonValue::str(name));
      row.set("budget", JsonValue::integer(p.budget));
      row.set("unlimited", JsonValue::boolean(p.budget == 0));
      row.set("safe_vars", JsonValue::integer(p.safeVars));
      row.set("atomic_vars", JsonValue::integer(p.unsafeVars));
      row.set("degraded_pairs", JsonValue::integer(p.degradedPairs));
      row.set("exhausted_checks", JsonValue::integer(p.exhaustedChecks));
      row.set("seconds", JsonValue::number(p.seconds));
      sweepRows.push(std::move(row));
    }
    std::cout << t.str();
  }
  std::cout << "\nEvery budget point is a sound analysis: degraded pairs\n"
               "fall back to atomic adjoints, so the generated code is\n"
               "correct at any budget — only its scalability recovers as\n"
               "the budget grows toward the unlimited reference verdict.\n";

  // Determinism spot check: a starved run must produce identical
  // verdict-affecting counters at any thread count (steps, not seconds).
  std::cout << "\n### Budgeted-verdict determinism across thread counts\n\n";
  JsonValue determinism = JsonValue::array();
  bool deterministic = true;
  {
    const auto& [name, spec] = configs.front();
    auto kernel = parser::parseKernel(spec.source);
    const long long starved = 16;
    SweepPoint t1 = runPoint(*kernel, spec, starved, /*threads=*/1);
    SweepPoint t4 = runPoint(*kernel, spec, starved, /*threads=*/4);
    deterministic = t1.safeVars == t4.safeVars &&
                    t1.degradedPairs == t4.degradedPairs &&
                    t1.exhaustedChecks == t4.exhaustedChecks;
    std::cout << name << " @ budget " << starved << ": threads 1 vs 4 -> "
              << (deterministic ? "identical counters\n"
                                : "MISMATCH (determinism bug)\n");
    for (const SweepPoint* p : {&t1, &t4}) {
      JsonValue row = JsonValue::object();
      row.set("config", JsonValue::str(name));
      row.set("budget", JsonValue::integer(starved));
      row.set("threads", JsonValue::integer(p == &t1 ? 1 : 4));
      row.set("safe_vars", JsonValue::integer(p->safeVars));
      row.set("degraded_pairs", JsonValue::integer(p->degradedPairs));
      row.set("exhausted_checks", JsonValue::integer(p->exhaustedChecks));
      determinism.push(std::move(row));
    }
  }

  // Hybrid safeguard ablation: how much parallel speedup each safeguard
  // recovers as the solver budget shrinks. The whole-variable row is the
  // classic degradation (every increment of an unproven variable atomic);
  // the hybrid row consumes the per-site verdict map, keeps proven sites
  // plainly shared, and picks atomic vs. thread-local accumulation for the
  // residue with the cost model. Speedups are simulated on the calibrated
  // 18-core model from measured operation counts, so the rows are exact
  // and deterministic.
  std::cout << "\n### Hybrid safeguard: recovered speedup vs. step budget\n\n";
  const exec::CostParams costs;
  std::vector<AblationConfig> hybridConfigs;
  {
    AblationConfig st;
    st.name = "small_stencil_r2";
    st.spec = kernels::stencilSpec(2);
    st.bind = [](exec::Inputs& io) {
      kernels::Rng rng(2022);
      kernels::bindStencil(io, 2, 100'000, rng);
    };
    hybridConfigs.push_back(std::move(st));
    AblationConfig gf;
    gf.name = "gfmc_split";
    gf.spec = kernels::gfmcSplitSpec();
    gf.bind = [](exec::Inputs& io) {
      kernels::GfmcConfig cfg;
      cfg.ns = 48;
      cfg.nw = 256;
      cfg.npair = 48;
      cfg.nk = 8;
      kernels::Rng rng(2022);
      kernels::bindGfmc(io, cfg, rng);
    };
    hybridConfigs.push_back(std::move(gf));
  }
  const std::vector<long long> hybridBudgets =
      smoke ? std::vector<long long>{1, 0}
            : std::vector<long long>{1, 4, 16, 64, 0};
  JsonValue hybridRows = JsonValue::array();
  bool hybridRecovers = true;   // strictly more than whole-var when starved
  bool hybridDominates = true;  // never less at any budget
  for (const auto& cfg : hybridConfigs) {
    auto kernel = parser::parseKernel(cfg.spec.source);
    auto serialRes =
        driver::differentiate(*kernel, cfg.spec.independents,
                              cfg.spec.dependents, driver::AdjointMode::Serial,
                              /*omitTapeFreePrimalSweep=*/true);
    const double serialBase = simulatedAdjointSeconds(
        *serialRes.adjoint, serialRes.adjointParams, cfg.bind, costs, 0);

    std::cout << cfg.name << " (adjoint speedup vs. serial adjoint, "
              << costs.maxCores << "T simulated):\n";
    driver::Table t({"budget", "whole-var atomic", "hybrid", "shared sites",
                     "atomic sites", "local-accum sites"});
    for (long long budget : hybridBudgets) {
      driver::DriverOptions d;
      d.analysisThreads = 1;
      d.checks.fastpath = smt::FastPathMode::Off;
      d.checks.stepBudget = budget;
      d.omitTapeFreePrimalSweep = true;

      d.mode = driver::AdjointMode::FormAD;
      auto wholeRes = driver::differentiate(*kernel, cfg.spec.independents,
                                            cfg.spec.dependents, d);
      d.mode = driver::AdjointMode::Hybrid;
      auto hybridRes = driver::differentiate(*kernel, cfg.spec.independents,
                                             cfg.spec.dependents, d);

      const double wholeSpeedup =
          serialBase / simulatedAdjointSeconds(*wholeRes.adjoint,
                                               wholeRes.adjointParams,
                                               cfg.bind, costs, costs.maxCores);
      const double hybridSpeedup =
          serialBase /
          simulatedAdjointSeconds(*hybridRes.adjoint, hybridRes.adjointParams,
                                  cfg.bind, costs, costs.maxCores);
      const GuardMix mix = guardMixOf(hybridRes.loopReports);

      t.addRow({budget == 0 ? "unlimited" : std::to_string(budget),
                driver::fmtSpeedup(wholeSpeedup),
                driver::fmtSpeedup(hybridSpeedup),
                std::to_string(mix.shared), std::to_string(mix.atomic),
                std::to_string(mix.localAccumulate)});
      // The starved points are where site granularity must pay off: the
      // acceptance bar is *strictly* more recovered speedup than the
      // whole-variable fallback. At unlimited budget both modes emit the
      // same ungated adjoint, so only >= is required there.
      if (budget == 1 && hybridSpeedup <= wholeSpeedup) hybridRecovers = false;
      if (hybridSpeedup < wholeSpeedup - 1e-12) hybridDominates = false;

      JsonValue row = JsonValue::object();
      row.set("config", JsonValue::str(cfg.name));
      row.set("budget", JsonValue::integer(budget));
      row.set("unlimited", JsonValue::boolean(budget == 0));
      row.set("whole_var_atomic_speedup", JsonValue::number(wholeSpeedup));
      row.set("hybrid_speedup", JsonValue::number(hybridSpeedup));
      row.set("hybrid_shared_sites", JsonValue::integer(mix.shared));
      row.set("hybrid_atomic_sites", JsonValue::integer(mix.atomic));
      row.set("hybrid_local_accumulate_sites",
              JsonValue::integer(mix.localAccumulate));
      hybridRows.push(std::move(row));
    }
    std::cout << t.str() << "\n";
  }

  // The hybrid report (per-site verdict lines included) must be
  // byte-identical at any analysis thread count, like every other report.
  bool hybridReportDeterministic = true;
  {
    const auto& cfg = hybridConfigs.front();
    auto kernel = parser::parseKernel(cfg.spec.source);
    driver::DriverOptions d;
    d.mode = driver::AdjointMode::Hybrid;
    d.checks.fastpath = smt::FastPathMode::Off;
    d.checks.stepBudget = 1;
    std::string reference;
    for (int threads : {1, 2, 4, 8}) {
      d.analysisThreads = threads;
      auto a = driver::analyze(*kernel, cfg.spec.independents,
                               cfg.spec.dependents, d);
      std::string report = core::describe(a, /*includeTiming=*/false);
      if (reference.empty()) reference = report;
      else if (report != reference) hybridReportDeterministic = false;
    }
    std::cout << cfg.name
              << " hybrid report @ 1/2/4/8 analysis threads: "
              << (hybridReportDeterministic ? "byte-identical\n"
                                            : "MISMATCH (determinism bug)\n");
  }

  JsonValue body = JsonValue::object();
  body.set("smoke", JsonValue::boolean(smoke));
  body.set("budget_sweep", std::move(sweepRows));
  body.set("safe_vars_monotone_in_budget", JsonValue::boolean(monotone));
  body.set("budgeted_verdicts_thread_deterministic",
           JsonValue::boolean(deterministic));
  body.set("determinism_check", std::move(determinism));
  body.set("hybrid_ablation", std::move(hybridRows));
  body.set("hybrid_recovers_more_than_whole_var_atomic",
           JsonValue::boolean(hybridRecovers));
  body.set("hybrid_never_below_whole_var", JsonValue::boolean(hybridDominates));
  body.set("hybrid_report_thread_deterministic",
           JsonValue::boolean(hybridReportDeterministic));
  bench::writeBenchFile("governance", body);

  if (!monotone)
    std::cout << "NOTE: safe-variable count dropped as the budget grew\n";
  if (!deterministic)
    std::cout << "NOTE: budgeted verdicts differed across thread counts\n";
  if (!hybridRecovers)
    std::cout << "NOTE: hybrid failed to beat whole-variable atomic when "
                 "starved\n";
  if (!hybridReportDeterministic)
    std::cout << "NOTE: hybrid reports differed across analysis threads\n";
  return monotone && deterministic && hybridRecovers && hybridDominates &&
                 hybridReportDeterministic
             ? 0
             : 1;
}
