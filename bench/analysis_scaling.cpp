// Analysis-cost scaling (paper Sec. 7.5) in three dimensions.
//
// 1. Model growth: the model has 1 + e^2 assertions for e unique write
//    expressions, and the number of queries grows accordingly. Sweeping
//    the compact-stencil radius makes e = radius + 1, so the first table
//    traces model size, query counts, and analysis time as the region
//    grows — the trend behind the paper's remark that FormAD's
//    compile-time cost is amortized over many executions.
//
// 2. Thread scaling: the exploitation queries are independent and run on
//    a work-stealing pool (-analysis-threads); verdicts are bit-identical
//    at any width, so only wall time changes. For each configuration this
//    bench reports the measured wall time at 1/2/4/8 threads AND the
//    simulated speedup from the per-task wall times (LPT list-scheduling
//    makespan over RegionVerdict::taskSeconds plus the serial
//    plan/replay fraction). The simulation is the repo's usual
//    cost-model convention for hardware-independent numbers: CI
//    containers often pin a single core, where measured wall time cannot
//    scale no matter how the queries are scheduled.
//
// 3. Fast-path tiers: the tiered deciders (smt/fastpath.h) answer most
//    disjointness queries before the full solver. The comparison section
//    runs each configuration with -fastpath off and full and reports the
//    tier-2 (full-solve) check counts and wall times side by side; the
//    verdicts and query totals are identical by construction.
//
// Writes BENCH_analysis_scaling.json through the shared writer
// (bench_common.h). `--smoke` runs a seconds-sized subset (small stencil
// only, fewer repetitions) for the CI quick-bench step.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "driver/driver.h"
#include "driver/report.h"
#include "kernels/greengauss.h"
#include "kernels/stencil.h"
#include "parser/parser.h"
#include "server/protocol.h"

using namespace formad;
using server::JsonValue;

namespace {

const int kThreads[] = {1, 2, 4, 8};

/// Longest-processing-time list-scheduling makespan of `tasks` on
/// `workers` identical workers — the standard greedy bound for
/// independent-task scheduling, matching how the pool's dynamic
/// self-scheduling behaves on tasks of uneven cost.
double lptMakespan(std::vector<double> tasks, int workers) {
  std::sort(tasks.begin(), tasks.end(), std::greater<>());
  std::vector<double> load(static_cast<size_t>(workers), 0.0);
  for (double t : tasks)
    *std::min_element(load.begin(), load.end()) += t;
  return *std::max_element(load.begin(), load.end());
}

struct ThreadScaling {
  std::string config;
  double planSeconds = 0.0;
  double taskSecondsTotal = 0.0;
  size_t tasks = 0;
  std::map<int, double> measuredWall;      // threads -> best analysisSeconds
  std::map<int, double> simulatedSpeedup;  // full phase: plan + makespan
  std::map<int, double> querySpeedup;      // query phase only: sum/makespan
};

ThreadScaling scaleConfig(const std::string& name,
                          const kernels::KernelSpec& spec, int reps) {
  ThreadScaling out;
  out.config = name;
  auto kernel = parser::parseKernel(spec.source);

  // Best-of-reps wall time per width (the usual benchmarking guard
  // against scheduler noise), and the fastest 4-thread run's per-task
  // profile for the simulation: the 4-thread run evaluates every task
  // replay reads, so those entries of taskSeconds carry a wall time; a
  // task it skipped (behind a variable's first unsafe pair) costs
  // nothing and carries 0.
  std::vector<std::vector<double>> regionTasks;
  double profileCost = 0.0;
  for (int threads : kThreads) {
    driver::DriverOptions opts;
    opts.analysisThreads = threads;
    for (int rep = 0; rep < reps; ++rep) {
      auto a = driver::analyze(*kernel, spec.independents, spec.dependents,
                               opts);
      double wall = a.analysisSeconds();
      if (!out.measuredWall.count(threads) ||
          wall < out.measuredWall[threads])
        out.measuredWall[threads] = wall;
      if (threads != 4) continue;
      double plan = 0.0, sum = 0.0;
      for (const auto& r : a.regions) {
        plan += r.planSeconds;
        for (double t : r.taskSeconds) sum += t;
      }
      if (!regionTasks.empty() && plan + sum >= profileCost) continue;
      profileCost = plan + sum;
      regionTasks.clear();
      out.planSeconds = plan;
      out.taskSecondsTotal = sum;
      out.tasks = 0;
      for (const auto& r : a.regions) {
        regionTasks.push_back(r.taskSeconds);
        out.tasks += r.taskSeconds.size();
      }
    }
  }

  const double serial = out.planSeconds + out.taskSecondsTotal;
  for (int threads : kThreads) {
    double makespan = 0.0;
    for (const auto& tasks : regionTasks)
      makespan += lptMakespan(tasks, threads);
    const double parallel = out.planSeconds + makespan;
    out.simulatedSpeedup[threads] = parallel > 0 ? serial / parallel : 1.0;
    out.querySpeedup[threads] =
        makespan > 0 ? out.taskSecondsTotal / makespan : 1.0;
  }
  return out;
}

/// One fast-path ablation point: the same analysis at -fastpath off and
/// full (identical verdicts and query totals; only the tier split and the
/// wall time move).
struct FastPathPoint {
  std::string config;
  core::KernelAnalysis off, full;
  double wallOff = 0.0, wallFull = 0.0;  // best-of-reps, single-threaded
};

FastPathPoint fastpathConfig(const std::string& name,
                             const kernels::KernelSpec& spec, int reps) {
  FastPathPoint p;
  p.config = name;
  auto kernel = parser::parseKernel(spec.source);
  auto best = [&](smt::FastPathMode mode, double& wall) {
    driver::DriverOptions opts;
    opts.analysisThreads = 1;
    opts.fastpath = mode;
    core::KernelAnalysis a;
    wall = -1;
    for (int rep = 0; rep < reps; ++rep) {
      a = driver::analyze(*kernel, spec.independents, spec.dependents, opts);
      double s = a.analysisSeconds();
      if (wall < 0 || s < wall) wall = s;
    }
    return a;
  };
  p.off = best(smt::FastPathMode::Off, p.wallOff);
  p.full = best(smt::FastPathMode::Full, p.wallFull);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const int reps = smoke ? 2 : 5;

  std::cout << "\n### Analysis scaling over stencil radius (e = radius + 1)\n\n";
  JsonValue radiusRows = JsonValue::array();
  driver::Table t({"radius", "exprs e", "model size", "1+e^2", "queries",
                   "tier-2", "time [ms]", "verdict"});
  std::vector<int> radii = smoke ? std::vector<int>{1, 2, 4}
                                 : std::vector<int>{1, 2, 4, 8, 12, 16, 24};
  driver::DriverOptions serial;
  serial.analysisThreads = 1;
  for (int radius : radii) {
    auto spec = kernels::stencilSpec(radius);
    auto kernel = parser::parseKernel(spec.source);
    auto a =
        driver::analyze(*kernel, spec.independents, spec.dependents, serial);
    bool safe = true;
    for (const auto& r : a.regions) safe = safe && r.allSafe();
    int e = a.uniqueExprs();
    t.addRow({std::to_string(radius), std::to_string(e),
              std::to_string(a.modelAssertions()),
              std::to_string(1 + e * e), std::to_string(a.queries()),
              std::to_string(a.tier2Checks()),
              driver::fmt(a.analysisSeconds() * 1e3, 2),
              safe ? "safe" : "rejected"});
    JsonValue row = JsonValue::object();
    row.set("radius", JsonValue::integer(radius));
    row.set("exprs", JsonValue::integer(e));
    row.set("model_size", JsonValue::integer(a.modelAssertions()));
    row.set("seconds", JsonValue::number(a.analysisSeconds()));
    row.set("safe", JsonValue::boolean(safe));
    row.set("tiers", server::tierCountsJson(a));
    radiusRows.push(std::move(row));
  }
  std::cout << t.str()
            << "\nModel size tracks 1+e^2 exactly; queries grow with the\n"
               "pair count; every radius stays provable and far below the\n"
               "paper's <5 s analysis budget.\n\n";

  std::cout << "### Analysis-phase thread scaling (-analysis-threads)\n\n";
  std::vector<std::pair<std::string, kernels::KernelSpec>> configs;
  if (smoke) {
    configs.emplace_back("small_stencil_r4", kernels::stencilSpec(4));
  } else {
    configs.emplace_back("large_stencil_r16", kernels::stencilSpec(16));
    configs.emplace_back("greengauss", kernels::greenGaussSpec());
  }
  std::vector<ThreadScaling> scaling;
  for (const auto& [name, spec] : configs)
    scaling.push_back(scaleConfig(name, spec, reps));

  driver::Table st({"config", "tasks", "plan [ms]", "task sum [ms]",
                    "wall@1 [ms]", "wall@4 [ms]", "phase x4", "query x4",
                    "query x8"});
  for (const auto& s : scaling)
    st.addRow({s.config, std::to_string(s.tasks),
               driver::fmt(s.planSeconds * 1e3, 2),
               driver::fmt(s.taskSecondsTotal * 1e3, 2),
               driver::fmt(s.measuredWall.at(1) * 1e3, 2),
               driver::fmt(s.measuredWall.at(4) * 1e3, 2),
               driver::fmt(s.simulatedSpeedup.at(4), 2),
               driver::fmt(s.querySpeedup.at(4), 2),
               driver::fmt(s.querySpeedup.at(8), 2)});
  std::cout
      << st.str()
      << "\nSpeedups are LPT-makespan projections from measured per-task\n"
         "wall times: 'phase' covers plan + queries + replay (Amdahl-capped\n"
         "by the serial plan/replay fraction, which dominates on tiny\n"
         "kernels like Green-Gauss), 'query' covers the parallelized query\n"
         "evaluation itself. Measured wall times reflect whatever cores\n"
         "this machine actually grants the pool.\n\n";

  std::cout << "### Fast-path tier ablation (-fastpath off vs full)\n\n";
  std::vector<FastPathPoint> fastpath;
  for (const auto& [name, spec] : configs)
    fastpath.push_back(fastpathConfig(name, spec, reps));

  driver::Table ft({"config", "queries", "tier-2 off", "tier-2 full",
                    "tier-2 cut", "wall off [ms]", "wall full [ms]",
                    "wall cut"});
  for (const auto& p : fastpath) {
    const double cut =
        static_cast<double>(p.off.tier2Checks()) /
        static_cast<double>(std::max(1LL, p.full.tier2Checks()));
    ft.addRow({p.config, std::to_string(p.off.queries()),
               std::to_string(p.off.tier2Checks()),
               std::to_string(p.full.tier2Checks()),
               driver::fmt(cut, 1) + "x",
               driver::fmt(p.wallOff * 1e3, 2),
               driver::fmt(p.wallFull * 1e3, 2),
               driver::fmtSpeedup(p.wallFull > 0 ? p.wallOff / p.wallFull
                                                 : 1.0)});
  }
  std::cout << ft.str()
            << "\nBoth columns answer the same queries with identical\n"
               "verdicts; 'tier-2' counts the checks that reached the full\n"
               "solver. The tiered deciders retire the bulk of them\n"
               "syntactically or with GCD/stride/interval arithmetic.\n\n";

  JsonValue scalingRows = JsonValue::array();
  for (const auto& s : scaling) {
    JsonValue row = JsonValue::object();
    row.set("config", JsonValue::str(s.config));
    row.set("tasks", JsonValue::integer(static_cast<long long>(s.tasks)));
    row.set("plan_seconds", JsonValue::number(s.planSeconds));
    row.set("task_seconds_total", JsonValue::number(s.taskSecondsTotal));
    JsonValue wall = JsonValue::object(), sim = JsonValue::object(),
              q = JsonValue::object();
    for (int th : kThreads) {
      wall.set(std::to_string(th), JsonValue::number(s.measuredWall.at(th)));
      sim.set(std::to_string(th), JsonValue::number(s.simulatedSpeedup.at(th)));
      q.set(std::to_string(th), JsonValue::number(s.querySpeedup.at(th)));
    }
    row.set("measured_wall_seconds", std::move(wall));
    row.set("simulated_speedup", std::move(sim));
    row.set("simulated_query_speedup", std::move(q));
    scalingRows.push(std::move(row));
  }

  JsonValue fastpathRows = JsonValue::array();
  for (const auto& p : fastpath) {
    JsonValue row = JsonValue::object();
    row.set("config", JsonValue::str(p.config));
    row.set("off", JsonValue::object()
                       .set("tiers", server::tierCountsJson(p.off))
                       .set("wall_seconds", JsonValue::number(p.wallOff)));
    row.set("full", JsonValue::object()
                        .set("tiers", server::tierCountsJson(p.full))
                        .set("wall_seconds", JsonValue::number(p.wallFull)));
    row.set("tier2_reduction",
            JsonValue::number(
                static_cast<double>(p.off.tier2Checks()) /
                static_cast<double>(std::max(1LL, p.full.tier2Checks()))));
    fastpathRows.push(std::move(row));
  }

  JsonValue body = JsonValue::object();
  body.set("smoke", JsonValue::boolean(smoke));
  body.set("radius_sweep", std::move(radiusRows));
  body.set("thread_scaling", std::move(scalingRows));
  body.set("fastpath_comparison", std::move(fastpathRows));
  bench::writeBenchFile("analysis_scaling", body);

  for (const auto& s : scaling)
    if (s.querySpeedup.at(4) < 2.0)
      std::cout << "NOTE: " << s.config
                << " simulated 4-thread query speedup below 2x ("
                << s.querySpeedup.at(4) << ")\n";
  for (const auto& p : fastpath)
    if (p.off.tier2Checks() < 5 * std::max(1LL, p.full.tier2Checks()))
      std::cout << "NOTE: " << p.config << " tier-2 reduction below 5x (off "
                << p.off.tier2Checks() << " vs full " << p.full.tier2Checks()
                << ")\n";
  return 0;
}
