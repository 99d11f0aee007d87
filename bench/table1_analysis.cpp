// Reproduces paper Table 1: FormAD analysis statistics per test case —
// analysis time, model size (number of assertions), number of queries
// answered by the proof system, number of unique index expressions, and
// the size of the analyzed parallel region. Also times each analysis at
// 1/2/4/8 worker threads (-analysis-threads; the statistics themselves
// are identical at every width) and writes BENCH_table1_analysis.json
// through the shared writer (bench_common.h), including the per-tier
// query counts of the fast-path deciders and, since schema v3, the same
// tier counts with the abstract interpreter on plus how many tier-2
// (full-solver) checks the injected invariants eliminated.
#include <iostream>

#include "bench_common.h"
#include "driver/driver.h"
#include "driver/report.h"
#include "kernels/gfmc.h"
#include "kernels/greengauss.h"
#include "kernels/lbm.h"
#include "kernels/stencil.h"
#include "parser/parser.h"
#include "server/protocol.h"

using namespace formad;
using server::JsonValue;

namespace {

struct Row {
  std::string problem;
  kernels::KernelSpec spec;
  // paper reference: time, size, queries, exprs, loc
  const char* paper;
};

}  // namespace

int main() {
  std::vector<Row> rows = {
      {"stencil 1", kernels::stencilSpec(1),
       "paper: 0.677s, size 5, 3 queries, 2 exprs, 3 loc"},
      {"stencil 8", kernels::stencilSpec(8),
       "paper: 1.033s, size 82, 82 queries, 9 exprs, 17 loc"},
      {"GFMC", kernels::gfmcSplitSpec(),
       "paper: 4.145s, size 65, 772 queries, 8 exprs, 54 loc"},
      {"GFMC*", kernels::gfmcFusedSpec(),
       "paper: 3.125s, size 65, 261 queries, 8 exprs, 65 loc"},
      {"LBM", kernels::lbmSpec(),
       "paper: 3.938s, size 362, 364 queries, 19 exprs, 82 loc"},
      {"GreenGauss", kernels::greenGaussSpec(),
       "paper: 0.621s, size 5, 3 queries, 2 exprs, 7 loc"},
  };

  std::cout << "\n### FormAD analysis statistics — paper Table 1\n\n";
  driver::Table table({"problem", "time [s]", "model size", "queries",
                       "queries*", "exprs", "stmts", "tier2 off>on",
                       "verdict"});
  std::vector<std::string> notes;
  JsonValue cases = JsonValue::array();
  driver::DriverOptions serial;
  serial.analysisThreads = 1;
  for (const auto& row : rows) {
    auto kernel = parser::parseKernel(row.spec.source);
    auto analysis = driver::analyze(*kernel, row.spec.independents,
                                    row.spec.dependents, serial);
    // queries*: exploitation checks only (no per-assertion consistency
    // safeguard) — the counting that matches the paper's Table 1.
    core::AnalyzeOptions noCC;
    noCC.exploit.checkKnowledgeConsistency = false;
    auto exploitOnly = core::analyzeKernel(*kernel, row.spec.independents,
                                           row.spec.dependents, noCC);
    // Same analysis with the abstract interpreter on: verdicts never
    // weaken (identical on these kernels), tier-2 (full-solver) checks
    // shift into the cheaper tiers.
    core::AnalyzeOptions withAbsint;
    withAbsint.model.absint = true;
    auto absintRun = core::analyzeKernel(*kernel, row.spec.independents,
                                         row.spec.dependents, withAbsint);

    bool allSafe = true;
    for (const auto& r : analysis.regions) allSafe = allSafe && r.allSafe();

    table.addRow({row.problem, driver::fmt(analysis.analysisSeconds(), 4),
                  std::to_string(analysis.modelAssertions()),
                  std::to_string(analysis.queries()),
                  std::to_string(exploitOnly.queries()),
                  std::to_string(analysis.uniqueExprs()),
                  std::to_string(analysis.statementsInRegions()),
                  std::to_string(analysis.tier2Checks()) + ">" +
                      std::to_string(absintRun.tier2Checks()),
                  allSafe ? "safe (no atomics)" : "REJECTED (keep guards)"});
    notes.push_back(row.problem + " — " + row.paper);

    JsonValue c = JsonValue::object();
    c.set("problem", JsonValue::str(row.problem));
    c.set("model_size", JsonValue::integer(analysis.modelAssertions()));
    c.set("queries", JsonValue::integer(analysis.queries()));
    c.set("queries_exploit_only", JsonValue::integer(exploitOnly.queries()));
    c.set("exprs", JsonValue::integer(analysis.uniqueExprs()));
    c.set("stmts", JsonValue::integer(analysis.statementsInRegions()));
    c.set("safe", JsonValue::boolean(allSafe));
    c.set("tiers", server::tierCountsJson(analysis));
    c.set("tiers_absint", server::tierCountsJson(absintRun));
    c.set("tier2_killed_by_absint",
          JsonValue::integer(analysis.tier2Checks() - absintRun.tier2Checks()));
    JsonValue byThreads = JsonValue::object();
    for (int threads : {1, 2, 4, 8}) {
      driver::DriverOptions opts;
      opts.analysisThreads = threads;
      auto timed = driver::analyze(*kernel, row.spec.independents,
                                   row.spec.dependents, opts);
      byThreads.set(std::to_string(threads),
                    JsonValue::number(timed.analysisSeconds()));
    }
    c.set("seconds_by_threads", std::move(byThreads));
    cases.push(std::move(c));
  }
  {
    JsonValue body = JsonValue::object();
    body.set("cases", std::move(cases));
    bench::writeBenchFile("table1_analysis", body);
  }
  std::cout << table.str() << "\n";
  for (const auto& n : notes) std::cout << "  " << n << "\n";
  std::cout <<
      "\nNotes: 'queries' counts every satisfiability check, including the\n"
      "paper's knowledge-consistency safeguard after each assertion;\n"
      "'queries*' counts exploitation checks only, which is how the\n"
      "paper's Table 1 counts (LBM: 364 there, matching ours).\n"
      "The 1+e^2 model-size law\n"
      "holds (5, 82, 362, 5 for stencil1/stencil8/LBM/GreenGauss with\n"
      "e = 2, 9, 19, 2), rejected kernels stop at the first unsafe pair\n"
      "per variable, and proving safety explores the full pair set.\n"
      "Our GFMC kernels are compact re-expressions of the CORAL loops, so\n"
      "their absolute statement/expression counts differ from the paper's\n"
      "Fortran original (see EXPERIMENTS.md).\n\n";

  // Detailed per-region reports.
  for (const auto& row : rows) {
    auto kernel = parser::parseKernel(row.spec.source);
    auto analysis = driver::analyze(*kernel, row.spec.independents,
                                    row.spec.dependents, serial);
    std::cout << "--- " << row.problem << "\n"
              << core::describe(analysis) << "\n";
  }
  return 0;
}
