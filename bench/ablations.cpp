// Ablation studies for the design choices called out in DESIGN.md:
//   A1  increment detection off (Sec. 5.4): increment targets become
//       overwrites and self-reads become adjoint increments — more pairs,
//       and possibly lost proofs.
//   A2  activity pruning off (Sec. 5.4): every real array is questioned.
//   A3  knowledge-consistency safeguard off (Sec. 5.5): fewer queries.
//   A4  dimension rule off: only flattened-offset proofs remain; per-column
//       accesses of multi-dimensional arrays become unprovable.
//   F1  fast path off: every check reaches the full solver (tier 2) —
//       identical verdicts and query counts, pure speed ablation.
//   F2  fast path syntactic-only: tier-0 deciders without the tier-1
//       arithmetic (GCD/stride/interval) tests.
//   AI1 abstract interpretation on: interval/congruence invariants feed
//       the knowledge base and the t1-absint/t1-hnf deciders — verdicts
//       can only improve (never weaken); tier-2 checks shift to tier 1.
//   AI2 absint on with the fast path off: isolates what the injected
//       invariants do to full-solver work alone.
// Writes BENCH_ablations.json through the shared writer (bench_common.h).
#include <iostream>

#include "bench_common.h"
#include "driver/report.h"
#include "formad/formad.h"
#include "kernels/gfmc.h"
#include "kernels/greengauss.h"
#include "kernels/lbm.h"
#include "kernels/stencil.h"
#include "parser/parser.h"
#include "server/protocol.h"

using namespace formad;
using server::JsonValue;

namespace {

struct Case {
  std::string name;
  kernels::KernelSpec spec;
};

struct Variant {
  std::string name;
  core::AnalyzeOptions opts;
};

std::string summarize(const core::KernelAnalysis& a) {
  int safe = 0, unsafe = 0;
  for (const auto& r : a.regions)
    for (const auto& v : r.vars) (v.safe ? safe : unsafe)++;
  return std::to_string(safe) + " safe / " + std::to_string(unsafe) +
         " unsafe, " + std::to_string(a.queries()) + " queries, model " +
         std::to_string(a.modelAssertions());
}

}  // namespace

int main() {
  std::vector<Case> cases = {
      {"stencil1", kernels::stencilSpec(1)},
      {"stencil8", kernels::stencilSpec(8)},
      {"gfmc", kernels::gfmcSplitSpec()},
      {"gfmc*", kernels::gfmcFusedSpec()},
      {"lbm", kernels::lbmSpec()},
      {"greengauss", kernels::greenGaussSpec()},
  };

  std::vector<Variant> variants;
  variants.push_back({"baseline", {}});
  {
    core::AnalyzeOptions o;
    o.model.incrementDetection = false;
    variants.push_back({"A1 no-increment-detection", o});
  }
  {
    core::AnalyzeOptions o;
    o.model.activityPruning = false;
    variants.push_back({"A2 no-activity-pruning", o});
  }
  {
    core::AnalyzeOptions o;
    o.exploit.checkKnowledgeConsistency = false;
    variants.push_back({"A3 no-consistency-checks", o});
  }
  {
    core::AnalyzeOptions o;
    o.exploit.useDimensionRule = false;
    variants.push_back({"A4 no-dimension-rule", o});
  }
  {
    core::AnalyzeOptions o;
    o.exploit.checks.fastpath = smt::FastPathMode::Off;
    variants.push_back({"F1 fastpath-off", o});
  }
  {
    core::AnalyzeOptions o;
    o.exploit.checks.fastpath = smt::FastPathMode::Syntactic;
    variants.push_back({"F2 fastpath-syntactic", o});
  }
  {
    core::AnalyzeOptions o;
    o.model.absint = true;
    variants.push_back({"AI1 absint-on", o});
  }
  {
    core::AnalyzeOptions o;
    o.model.absint = true;
    o.exploit.checks.fastpath = smt::FastPathMode::Off;
    variants.push_back({"AI2 absint-no-fastpath", o});
  }

  std::cout << "\n### FormAD ablations (verdicts and query counts)\n\n";
  driver::Table table({"kernel", "variant", "result", "tier-2"});
  JsonValue rows = JsonValue::array();
  for (const auto& c : cases) {
    auto kernel = parser::parseKernel(c.spec.source);
    for (const auto& v : variants) {
      auto a = core::analyzeKernel(*kernel, c.spec.independents,
                                   c.spec.dependents, v.opts);
      table.addRow({c.name, v.name, summarize(a),
                    std::to_string(a.tier2Checks())});
      int safe = 0, unsafe = 0;
      for (const auto& r : a.regions)
        for (const auto& var : r.vars) (var.safe ? safe : unsafe)++;
      JsonValue row = JsonValue::object();
      row.set("kernel", JsonValue::str(c.name));
      row.set("variant", JsonValue::str(v.name));
      row.set("safe_vars", JsonValue::integer(safe));
      row.set("unsafe_vars", JsonValue::integer(unsafe));
      row.set("model_size", JsonValue::integer(a.modelAssertions()));
      row.set("tiers", server::tierCountsJson(a));
      rows.push(std::move(row));
    }
  }
  {
    JsonValue body = JsonValue::object();
    body.set("rows", std::move(rows));
    bench::writeBenchFile("ablations", body);
  }
  std::cout << table.str();
  std::cout <<
      "\nReadings:\n"
      "  A1: without increment detection the compact stencils lose their\n"
      "      read-only adjoint of unew (extra pairs), though knowledge\n"
      "      still proves them; pair counts rise everywhere.\n"
      "  A2: without activity pruning, inactive arrays are questioned too;\n"
      "      the stencils' (inactive) weight arrays are then flagged unsafe\n"
      "      — activity analysis is what keeps them out of the adjoint.\n"
      "  A3: dropping the paper's assert(check()==SAT) safeguard removes\n"
      "      one query per knowledge assertion (compare the totals), at\n"
      "      the price of not detecting racy primals.\n"
      "  A4: without the per-dimension rule, only exact-match offset\n"
      "      proofs survive; GFMC's spin-flip accesses (disjoint in the\n"
      "      walker dimension) become unprovable.\n"
      "  F1/F2: identical verdicts and query counts to baseline — the\n"
      "      fast path is exact; the tier-2 column shows how many checks\n"
      "      still reach the full solver under each mode.\n"
      "  AI1: verdicts match baseline on every paper kernel (the sound\n"
      "      invariants can only improve verdicts, never weaken them);\n"
      "      the invariants grow the model slightly (stride loops) and\n"
      "      the t1-absint/t1-hnf deciders drain the tier-2 column to 0\n"
      "      full-solver checks on all six kernels.\n"
      "  AI2: with the fast path off every check still reaches the\n"
      "      solver, so this row isolates the invariants' effect on\n"
      "      solver work alone.\n\n";
  return 0;
}
