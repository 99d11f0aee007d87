#include "pipeline.h"

#include <optional>

#include "analysis/activity.h"
#include "analysis/symbols.h"
#include "formad/formad.h"
#include "ir/traversal.h"
#include "parser/parser.h"
#include "support/diagnostics.h"
#include "support/pool.h"

namespace perfbench {

using namespace formad;
using driver::AdjointMode;

std::unique_ptr<ir::Kernel> parseTraced(Tracer& tracer, long long request,
                                        const std::string& source) {
  Tracer::Span span(tracer, "parser.parseKernel", request);
  return parser::parseKernel(source);
}

namespace {

/// The FormAD analysis of driver::differentiate, one span per layer call.
core::KernelAnalysis analyzeTraced(Tracer& tracer, long long request,
                                   const ir::Kernel& primal,
                                   const kernels::KernelSpec& spec,
                                   int threads) {
  std::unique_ptr<support::WorkPool> pool;
  core::ExploitOptions eopts;
  eopts.threads = threads;
  if (threads > 1) {
    pool = std::make_unique<support::WorkPool>(threads);
    eopts.pool = pool.get();
  }
  const analysis::SymbolTable syms = analysis::verifyKernel(primal);
  const analysis::Activity act = analysis::computeActivity(
      primal, syms, spec.independents, spec.dependents);
  core::KernelAnalysis out;
  ir::forEachStmt(primal.body, [&](const ir::Stmt& s) {
    if (s.kind() != ir::StmtKind::For || !s.as<ir::For>().parallel) return;
    std::optional<core::RegionModel> model;
    {
      Tracer::Span span(tracer, "formad.buildRegionModel", request);
      model.emplace(
          core::buildRegionModel(primal, s.as<ir::For>(), syms, act, {}));
    }
    Tracer::Span span(tracer, "formad.exploitRegion", request);
    out.regions.push_back(core::exploitRegion(*model, eopts));
  });
  for (const auto& r : out.regions)
    if (!r.knowledgeContradiction.empty())
      fail("refusing to differentiate '" + primal.name + "': " +
           r.knowledgeContradiction);
  return out;
}

}  // namespace

Differentiated differentiate(Tracer& tracer, long long request,
                             const ir::Kernel& primal,
                             const kernels::KernelSpec& spec, AdjointMode mode,
                             bool omitTapeFreePrimalSweep, int threads) {
  Differentiated out;
  const bool decomposable = mode == AdjointMode::FormAD ||
                            mode == AdjointMode::Atomic ||
                            mode == AdjointMode::Serial;
  if (!tracer.enabled() || !decomposable) {
    driver::DriverOptions d;
    d.mode = mode;
    d.omitTapeFreePrimalSweep = omitTapeFreePrimalSweep;
    d.analysisThreads = threads;
    driver::DifferentiateResult dr =
        driver::differentiate(primal, spec.independents, spec.dependents, d);
    out.adjoint = std::move(dr.adjoint);
    out.adjointParams = std::move(dr.adjointParams);
    out.analysis = std::move(dr.analysis);
    return out;
  }

  ad::ReverseOptions ropts;
  ropts.independents = spec.independents;
  ropts.dependents = spec.dependents;
  ropts.name = primal.name + "_b_" + driver::to_string(mode);
  ropts.omitTapeFreePrimalSweep = omitTapeFreePrimalSweep;
  if (mode == AdjointMode::Serial) {
    ropts.serialize = true;
  } else if (mode == AdjointMode::Atomic) {
    ropts.guardPolicy = [](const ir::For&, const std::string&) {
      return ir::Guard::Atomic;
    };
  } else {
    out.analysis = analyzeTraced(tracer, request, primal, spec, threads);
    ropts.guardPolicy = core::formadPolicy(out.analysis);
  }
  Tracer::Span span(tracer, "ad.buildAdjoint", request);
  ad::ReverseResult rr = ad::buildAdjoint(primal, ropts);
  out.adjoint = std::move(rr.adjoint);
  out.adjointParams = std::move(rr.adjointParams);
  return out;
}

kernels::KernelSpec gatherEditSpec(int offset) {
  const std::string off = std::to_string(offset);
  kernels::KernelSpec spec;
  spec.name = "gather_edit" + off;
  spec.source = "kernel " + spec.name +
                "(n: int in, x: real[] in, y: real[] inout) {\n"
                "  parallel for i = 0 : n - 1 : " +
                std::to_string(offset + 1) +
                " shared(y, x) {\n"
                "    y[i] += 0.5 * x[i + " + off + "];\n"
                "    y[i + " + off + "] += 0.5 * x[i];\n"
                "  }\n"
                "}\n";
  spec.independents = {"x"};
  spec.dependents = {"y"};
  return spec;
}

std::string analysisReport(const core::KernelAnalysis& analysis) {
  return core::describe(analysis, /*includeTiming=*/false) +
         core::describeTiers(analysis);
}

long long countStatements(const ir::Kernel& kernel) {
  long long n = 0;
  ir::forEachStmt(kernel.body, [&](const ir::Stmt&) { ++n; });
  return n;
}

}  // namespace perfbench
