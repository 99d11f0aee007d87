// The parse -> differentiate pipeline a library user runs, with one span
// per public-layer call when tracing is on.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "bench.h"
#include "driver/driver.h"
#include "kernels/spec.h"

namespace perfbench {

struct Differentiated {
  std::unique_ptr<formad::ir::Kernel> adjoint;
  std::map<std::string, std::string> adjointParams;
  formad::core::KernelAnalysis analysis;
};

/// Parses `spec.source` under a "parser.parseKernel" span.
[[nodiscard]] std::unique_ptr<formad::ir::Kernel> parseTraced(
    Tracer& tracer, long long request, const std::string& source);

/// Differentiates `primal` in `mode` with `threads` analysis workers.
///
/// Untraced, this is one driver::differentiate call. Traced, it performs
/// the same steps through the layers' own entry points so each gets a
/// span: core::buildRegionModel and core::exploitRegion per parallel loop
/// (sharing one worker pool, as the driver does), then ad::buildAdjoint
/// under core::formadPolicy. Both paths yield identical adjoints and
/// analyses; the workloads check that against their references.
[[nodiscard]] Differentiated differentiate(
    Tracer& tracer, long long request, const formad::ir::Kernel& primal,
    const formad::kernels::KernelSpec& spec, formad::driver::AdjointMode mode,
    bool omitTapeFreePrimalSweep, int threads);

/// The edit family both analysis workloads draw from: a two-point compact
/// stencil at distance `offset` (stride offset+1; iteration i gathers
/// x[i + offset] into y[i] and x[i] into y[i + offset]). Every offset is
/// new content for the verdict store, because the offset does not cancel
/// out of the question pairs, and FormAD proves every variable SAFE.
[[nodiscard]] formad::kernels::KernelSpec gatherEditSpec(int offset);

/// The analysis report the oracles compare: describe() without timing plus
/// the tier breakdown, a pure function of the verdicts (byte-identical at
/// any thread count, session count or store temperature).
[[nodiscard]] std::string analysisReport(
    const formad::core::KernelAnalysis& analysis);

/// Number of statements in a kernel body, nested bodies included.
[[nodiscard]] long long countStatements(const formad::ir::Kernel& kernel);

}  // namespace perfbench
