// native_adjoint: the primal, the FormAD adjoint and the atomic adjoint of
// four figure kernels (stencil r1, stencil r8, GFMC split, Green-Gauss),
// emitted by the C backend, compiled by codegen::NativeKernel and run at
// nproc OpenMP threads. Analysis, code generation, `cc` and the executor
// reference runs are set-up; the timed loop runs generated code only.
//
// Each round resets every kernel's writable inputs from a pristine copy,
// then times one application of each version (plus the FormAD adjoint at
// one thread, for the scaling ratio) and checks its outputs: primals
// against an exec::Executor run of the primal, both adjoints against an
// Executor run of the serial adjoint, within 1e-12 relative.
#include <omp.h>

#include <cmath>
#include <functional>
#include <map>
#include <thread>

#include "codegen/cgen.h"
#include "codegen/native.h"
#include "kernels/gfmc.h"
#include "kernels/greengauss.h"
#include "kernels/stencil.h"
#include "pipeline.h"
#include "support/diagnostics.h"
#include "workloads.h"

namespace perfbench {

using namespace formad;
using driver::AdjointMode;

namespace {

constexpr double kTolerance = 1e-12;

struct KernelCase {
  const char* name;
  kernels::KernelSpec spec;
  std::function<void(exec::Inputs&, kernels::Rng&)> bind;
};

/// Input sizes put each FormAD adjoint near half a millisecond on four
/// cores, so no kernel dominates the round.
std::vector<KernelCase> cases() {
  kernels::GfmcConfig gfmc;
  gfmc.nw = 1024;
  kernels::GreenGaussConfig gg;
  gg.nodes = 500'000;
  return {
      {"stencil_r1", kernels::stencilSpec(1),
       [](exec::Inputs& io, kernels::Rng& rng) {
         kernels::bindStencil(io, 1, 500'000, rng);
       }},
      {"stencil_r8", kernels::stencilSpec(8),
       [](exec::Inputs& io, kernels::Rng& rng) {
         kernels::bindStencil(io, 8, 125'000, rng);
       }},
      {"gfmc_split", kernels::gfmcSplitSpec(),
       [gfmc](exec::Inputs& io, kernels::Rng& rng) {
         kernels::bindGfmc(io, gfmc, rng);
       }},
      {"greengauss", kernels::greenGaussSpec(),
       [gg](exec::Inputs& io, kernels::Rng& rng) {
         kernels::bindGreenGauss(io, gg, rng);
       }},
  };
}

enum Variant { kPrimal, kFormad, kAtomic, kVariants };
const char* const kVariantNames[kVariants] = {"primal", "formad", "atomic"};

/// One compiled program version and the Executor outputs it must match.
struct Program {
  std::unique_ptr<ir::Kernel> kernel;
  std::unique_ptr<codegen::NativeKernel> native;
  const exec::Inputs* reference = nullptr;
};

/// One kernel's three program versions. They share one set of inputs: the
/// primal's plus the adjoint arrays, which the primal ignores.
struct Prepared {
  const char* name = nullptr;
  exec::Inputs pristine;
  exec::Inputs refPrimal, refAdjoint;  // Executor outputs
  exec::Inputs work;
  /// Parameters some version may write: what a run must restore.
  std::map<std::string, ir::Param> writable;
  Program programs[kVariants];
};

/// Resets the writable parameters of `work` from `pristine`, reusing array
/// storage. Read-only parameters are bound once and never touched again.
void restore(const Prepared& prep, exec::Inputs& work) {
  for (const auto& [name, p] : prep.writable) {
    if (!prep.pristine.has(name)) continue;
    if (!p.type.isArray()) {
      if (p.type.isInt())
        work.bindInt(name, prep.pristine.intVal(name));
      else
        work.bindReal(name, prep.pristine.real(name));
    } else if (p.type.isReal()) {
      work.array(name).realData() = prep.pristine.array(name).realData();
    } else {
      work.array(name).intData() = prep.pristine.array(name).intData();
    }
  }
}

/// Compares every real array `kernel` may write; returns the first
/// mismatch or "".
std::string compareOutputs(const ir::Kernel& kernel, const exec::Inputs& got,
                           const exec::Inputs& want) {
  for (const auto& p : kernel.params) {
    if (!p.type.isArray() || !p.type.isReal() || p.intent == ir::Intent::In ||
        !want.has(p.name))
      continue;
    const auto& a = got.array(p.name).realData();
    const auto& b = want.array(p.name).realData();
    if (a.size() != b.size()) return p.name + ": size mismatch";
    size_t bad = a.size();
    for (size_t i = 0; i < a.size(); ++i) {
      const double scale =
          std::max(1.0, std::max(std::fabs(a[i]), std::fabs(b[i])));
      if (!(std::fabs(a[i] - b[i]) <= kTolerance * scale)) {
        bad = i;
        break;
      }
    }
    if (bad != a.size())
      return p.name + "[" + std::to_string(bad) + "] = " + fmt(a[bad]) +
             ", reference " + fmt(b[bad]);
  }
  return {};
}

void bindAdjointArrays(const ir::Kernel& primal,
                       const std::map<std::string, std::string>& adjParams,
                       exec::Inputs& io, kernels::Rng& rng) {
  for (const auto& [p, pb] : adjParams) {
    const ir::Param* param = nullptr;
    for (const auto& q : primal.params)
      if (q.name == p) param = &q;
    if (param == nullptr || !param->type.isArray()) {
      io.bindReal(pb, 1.0);
      continue;
    }
    const exec::ArrayValue& a = io.array(p);
    std::vector<long long> dims;
    for (int k = 0; k < a.rank(); ++k) dims.push_back(a.dim(k));
    kernels::fillUniform(io.bindArray(pb, exec::ArrayValue::reals(dims)), rng,
                         -1.0, 1.0);
  }
}

struct SetupCounts {
  long long adjointStmts = 0;
  long long cBytes = 0;
};

/// Restores the inputs of one program version, runs it once at `threads`
/// OpenMP threads under a span, and checks its outputs. Returns seconds.
double runChecked(Tracer& tracer, long long request, Prepared& prep,
                  Variant v, int threads, Result& result,
                  std::vector<double>* doneAt = nullptr, double start = 0) {
  Program& prog = prep.programs[v];
  restore(prep, prep.work);
  omp_set_num_threads(threads);
  const double t0 = nowSeconds();
  {
    Tracer::Span span(tracer, "codegen.NativeKernel.run", request);
    prog.native->run(prep.work);
  }
  const double t1 = nowSeconds();
  if (doneAt != nullptr) doneAt->push_back(t1 - start);
  const double s = t1 - t0;
  ++result.attempted;
  const std::string err =
      compareOutputs(*prog.kernel, prep.work, *prog.reference);
  if (!err.empty())
    result.fail(std::string(prep.name) + " " + kVariantNames[v] + " at " +
                std::to_string(threads) + " thread(s): " + err);
  return s;
}

/// Builds, compiles and references every kernel, then runs each compiled
/// version once (untimed) so the timed loop starts with warm memory.
std::vector<std::unique_ptr<Prepared>> setUp(Tracer& tracer,
                                             std::uint64_t seed,
                                             int analysisThreads, int nproc,
                                             SetupCounts& counts,
                                             Result& result) {
  counts = SetupCounts{};
  std::vector<std::unique_ptr<Prepared>> out;
  long long request = 0;
  for (const KernelCase& kc : cases()) {
    ++request;
    auto prep = std::make_unique<Prepared>();
    prep->name = kc.name;
    auto primal = parseTraced(tracer, request, kc.spec.source);
    Differentiated formadAdj =
        differentiate(tracer, request, *primal, kc.spec, AdjointMode::FormAD,
                      true, analysisThreads);
    Differentiated atomicAdj =
        differentiate(tracer, request, *primal, kc.spec, AdjointMode::Atomic,
                      true, analysisThreads);
    Differentiated serialAdj =
        differentiate(tracer, request, *primal, kc.spec, AdjointMode::Serial,
                      true, analysisThreads);
    counts.adjointStmts += countStatements(*formadAdj.adjoint);

    kernels::Rng rng(seed * 1000003 + static_cast<std::uint64_t>(request));
    kc.bind(prep->pristine, rng);
    bindAdjointArrays(*primal, formadAdj.adjointParams, prep->pristine, rng);
    prep->work = prep->pristine;

    // Executor references: the primal and the serial adjoint.
    prep->refPrimal = prep->pristine;
    prep->refAdjoint = prep->pristine;
    {
      exec::Executor ex(*primal);
      Tracer::Span span(tracer, "exec.Executor.run", request);
      (void)ex.run(prep->refPrimal);
    }
    {
      exec::Executor ex(*serialAdj.adjoint);
      Tracer::Span span(tracer, "exec.Executor.run", request);
      (void)ex.run(prep->refAdjoint);
    }

    Program& pp = prep->programs[kPrimal];
    pp.kernel = std::move(primal);
    pp.reference = &prep->refPrimal;
    prep->programs[kFormad].kernel = std::move(formadAdj.adjoint);
    prep->programs[kAtomic].kernel = std::move(atomicAdj.adjoint);
    for (const Variant v : {kFormad, kAtomic})
      prep->programs[v].reference = &prep->refAdjoint;
    for (Program& prog : prep->programs) {
      for (const auto& p : prog.kernel->params)
        if (p.intent != ir::Intent::In) prep->writable.emplace(p.name, p);
      {
        Tracer::Span span(tracer, "codegen.emitC", request);
        counts.cBytes +=
            static_cast<long long>(codegen::emitC(*prog.kernel).size());
      }
      Tracer::Span span(tracer, "codegen.NativeKernel", request);
      prog.native = std::make_unique<codegen::NativeKernel>(*prog.kernel);
    }
    for (const Variant v : {kPrimal, kFormad, kAtomic})
      (void)runChecked(tracer, request, *prep, v, nproc, result);
    out.push_back(std::move(prep));
  }
  return out;
}

}  // namespace

void runNativeAdjoint(const Options& opts, Result& result) {
  const int nproc = std::max(1u, std::thread::hardware_concurrency());
  const int analysisThreads = driver::resolveAnalysisThreads(0);
  Tracer tracer(opts.trace);
  Tracer untraced(false);

  std::vector<double> setupSeconds;
  std::vector<std::unique_ptr<Prepared>> prepared;
  SetupCounts counts;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    prepared.clear();
    const double t0 = nowSeconds();
    prepared =
        setUp(tracer, opts.seed, analysisThreads, nproc, counts, result);
    setupSeconds.push_back(nowSeconds() - t0);
  }
  result.counters = {{"ad.adjoint_stmts", counts.adjointStmts},
                     {"codegen.c_bytes", counts.cBytes}};

  const size_t nk = prepared.size();
  // seconds[kernel][variant]; index kVariants holds FormAD at one thread.
  std::vector<std::vector<std::vector<double>>> seconds(
      nk, std::vector<std::vector<double>>(kVariants + 1));
  std::vector<double> roundMs, doneAt;
  double passSeconds[2] = {0, 0};
  int passes[2] = {0, 0};

  long long request = 0;
  const double start = nowSeconds();
  const double end = start + opts.seconds;
  const int minRounds = opts.trace ? 2 : 1;
  for (int round = 0; round < minRounds || nowSeconds() < end; ++round) {
    const int traced = opts.trace ? round % 2 : 0;
    Tracer& t = traced ? tracer : untraced;
    const double r0 = nowSeconds();
    double formadRound = 0;
    for (size_t k = 0; k < nk; ++k) {
      Prepared& prep = *prepared[k];
      ++request;
      Tracer::Span root(t, "native_adjoint.kernel", request);
      for (const Variant v : {kPrimal, kFormad, kAtomic}) {
        const double s =
            runChecked(t, request, prep, v, nproc, result, &doneAt, start);
        seconds[k][v].push_back(s);
        if (v == kFormad) formadRound += s;
      }
      seconds[k][kVariants].push_back(
          runChecked(t, request, prep, kFormad, 1, result, &doneAt, start));
    }
    roundMs.push_back(formadRound * 1e3);
    passSeconds[traced] += nowSeconds() - r0;
    ++passes[traced];
  }
  const double window = nowSeconds() - start;
  omp_set_num_threads(nproc);

  if (!opts.trace) {
    result.add("setup_s", median(setupSeconds), "s",
               "median of " + std::to_string(kSetupReps) + " set-ups");
    addLatencyMetrics(result, roundMs, doneAt, window);
    result.add("peak_rss_mb", peakRssMb(), "MiB");
    return;
  }

  finishTrace(opts, tracer, result);
  const std::map<std::string, double>& self = result.selfSeconds;
  auto perSetup = [&](const char* span) {
    const auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second / kSetupReps;
  };
  result.add("ad.adjoint_stmts", static_cast<double>(counts.adjointStmts),
             "count", "FormAD adjoints of the four kernels");
  result.add("codegen.c_bytes", static_cast<double>(counts.cBytes), "bytes",
             "all twelve compiled programs");
  result.add("codegen.emit_s", perSetup("codegen.emitC"), "s", "per set-up");
  result.add("codegen.cc_s", perSetup("codegen.NativeKernel"), "s",
             "per set-up");
  result.add("exec.reference_s", perSetup("exec.Executor.run"), "s",
             "per set-up");
  double adjoint = 0, guarded = 0, logRatio = 0;
  for (size_t k = 0; k < nk; ++k) {
    const std::string prefix = std::string("native.") + prepared[k]->name;
    const double primal = median(seconds[k][kPrimal]);
    const double formad = median(seconds[k][kFormad]);
    const double atomic = median(seconds[k][kAtomic]);
    const double serialFormad = median(seconds[k][kVariants]);
    result.add(prefix + ".primal_s", primal, "s", "median");
    result.add(prefix + ".formad_s", formad, "s", "median");
    result.add(prefix + ".atomic_s", atomic, "s", "median");
    result.add(prefix + ".formad_scaling", serialFormad / formad, "ratio",
               "1 thread over " + std::to_string(nproc));
    adjoint += formad;
    guarded += atomic;
    logRatio += std::log(formad / primal);
  }
  result.add("native.adjoint_s", adjoint, "s", "sum of FormAD medians");
  result.add("native.guarded_adjoint_s", guarded, "s",
             "sum of atomic medians");
  result.add("native.adjoint_over_primal",
             std::exp(logRatio / static_cast<double>(nk)), "ratio",
             "geometric mean");
  const double meanUntraced = passSeconds[0] / passes[0];
  const double meanTraced = passSeconds[1] / passes[1];
  result.add("trace.overhead_pct", (meanTraced / meanUntraced - 1) * 100, "%",
             "traced vs untraced rounds");
}

}  // namespace perfbench
