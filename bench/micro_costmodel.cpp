// Wall-clock micro-benchmarks (google-benchmark) that anchor the cost
// model and document the real performance of the library's own machinery
// on this host: interpreter throughput, atomic increments, tape traffic,
// SMT solver checks, and end-to-end analysis/differentiation latency.
#include <benchmark/benchmark.h>

#include <atomic>

#include "ad/tape.h"
#include "driver/driver.h"
#include "exec/interp.h"
#include "kernels/gfmc.h"
#include "kernels/lbm.h"
#include "kernels/stencil.h"
#include "parser/parser.h"
#include "smt/solver.h"

namespace {

using namespace formad;

void BM_ParseStencilKernel(benchmark::State& state) {
  auto spec = kernels::stencilSpec(8);
  for (auto _ : state) {
    auto k = parser::parseKernel(spec.source);
    benchmark::DoNotOptimize(k);
  }
}
BENCHMARK(BM_ParseStencilKernel);

void BM_InterpreterStencilSweep(benchmark::State& state) {
  auto spec = kernels::stencilSpec(1);
  auto kernel = parser::parseKernel(spec.source);
  exec::Executor ex(*kernel);
  exec::Inputs io;
  kernels::Rng rng(1);
  const long long n = state.range(0);
  kernels::bindStencil(io, 1, n, rng);
  for (auto _ : state) {
    (void)ex.run(io);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_InterpreterStencilSweep)->Arg(10000)->Arg(100000);

void BM_AtomicRefFetchAdd(benchmark::State& state) {
  std::vector<double> data(1024, 0.0);
  size_t i = 0;
  for (auto _ : state) {
    std::atomic_ref<double>(data[i & 1023]).fetch_add(1.0);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AtomicRefFetchAdd);

void BM_PlainIncrement(benchmark::State& state) {
  std::vector<double> data(1024, 0.0);
  size_t i = 0;
  for (auto _ : state) {
    data[i & 1023] += 1.0;
    benchmark::DoNotOptimize(data[i & 1023]);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlainIncrement);

void BM_TapePushPop(benchmark::State& state) {
  ad::TapeLane lane;
  for (auto _ : state) {
    lane.pushReal(1.0);
    benchmark::DoNotOptimize(lane.popReal());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TapePushPop);

void BM_SolverStencilQuery(benchmark::State& state) {
  using namespace formad::smt;
  AtomTable atoms;
  AtomId i = atoms.internVar("i", 0, false);
  AtomId ip = atoms.internVar("i", 0, true);
  Solver solver(atoms);
  LinExpr I = LinExpr::atom(i), Ip = LinExpr::atom(ip);
  LinExpr one{Rational(1)};
  solver.add(Constraint::ne(Ip, I));
  solver.add(Constraint::ne(Ip, I - one));
  solver.add(Constraint::ne(Ip - one, I));
  solver.add(Constraint::ne(Ip - one, I - one));
  for (auto _ : state) {
    solver.push();
    solver.add(Constraint::eq(Ip - one, I));
    benchmark::DoNotOptimize(solver.check());
    solver.pop();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SolverStencilQuery);

void BM_AnalyzeKernel(benchmark::State& state) {
  auto spec = state.range(0) == 0 ? kernels::stencilSpec(8)
                                  : kernels::lbmSpec();
  auto kernel = parser::parseKernel(spec.source);
  driver::DriverOptions serial;
  serial.analysisThreads = 1;
  for (auto _ : state) {
    auto a =
        driver::analyze(*kernel, spec.independents, spec.dependents, serial);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_AnalyzeKernel)->Arg(0)->Arg(1);

void BM_DifferentiateGfmc(benchmark::State& state) {
  auto spec = kernels::gfmcSplitSpec();
  auto kernel = parser::parseKernel(spec.source);
  for (auto _ : state) {
    auto dr = driver::differentiate(*kernel, spec.independents,
                                    spec.dependents,
                                    driver::AdjointMode::FormAD);
    benchmark::DoNotOptimize(dr);
  }
}
BENCHMARK(BM_DifferentiateGfmc);

}  // namespace

BENCHMARK_MAIN();
