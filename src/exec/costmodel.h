// Calibrated cost model of the paper's testbed (one 18-core socket of a
// dual Xeon E5-2695v4, Intel Fortran -O3), driven by interpreter profiles.
//
// The 18-thread points need more cores than a typical build host has, so
// the scalability figures (paper Figs. 3-10) are *simulated*: per-iteration
// operation counts are measured by the interpreter, then combined with
// per-operation costs, an atomic-contention model, bandwidth saturation
// caps, privatization (reduction) init/merge costs, and static/dynamic
// schedule simulation.
// The constants are calibrated so the serial absolute times land near the
// paper's; the parallel *shapes* (who wins, crossovers, saturation points)
// then emerge from the modeled mechanisms. See DESIGN.md, substitutions.
#pragma once

#include "exec/counts.h"

namespace formad::exec {

struct CostParams {
  // Per-operation costs on one core, seconds. Calibrated so the simulated
  // serial times of the paper's kernels land near the reported values
  // (small stencil: 2.05 s primal / 1.58 s adjoint for 1e9 point updates).
  double flop = 0.17e-9;
  double intop = 0.06e-9;
  double seqByte = 0.008e-9;   // streaming / cache-resident traffic
  double randByte = 0.17e-9;   // latency-bound gather/scatter
  double tapeByte = 0.05e-9;
  // Atomic update: base latency plus contention that grows with the
  // number of threads hammering the memory system (paper: the atomic
  // stencil adjoint is ~25x the plain one at a single thread and keeps
  // degrading as threads are added).
  double atomicOp = 13e-9;
  double atomicContention = 2.6;  // cost multiplier slope per extra thread
  // Socket-level bandwidth caps (bytes/s). Streaming traffic saturates
  // near the ~13-14x speedups the paper's stencils reach; random traffic
  // saturates much earlier (Green-Gauss peaks at 2.75x).
  double seqBandwidth = 650e9;
  double randBandwidth = 16e9;
  // Privatized-reduction overheads (calibrated on the small stencil:
  // reduction adds ~2.1 s over the plain adjoint at one thread).
  double shadowInitByte = 0.05e-9;   // zero-init, per thread (parallel)
  double shadowMergeByte = 0.08e-9;  // merge, effectively serialized x T
  // Parallel region fork/join.
  double regionOverhead = 4e-6;
  int maxCores = 18;
};

/// Cost of one iteration's operations when `threads` threads run.
[[nodiscard]] double iterationTime(const OpCounts& c, const CostParams& p,
                                   int threads);

/// Simulated wall time of one parallel-loop execution on `threads` threads.
/// With threads == 0 the loop is treated as serialized (no region overhead,
/// no contention) — used for the paper's "Adjoint Serial" version.
[[nodiscard]] double loopTime(const LoopProfile& lp, const CostParams& p,
                              int threads);

/// Simulated wall time of a whole kernel execution.
[[nodiscard]] double runTime(const RunProfile& rp, const CostParams& p,
                             int threads);

/// Simulated wall time with every loop serialized (threads ignored).
[[nodiscard]] double serialTime(const RunProfile& rp, const CostParams& p);

// ----- Residual-safeguard cost rows for the hybrid mode (DESIGN §13) -----

/// Predicted cost of one atomically guarded adjoint increment at `threads`
/// (base latency plus the contention slope of the calibrated model).
[[nodiscard]] double atomicIncrementCost(const CostParams& p, int threads);

/// Predicted per-element overhead of routing increments into a
/// thread-local accumulation buffer merged after the parallel region:
/// zero-init (parallel, per-thread traffic) plus the merge, which is
/// effectively serialized across the `threads` shadow copies.
[[nodiscard]] double shadowElementCost(const CostParams& p, int threads);

/// Picks the cheaper residual safeguard for one unproven increment site.
/// `incrementsPerElement` estimates how many guarded increments land on
/// each element of the would-be privatized array: ~1 for dense
/// counter-indexed sweeps (shadow init/merge amortizes, Reduction wins),
/// << 1 for indirect gathers over a large array (per-increment atomics
/// beat touching every element, Atomic wins).
[[nodiscard]] ir::Guard cheaperHybridGuard(const CostParams& p,
                                           double incrementsPerElement,
                                           int threads);

}  // namespace formad::exec
