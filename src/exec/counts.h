// Operation-count profiles collected by the interpreter's Profile mode.
//
// The cost-model simulator (costmodel.h) consumes these to predict wall
// times on the paper's 18-core testbed, whose thread counts exceed a
// typical build host's cores, so scalability figures are *simulated* from
// measured operation mixes — see DESIGN.md, substitution table.
#pragma once

#include <string>
#include <vector>

#include "ir/stmt.h"

namespace formad::exec {

/// Operation counts of a code region (one loop iteration, or all serial
/// code of a kernel execution).
struct OpCounts {
  double flops = 0;        // real arithmetic + intrinsic calls
  double intops = 0;       // integer arithmetic
  double seqBytes = 0;     // array traffic with affine (streaming) indices
  double randBytes = 0;    // array traffic through data-dependent indices
  double atomicOps = 0;    // guarded adjoint increments
  double tapeBytes = 0;    // push/pop traffic

  OpCounts& operator+=(const OpCounts& o) {
    flops += o.flops;
    intops += o.intops;
    seqBytes += o.seqBytes;
    randBytes += o.randBytes;
    atomicOps += o.atomicOps;
    tapeBytes += o.tapeBytes;
    return *this;
  }
  OpCounts operator-(const OpCounts& o) const {
    OpCounts r = *this;
    r.flops -= o.flops;
    r.intops -= o.intops;
    r.seqBytes -= o.seqBytes;
    r.randBytes -= o.randBytes;
    r.atomicOps -= o.atomicOps;
    r.tapeBytes -= o.tapeBytes;
    return r;
  }
};

/// Profile of one *execution* of a parallel loop.
struct LoopProfile {
  const ir::For* loop = nullptr;
  bool dynamicSchedule = false;
  std::vector<OpCounts> perIteration;
  /// Total bytes of privatized (reduction-clause) data: each thread
  /// zero-initializes and finally merges this much.
  double reductionBytes = 0;

  [[nodiscard]] OpCounts total() const {
    OpCounts t;
    for (const auto& c : perIteration) t += c;
    return t;
  }
};

/// Profile of one kernel execution.
struct RunProfile {
  OpCounts serial;  // everything outside parallel loops
  std::vector<LoopProfile> loops;  // one entry per parallel-loop *execution*
  size_t tapePeakBytes = 0;

  [[nodiscard]] OpCounts total() const {
    OpCounts t = serial;
    for (const auto& l : loops) t += l.total();
    return t;
  }
};

}  // namespace formad::exec
