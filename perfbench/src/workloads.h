// The three workloads. Each fills a Result with its end-to-end metrics
// (untraced run) or its per-layer metrics (traced run).
#pragma once

#include "bench.h"

namespace perfbench {

/// How many times each workload repeats its set-up; setup_s is the median.
inline constexpr int kSetupReps = 3;

void runAnalyzeCold(const Options& opts, Result& result);
void runNativeAdjoint(const Options& opts, Result& result);
void runServeWarmEdits(const Options& opts, Result& result);

}  // namespace perfbench
