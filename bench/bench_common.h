// Shared driver for the figure benchmarks (paper Figs. 3-10).
//
// For one benchmark kernel this driver
//   1. builds the primal and the four adjoint program versions of Sec. 7
//      (Adjoint Serial / FormAD / Atomic / Reduction);
//   2. profiles one application of each with the interpreter (operation
//      counts per loop iteration);
//   3. simulates wall times on the paper's 18-core socket via the
//      calibrated cost model (see DESIGN.md: the 18-thread points need
//      more cores than a typical build host has, so scalability is
//      simulated from measured operation mixes; perfbench's
//      native_adjoint times compiled adjoints on real threads);
//   4. prints the absolute-time table and the speedup table, side by side
//      with the paper's reported reference points.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exec/costmodel.h"
#include "exec/interp.h"
#include "kernels/spec.h"
#include "server/json.h"

namespace formad::bench {

/// Writes BENCH_<name>.json in the working directory as one line of JSON:
/// {"benchmark": <name>, "schema_version": 5, ...body members...}. `body`
/// must be an object. Prints the "wrote ..." line the CI artifact step
/// greps for.
void writeBenchFile(const std::string& name, const server::JsonValue& body);

struct FigureSetup {
  std::string name;            // file-safe id, e.g. "fig3_fig5_small_stencil";
                               // results land in BENCH_<name>.json
  std::string title;           // e.g. "small stencil (Figs. 3 and 5)"
  kernels::KernelSpec spec;
  std::function<void(exec::Inputs&)> bind;
  /// How many times the paper applies the kernel (e.g. 1000 sweeps).
  double repetitions = 1;
  std::vector<int> threads = {1, 2, 4, 8, 18};
  exec::CostParams params;
  /// Repetitions of the real (measured, this container) timing pass; the
  /// best run is reported, so the first-run bytecode compile is excluded.
  int realReps = 3;

  /// Paper reference points, printed next to our numbers:
  /// label -> (description, seconds).
  std::vector<std::pair<std::string, std::string>> paperNotes;
};

/// One measured (not simulated) serial run of a program version on one
/// execution engine, at the figure's full workload.
struct RealTiming {
  std::string version;  // "primal" or "adj-formad"
  std::string engine;   // "bytecode" or "treewalk"
  std::string mode = "serial";
  int threads = 1;
  double seconds = 0;   // best of FigureSetup::realReps runs, one application
  size_t tapePeakBytes = 0;
};

/// Simulated absolute seconds for every program version and thread count.
struct FigureResult {
  // versions in print order: primal, adj-serial, adj-formad, adj-atomic,
  // adj-reduction
  std::vector<std::string> versions;
  std::map<std::string, double> serialSeconds;          // version -> serial
  std::map<std::string, std::map<int, double>> seconds; // version x threads
  std::map<std::string, size_t> tapePeakBytes;
  /// Privatized (reduction-clause) bytes per thread, summed over the
  /// version's parallel loops — the memory-footprint cost the paper notes
  /// for the reduction versions (Sec. 7, remark before 7.1).
  std::map<std::string, double> privatizedBytes;
  /// Wall-clock measurements of primal and FormAD adjoint on both engines.
  std::vector<RealTiming> real;
};

/// Runs the pipeline and returns the simulated series plus the measured
/// engine comparison.
[[nodiscard]] FigureResult runFigure(const FigureSetup& setup);

/// Prints the absolute-time and speedup tables plus paper notes.
void printFigure(const FigureSetup& setup, const FigureResult& result);

/// Writes BENCH_<setup.name>.json (engine, mode, threads, simulated and
/// measured wall times, tape peaks) into the working directory.
void writeBenchJson(const FigureSetup& setup, const FigureResult& result);

}  // namespace formad::bench
