#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>

#include "driver/driver.h"
#include "driver/report.h"
#include "parser/parser.h"

namespace formad::bench {

using server::JsonValue;

void writeBenchFile(const std::string& name, const JsonValue& body) {
  JsonValue root = JsonValue::object();
  root.set("benchmark", JsonValue::str(name));
  // v2: adds the optional persistent-cache members (cacheCountsJson) and
  // the incremental-reanalysis bench file. Existing members are unchanged,
  // so v1 consumers only need to ignore unknown keys.
  // v3: tier-count objects gain absint_facts, and the table1/ablation
  // files gain absint on/off rows plus tier2_killed_by_absint counters.
  // Again purely additive: v2 consumers ignore the new keys.
  // v4: cache objects drop memory_hits/disk_hits/disk_stores; store-level
  // IO counts are PersistentVerdictStore::Stats (BENCH_serve.json).
  // v5: written by server::JsonValue, so the file is one line of strict
  // JSON (doubles keep 17 significant digits, NaN/Inf become null), and
  // cache objects are the daemon's (server::cacheCountsJson: adds
  // tasks_joined and tasks_skipped) plus task_hit_rate.
  root.set("schema_version", JsonValue::integer(5));
  for (const auto& [k, v] : body.members()) root.set(k, v);
  const std::string file = "BENCH_" + name + ".json";
  std::ofstream out(file);
  out << root.dump() << "\n";
  std::cout << "wrote " << file << "\n";
}

using driver::AdjointMode;
using exec::ArrayValue;
using exec::ExecMode;
using exec::ExecOptions;
using exec::Executor;
using exec::Inputs;
using exec::RunProfile;

namespace {

/// Binds zero-filled adjoint arrays for every adjoint parameter (their
/// contents do not affect operation counts).
void bindAdjoints(Inputs& io,
                  const std::map<std::string, std::string>& adjointParams) {
  for (const auto& [p, pb] : adjointParams) {
    const ArrayValue& a = io.array(p);
    std::vector<long long> dims;
    for (int k = 0; k < a.rank(); ++k) dims.push_back(a.dim(k));
    ArrayValue& b = io.bindArray(pb, ArrayValue::reals(dims));
    b.fill(1e-3);
  }
}

struct Profiled {
  RunProfile profile;
  size_t tapePeak = 0;
};

Profiled profileKernel(const ir::Kernel& kernel, const FigureSetup& setup,
                       const std::map<std::string, std::string>* adjParams) {
  Executor ex(kernel);
  Inputs io;
  setup.bind(io);
  if (adjParams != nullptr) bindAdjoints(io, *adjParams);
  exec::ExecStats st = ex.run(io, ExecOptions{ExecMode::Profile, 1});
  return Profiled{std::move(st.profile), st.tapePeakBytes};
}

/// Measures one serial kernel application on `engine` (best of
/// setup.realReps; inputs are rebound outside the timed section, so the
/// first run's bytecode compilation is the only one-off cost and best-of
/// excludes it).
RealTiming timeReal(const ir::Kernel& kernel, const FigureSetup& setup,
                    const std::map<std::string, std::string>* adjParams,
                    const std::string& version, exec::ExecEngine engine) {
  RealTiming rt;
  rt.version = version;
  rt.engine = engine == exec::ExecEngine::Bytecode ? "bytecode" : "treewalk";
  Executor ex(kernel);
  ExecOptions opts;
  opts.mode = ExecMode::Serial;
  opts.engine = engine;
  rt.seconds = -1;
  for (int rep = 0; rep < std::max(1, setup.realReps); ++rep) {
    Inputs io;
    setup.bind(io);
    if (adjParams != nullptr) bindAdjoints(io, *adjParams);
    auto t0 = std::chrono::steady_clock::now();
    exec::ExecStats st = ex.run(io, opts);
    double s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
    if (rt.seconds < 0 || s < rt.seconds) rt.seconds = s;
    rt.tapePeakBytes = st.tapePeakBytes;
  }
  return rt;
}

}  // namespace

FigureResult runFigure(const FigureSetup& setup) {
  auto primal = parser::parseKernel(setup.spec.source);

  FigureResult result;
  result.versions = {"primal", "adj-serial", "adj-formad", "adj-atomic",
                     "adj-reduction"};

  // Primal.
  result.real.push_back(
      timeReal(*primal, setup, nullptr, "primal", exec::ExecEngine::TreeWalk));
  result.real.push_back(
      timeReal(*primal, setup, nullptr, "primal", exec::ExecEngine::Bytecode));
  Profiled primalProf = profileKernel(*primal, setup, nullptr);
  result.serialSeconds["primal"] =
      exec::serialTime(primalProf.profile, setup.params) * setup.repetitions;
  for (int t : setup.threads)
    result.seconds["primal"][t] =
        exec::runTime(primalProf.profile, setup.params, t) * setup.repetitions;

  // Adjoint versions.
  const std::pair<std::string, AdjointMode> adjoints[] = {
      {"adj-serial", AdjointMode::Serial},
      {"adj-formad", AdjointMode::FormAD},
      {"adj-atomic", AdjointMode::Atomic},
      {"adj-reduction", AdjointMode::Reduction},
  };
  for (const auto& [label, mode] : adjoints) {
    // The paper's adjoint timings reflect the adjoint computation itself;
    // when nothing needs taping, the primal forward sweep is dropped.
    auto dr = driver::differentiate(*primal, setup.spec.independents,
                                    setup.spec.dependents, mode,
                                    /*omitTapeFreePrimalSweep=*/true);
    if (mode == AdjointMode::FormAD) {
      result.real.push_back(timeReal(*dr.adjoint, setup, &dr.adjointParams,
                                     label, exec::ExecEngine::TreeWalk));
      result.real.push_back(timeReal(*dr.adjoint, setup, &dr.adjointParams,
                                     label, exec::ExecEngine::Bytecode));
    }
    Profiled prof = profileKernel(*dr.adjoint, setup, &dr.adjointParams);
    result.tapePeakBytes[label] = prof.tapePeak;
    double priv = 0;
    for (const auto& lp : prof.profile.loops) priv += lp.reductionBytes;
    result.privatizedBytes[label] = priv;
    result.serialSeconds[label] =
        exec::serialTime(prof.profile, setup.params) * setup.repetitions;
    for (int t : setup.threads)
      result.seconds[label][t] =
          exec::runTime(prof.profile, setup.params, t) * setup.repetitions;
  }
  return result;
}

void printFigure(const FigureSetup& setup, const FigureResult& result) {
  std::cout << "\n### " << setup.title << "\n\n";

  {
    std::vector<std::string> header = {"version", "serial"};
    for (int t : setup.threads) header.push_back(std::to_string(t) + "T");
    driver::Table abs(header);
    for (const auto& v : result.versions) {
      std::vector<std::string> row = {v,
                                      driver::fmt(result.serialSeconds.at(v))};
      for (int t : setup.threads)
        row.push_back(driver::fmt(result.seconds.at(v).at(t)));
      abs.addRow(std::move(row));
    }
    std::cout << "Absolute time (simulated seconds):\n" << abs.str();
  }

  {
    std::vector<std::string> header = {"version"};
    for (int t : setup.threads) header.push_back(std::to_string(t) + "T");
    driver::Table sp(header);
    for (const auto& v : result.versions) {
      // Paper convention: speedups are relative to the *serial* program of
      // the same kind (primal vs primal-serial, adjoints vs adj-serial).
      double base = v == "primal" ? result.serialSeconds.at("primal")
                                  : result.serialSeconds.at("adj-serial");
      std::vector<std::string> row = {v};
      for (int t : setup.threads)
        row.push_back(driver::fmtSpeedup(base / result.seconds.at(v).at(t)));
      sp.addRow(std::move(row));
    }
    std::cout << "\nParallel speedup vs. serial baseline:\n" << sp.str();
  }

  {
    // Paper (Sec. 7): "the program versions with reduction pragmas have a
    // significantly larger memory footprint ... whether or not atomics are
    // used does not significantly affect the memory footprint."
    const int maxT = setup.params.maxCores;
    driver::Table mem({"version", "tape peak",
                       "privatized copies @" + std::to_string(maxT) + "T"});
    for (const auto& v : result.versions) {
      if (v == "primal") continue;
      auto tp = result.tapePeakBytes.find(v);
      auto pv = result.privatizedBytes.find(v);
      auto mb = [](double b) { return driver::fmt(b / 1048576.0, 2) + " MiB"; };
      mem.addRow({v,
                  tp == result.tapePeakBytes.end()
                      ? "-" : mb(static_cast<double>(tp->second)),
                  pv == result.privatizedBytes.end() || pv->second == 0
                      ? "0" : mb(maxT * pv->second)});
    }
    std::cout << "\nMemory overhead per kernel application:\n" << mem.str();
  }

  if (!result.real.empty()) {
    // Measured on this container (single application, serial, both
    // engines) — the one table here that is real wall time, not the cost
    // model.
    driver::Table rt({"version", "engine", "seconds", "vs treewalk"});
    for (const auto& r : result.real) {
      double base = 0;
      for (const auto& o : result.real)
        if (o.version == r.version && o.engine == "treewalk") base = o.seconds;
      rt.addRow({r.version, r.engine, driver::fmt(r.seconds),
                 r.engine == "treewalk" || r.seconds <= 0
                     ? "1.0x"
                     : driver::fmtSpeedup(base / r.seconds)});
    }
    std::cout << "\nMeasured engine comparison (1 application, serial, this "
                 "machine):\n"
              << rt.str();
  }

  if (!setup.paperNotes.empty()) {
    std::cout << "\nPaper reference points:\n";
    for (const auto& [what, value] : setup.paperNotes)
      std::cout << "  " << what << ": " << value << "\n";
  }
  std::cout << std::endl;
}

void writeBenchJson(const FigureSetup& setup, const FigureResult& result) {
  if (setup.name.empty()) return;
  JsonValue body = JsonValue::object();
  body.set("repetitions", JsonValue::number(setup.repetitions));
  JsonValue threads = JsonValue::array();
  for (int t : setup.threads) threads.push(JsonValue::integer(t));
  body.set("threads", std::move(threads));

  JsonValue simulated = JsonValue::array();
  for (const std::string& v : result.versions) {
    JsonValue e = JsonValue::object();
    e.set("version", JsonValue::str(v));
    e.set("mode", JsonValue::str("simulated"));
    e.set("serial_seconds", JsonValue::number(result.serialSeconds.at(v)));
    JsonValue ps = JsonValue::object();
    for (int t : setup.threads)
      ps.set(std::to_string(t), JsonValue::number(result.seconds.at(v).at(t)));
    e.set("parallel_seconds", std::move(ps));
    auto tp = result.tapePeakBytes.find(v);
    if (tp != result.tapePeakBytes.end())
      e.set("tape_peak_bytes",
            JsonValue::integer(static_cast<long long>(tp->second)));
    simulated.push(std::move(e));
  }
  body.set("simulated", std::move(simulated));

  JsonValue real = JsonValue::array();
  for (const RealTiming& r : result.real) {
    JsonValue e = JsonValue::object();
    e.set("version", JsonValue::str(r.version));
    e.set("engine", JsonValue::str(r.engine));
    e.set("mode", JsonValue::str(r.mode));
    e.set("threads", JsonValue::integer(r.threads));
    e.set("seconds", JsonValue::number(r.seconds));
    e.set("tape_peak_bytes",
          JsonValue::integer(static_cast<long long>(r.tapePeakBytes)));
    real.push(std::move(e));
  }
  body.set("real", std::move(real));

  writeBenchFile(setup.name, body);
}

}  // namespace formad::bench
