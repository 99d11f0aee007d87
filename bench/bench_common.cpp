#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>

#include "driver/driver.h"
#include "driver/report.h"
#include "parser/parser.h"
#include "support/diagnostics.h"

namespace formad::bench {

Json Json::num(double v) {
  Json j;
  j.kind_ = Kind::Num;
  j.num_ = v;
  return j;
}

Json Json::integer(long long v) {
  Json j;
  j.kind_ = Kind::Int;
  j.int_ = v;
  return j;
}

Json Json::boolean(bool v) {
  Json j;
  j.kind_ = Kind::Bool;
  j.bool_ = v;
  return j;
}

Json Json::str(std::string s) {
  Json j;
  j.kind_ = Kind::Str;
  j.str_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::Object;
  return j;
}

Json& Json::push(Json v) {
  FORMAD_ASSERT(kind_ == Kind::Array, "Json::push on a non-array");
  elems_.push_back(std::move(v));
  return *this;
}

Json& Json::set(const std::string& key, Json v) {
  FORMAD_ASSERT(kind_ == Kind::Object, "Json::set on a non-object");
  for (auto& [k, old] : members_) {
    if (k == key) {
      old = std::move(v);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(v));
  return *this;
}

std::string Json::dump(int indent) const {
  auto quoted = [](const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  };
  switch (kind_) {
    case Kind::Null:
      return "null";
    case Kind::Num: {
      std::ostringstream os;
      os << num_;
      return os.str();
    }
    case Kind::Int:
      return std::to_string(int_);
    case Kind::Bool:
      return bool_ ? "true" : "false";
    case Kind::Str:
      return quoted(str_);
    case Kind::Array: {
      if (elems_.empty()) return "[]";
      const std::string pad(static_cast<size_t>(indent), ' ');
      std::string out = "[\n";
      for (size_t i = 0; i < elems_.size(); ++i) {
        out += pad + "  " + elems_[i].dump(indent + 2);
        out += i + 1 < elems_.size() ? ",\n" : "\n";
      }
      return out + pad + "]";
    }
    case Kind::Object: {
      if (members_.empty()) return "{}";
      const std::string pad(static_cast<size_t>(indent), ' ');
      std::string out = "{\n";
      for (size_t i = 0; i < members_.size(); ++i) {
        out += pad + "  " + quoted(members_[i].first) + ": " +
               members_[i].second.dump(indent + 2);
        out += i + 1 < members_.size() ? ",\n" : "\n";
      }
      return out + pad + "}";
    }
  }
  return "null";
}

void writeBenchFile(const std::string& name, const Json& body) {
  Json root = Json::object();
  root.set("benchmark", Json::str(name));
  // v2: adds the optional persistent-cache members (cacheCountsJson) and
  // the incremental-reanalysis bench file. Existing members are unchanged,
  // so v1 consumers only need to ignore unknown keys.
  // v3: tier-count objects gain absint_facts, and the table1/ablation
  // files gain absint on/off rows plus tier2_killed_by_absint counters.
  // Again purely additive: v2 consumers ignore the new keys.
  // v4: cache objects drop memory_hits/disk_hits/disk_stores; store-level
  // IO counts are PersistentVerdictStore::Stats (BENCH_serve.json).
  root.set("schema_version", Json::integer(4));
  for (const auto& [k, v] : body.members()) root.set(k, v);
  const std::string file = "BENCH_" + name + ".json";
  std::ofstream out(file);
  out << root.dump() << "\n";
  std::cout << "wrote " << file << "\n";
}

Json tierCountsJson(const core::KernelAnalysis& a) {
  Json t = Json::object();
  t.set("queries", Json::integer(a.queries()));
  t.set("tier0", Json::integer(a.tier0Hits()));
  t.set("tier1", Json::integer(a.tier1Hits()));
  t.set("tier2", Json::integer(a.tier2Checks()));
  t.set("cached", Json::integer(a.cacheHits()));
  t.set("absint_facts", Json::integer(a.absintFacts()));
  return t;
}

Json cacheCountsJson(const core::KernelAnalysis& a) {
  Json c = Json::object();
  c.set("tasks_spliced", Json::integer(a.tasksSpliced()));
  c.set("tasks_persisted", Json::integer(a.tasksPersisted()));
  c.set("fresh_solver_checks", Json::integer(a.freshSolverChecks()));
  c.set("fresh_tier2_solves", Json::integer(a.freshTier2Solves()));
  const long long tasks = a.tasksSpliced() + a.tasksPersisted();
  c.set("task_hit_rate", Json::num(tasks > 0 ? static_cast<double>(
                                                   a.tasksSpliced()) /
                                                   static_cast<double>(tasks)
                                             : 0.0));
  return c;
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
  Json body = Json::object();
  body.set("repetitions", Json::num(setup.repetitions));
  Json threads = Json::array();
  for (int t : setup.threads) threads.push(Json::integer(t));
  body.set("threads", std::move(threads));

  Json simulated = Json::array();
  for (const std::string& v : result.versions) {
    Json e = Json::object();
    e.set("version", Json::str(v));
    e.set("mode", Json::str("simulated"));
    e.set("serial_seconds", Json::num(result.serialSeconds.at(v)));
    Json ps = Json::object();
    for (int t : setup.threads)
      ps.set(std::to_string(t), Json::num(result.seconds.at(v).at(t)));
    e.set("parallel_seconds", std::move(ps));
    auto tp = result.tapePeakBytes.find(v);
    if (tp != result.tapePeakBytes.end())
      e.set("tape_peak_bytes",
            Json::integer(static_cast<long long>(tp->second)));
    simulated.push(std::move(e));
  }
  body.set("simulated", std::move(simulated));

  Json real = Json::array();
  for (const RealTiming& r : result.real) {
    Json e = Json::object();
    e.set("version", Json::str(r.version));
    e.set("engine", Json::str(r.engine));
    e.set("mode", Json::str(r.mode));
    e.set("threads", Json::integer(r.threads));
    e.set("seconds", Json::num(r.seconds));
    e.set("tape_peak_bytes",
          Json::integer(static_cast<long long>(r.tapePeakBytes)));
    real.push(std::move(e));
  }
  body.set("real", std::move(real));

  writeBenchFile(setup.name, body);
}

}  // namespace formad::bench
