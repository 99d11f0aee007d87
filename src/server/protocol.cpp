#include "server/protocol.h"

#include <limits>

#include "formad/formad.h"
#include "support/diagnostics.h"

namespace formad::server {

void LineFramer::closeFrame(std::vector<Frame>& out) {
  if (discarding_) {
    discarding_ = false;
    out.push_back(Frame{"", true});
    return;
  }
  // Tolerate CRLF clients.
  if (!buf_.empty() && buf_.back() == '\r') buf_.pop_back();
  if (!buf_.empty()) out.push_back(Frame{std::move(buf_), false});
  buf_.clear();
}

void LineFramer::feed(const char* data, size_t n, std::vector<Frame>& out) {
  for (size_t i = 0; i < n; ++i) {
    const char c = data[i];
    if (c == '\n') {
      closeFrame(out);
      continue;
    }
    if (discarding_) continue;
    buf_ += c;
    if (buf_.size() > maxFrameBytes_) {
      // The frame already exceeds the limit: stop buffering, remember to
      // emit exactly one oversized marker when its newline arrives.
      buf_.clear();
      discarding_ = true;
    }
  }
}

void LineFramer::finish(std::vector<Frame>& out) {
  if (discarding_ || !buf_.empty()) closeFrame(out);
}

std::string to_string(Op op) {
  switch (op) {
    case Op::Analyze: return "analyze";
    case Op::Racecheck: return "racecheck";
    case Op::Lint: return "lint";
    case Op::Stats: return "stats";
    case Op::Shutdown: return "shutdown";
  }
  return "?";
}

namespace {

[[noreturn]] void badRequest(const std::string& message) {
  throw ProtocolError("bad_request", message);
}

long long requireInt(const JsonValue& v, const std::string& what,
                     long long min, long long max) {
  if (v.kind() != JsonValue::Kind::Int)
    badRequest(what + " must be an integer");
  const long long n = v.asInt();
  if (n < min || n > max)
    badRequest(what + " out of range [" + std::to_string(min) + ", " +
               std::to_string(max) + "]: " + std::to_string(n));
  return n;
}

std::string requireString(const JsonValue& v, const std::string& what) {
  if (v.kind() != JsonValue::Kind::String)
    badRequest(what + " must be a string");
  return v.asString();
}

std::vector<std::string> requireStringArray(const JsonValue& v,
                                            const std::string& what) {
  if (v.kind() != JsonValue::Kind::Array)
    badRequest(what + " must be an array of strings");
  std::vector<std::string> out;
  for (const auto& e : v.elements())
    out.push_back(requireString(e, what + " entry"));
  return out;
}

RequestOptions parseOptions(const JsonValue& v) {
  if (v.kind() != JsonValue::Kind::Object)
    badRequest("'options' must be an object");
  RequestOptions o;
  for (const auto& [key, val] : v.members()) {
    if (key == "absint") {
      if (val.kind() != JsonValue::Kind::Bool)
        badRequest("options.absint must be a boolean");
      o.absint = val.asBool();
    } else if (key == "safeguard") {
      const std::string s = requireString(val, "options.safeguard");
      if (s == "formad") o.hybridSafeguard = false;
      else if (s == "hybrid") o.hybridSafeguard = true;
      else badRequest("options.safeguard must be formad or hybrid");
    } else if (key == "solver_budget") {
      o.solverStepBudget = requireInt(val, "options.solver_budget", -1,
                                      std::numeric_limits<long long>::max());
    } else if (key == "deadline_ms") {
      o.deadlineMs = static_cast<int>(
          requireInt(val, "options.deadline_ms", -1,
                     std::numeric_limits<int>::max()));
    } else if (key == "pins") {
      if (val.kind() != JsonValue::Kind::Object)
        badRequest("options.pins must be an object of integers");
      for (const auto& [name, pin] : val.members())
        o.pins[name] = requireInt(pin, "options.pins." + name,
                                  std::numeric_limits<long long>::min(),
                                  std::numeric_limits<long long>::max());
    } else if (key == "colorings") {
      for (const auto& a : requireStringArray(val, "options.colorings"))
        o.colorings.insert(a);
    } else if (key == "fault_unknown_at") {
      o.faultUnknownAt = requireInt(val, "options.fault_unknown_at", 0,
                                    std::numeric_limits<long long>::max());
    } else if (key == "fault_throw_at") {
      o.faultThrowAt = requireInt(val, "options.fault_throw_at", 0,
                                  std::numeric_limits<long long>::max());
    } else {
      badRequest("unknown options field '" + key + "'");
    }
  }
  return o;
}

}  // namespace

Request parseRequest(const std::string& frame) {
  JsonValue doc;
  try {
    doc = parseJson(frame);
  } catch (const Error& e) {
    throw ProtocolError("parse_error", e.what());
  }
  if (doc.kind() != JsonValue::Kind::Object)
    badRequest("request must be a JSON object");

  Request req;
  if (const JsonValue* id = doc.find("id")) {
    if (id->kind() != JsonValue::Kind::Int &&
        id->kind() != JsonValue::Kind::String &&
        id->kind() != JsonValue::Kind::Null)
      badRequest("'id' must be an integer, a string, or null");
    req.id = *id;
  }

  const JsonValue* opField = doc.find("op");
  if (opField == nullptr) badRequest("missing required field 'op'");
  const std::string op = requireString(*opField, "'op'");
  if (op == "analyze") req.op = Op::Analyze;
  else if (op == "racecheck") req.op = Op::Racecheck;
  else if (op == "lint") req.op = Op::Lint;
  else if (op == "stats") req.op = Op::Stats;
  else if (op == "shutdown") req.op = Op::Shutdown;
  else badRequest("unknown op '" + op + "'");

  for (const auto& [key, val] : doc.members()) {
    if (key == "id" || key == "op") continue;
    if (key == "source") req.source = requireString(val, "'source'");
    else if (key == "head") req.head = requireString(val, "'head'");
    else if (key == "independents")
      req.independents = requireStringArray(val, "'independents'");
    else if (key == "dependents")
      req.dependents = requireStringArray(val, "'dependents'");
    else if (key == "options") req.options = parseOptions(val);
    else badRequest("unknown field '" + key + "'");
  }

  const bool needsSource = req.op == Op::Analyze || req.op == Op::Racecheck ||
                           req.op == Op::Lint;
  if (needsSource && req.source.empty())
    badRequest("op '" + op + "' requires a non-empty 'source'");
  if (!needsSource && !req.source.empty())
    badRequest("op '" + op + "' takes no 'source'");
  if (req.op == Op::Analyze) {
    if (req.independents.empty() || req.dependents.empty())
      badRequest("op 'analyze' requires 'independents' and 'dependents'");
  } else if (!req.independents.empty() || !req.dependents.empty()) {
    badRequest("op '" + op + "' takes no 'independents'/'dependents'");
  }
  return req;
}

JsonValue okResponse(const Request& req) {
  JsonValue r = JsonValue::object();
  r.set("id", req.id);
  r.set("ok", JsonValue::boolean(true));
  r.set("op", JsonValue::str(to_string(req.op)));
  return r;
}

JsonValue tierCountsJson(const core::KernelAnalysis& a) {
  JsonValue t = JsonValue::object();
  t.set("queries", JsonValue::integer(a.queries()));
  t.set("tier0", JsonValue::integer(a.tier0Hits()));
  t.set("tier1", JsonValue::integer(a.tier1Hits()));
  t.set("tier2", JsonValue::integer(a.tier2Checks()));
  t.set("cached", JsonValue::integer(a.cacheHits()));
  t.set("absint_facts", JsonValue::integer(a.absintFacts()));
  return t;
}

JsonValue governanceJson(long long budgetExhausted, long long degradedPairs) {
  JsonValue g = JsonValue::object();
  g.set("budget_exhausted", JsonValue::integer(budgetExhausted));
  g.set("degraded_pairs", JsonValue::integer(degradedPairs));
  return g;
}

JsonValue cacheCountsJson(const core::KernelAnalysis& a) {
  JsonValue c = JsonValue::object();
  c.set("tasks_spliced", JsonValue::integer(a.tasksSpliced()));
  c.set("tasks_joined", JsonValue::integer(a.tasksJoined()));
  c.set("tasks_persisted", JsonValue::integer(a.tasksPersisted()));
  c.set("tasks_skipped", JsonValue::integer(a.tasksSkipped()));
  c.set("fresh_solver_checks", JsonValue::integer(a.freshSolverChecks()));
  c.set("fresh_tier2_solves", JsonValue::integer(a.freshTier2Solves()));
  return c;
}

JsonValue errorResponse(const JsonValue& id, const std::string& code,
                        const std::string& message) {
  JsonValue err = JsonValue::object();
  err.set("code", JsonValue::str(code));
  err.set("message", JsonValue::str(message));
  JsonValue r = JsonValue::object();
  r.set("id", id);
  r.set("ok", JsonValue::boolean(false));
  r.set("error", std::move(err));
  return r;
}

}  // namespace formad::server
