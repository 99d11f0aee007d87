// Wire protocol of the analysis daemon (formad_serve).
//
// Framing: newline-delimited JSON. One request per line, one response per
// line, responses written in request order per connection. The framing
// parser tolerates arbitrary byte chunking (a frame may arrive split at
// any boundary) and bounds frame size: a line longer than the configured
// limit is consumed and surfaced as ONE oversized frame so the daemon can
// answer with a structured error instead of buffering without bound.
//
// Request schema (strict: unknown fields anywhere are rejected):
//
//   {"id": <int|string, optional>,
//    "op": "analyze" | "racecheck" | "lint" | "stats" | "shutdown",
//    "source": "<DSL program>",            // analyze/racecheck/lint
//    "head": "<kernel name>",              // optional when unambiguous
//    "independents": ["x", ...],           // analyze
//    "dependents": ["y", ...],             // analyze
//    "options": {                          // all optional
//      "absint": true|false,
//      "safeguard": "formad"|"hybrid",  // analyze: hybrid adds
//                               // per-(var, access-site) verdict lines
//                               // to the report (default formad)
//      "solver_budget": N,      // 0 = daemon default; -1 = unlimited
//      "deadline_ms": N,        // 0 = daemon default; -1 = none
//      "pins": {"n": 20, ...},
//      "colorings": ["edge2node", ...],
//      "fault_unknown_at": N,   // test harness: injected solver faults
//      "fault_throw_at": N      // (per-request; disables store serving
//                               // and runs the analysis serially)
//    }}
//
// How a request is scheduled is the daemon's business, not the client's:
// every analysis runs at the full fast path on the shared pool, except a
// faulted one, which runs inline at width 1 (a fault ordinal names the
// first check replay reads only when one worker runs the checks).
//
// Error responses carry {"ok": false, "error": {"code", "message"}} with
// codes: "parse_error" (malformed JSON), "bad_request" (schema violation),
// "oversized" (frame above the size limit), "kernel_error" (DSL parse or
// analysis failure), "shutting_down", "internal".
#pragma once

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "server/json.h"

namespace formad::core {
struct KernelAnalysis;
}  // namespace formad::core

namespace formad::server {

/// Splits a byte stream into newline-delimited frames, robust to arbitrary
/// chunk boundaries. Not thread-safe (one framer per connection).
class LineFramer {
 public:
  /// Frames longer than `maxFrameBytes` (excluding the newline) come back
  /// with oversized=true and empty text; their bytes are discarded.
  explicit LineFramer(size_t maxFrameBytes) : maxFrameBytes_(maxFrameBytes) {}

  struct Frame {
    std::string text;
    bool oversized = false;
  };

  /// Appends a chunk, appending every completed frame to `out`. Blank
  /// frames (empty lines, lone "\r") are dropped — they are keep-alive
  /// noise, not requests.
  void feed(const char* data, size_t n, std::vector<Frame>& out);

  /// Flushes a trailing unterminated frame at end of stream.
  void finish(std::vector<Frame>& out);

 private:
  void closeFrame(std::vector<Frame>& out);

  size_t maxFrameBytes_;
  std::string buf_;
  bool discarding_ = false;  // inside an oversized frame: drop until '\n'
};

enum class Op { Analyze, Racecheck, Lint, Stats, Shutdown };

[[nodiscard]] std::string to_string(Op op);

/// Per-request knobs, mapped onto DriverOptions by the server. 0 means
/// "use the daemon default" for budget/deadline; -1 forces unlimited
/// budget / no deadline even when the daemon has a default.
struct RequestOptions {
  bool absint = false;
  /// Analyze with the hybrid safeguard's per-(var, access-site) verdicts
  /// (ExploitOptions::siteVerdicts). Default (false) is the classic
  /// whole-variable analysis, byte-identical to the pre-hybrid daemon.
  bool hybridSafeguard = false;
  long long solverStepBudget = 0;
  int deadlineMs = 0;
  std::map<std::string, long long> pins;
  std::set<std::string> colorings;
  long long faultUnknownAt = 0;
  long long faultThrowAt = 0;

  [[nodiscard]] bool hasFault() const {
    return faultUnknownAt > 0 || faultThrowAt > 0;
  }
};

struct Request {
  JsonValue id;  // echoed verbatim in the response; null when absent
  Op op = Op::Stats;
  std::string source;
  std::string head;
  std::vector<std::string> independents;
  std::vector<std::string> dependents;
  RequestOptions options;
};

/// A protocol-level rejection: carries the structured error code. The
/// server turns it into an error response; it never escapes the daemon.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(std::string code, const std::string& message)
      : std::runtime_error(message), code_(std::move(code)) {}

  [[nodiscard]] const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// Parses and validates one frame into a Request. Throws ProtocolError
/// with code "parse_error" (malformed JSON) or "bad_request" (schema
/// violation: wrong type, missing required field, unknown field).
[[nodiscard]] Request parseRequest(const std::string& frame);

/// Builds the envelope of a successful response: {"id", "ok": true,
/// "op"}; the caller adds the op-specific members.
[[nodiscard]] JsonValue okResponse(const Request& req);

/// The counter objects of analyze and racecheck responses, each built in
/// one place. The benches write the tier and cache objects into their
/// BENCH_*.json files through the same functions, so member names cannot
/// drift between a response and a bench file:
///   tiers       {"queries", "tier0", "tier1", "tier2", "cached",
///                "absint_facts"} (the four tier components partition
///                queries; absint_facts is 0 unless absint ran);
///   governance  {"budget_exhausted", "degraded_pairs"};
///   cache       {"tasks_spliced", "tasks_joined", "tasks_persisted",
///                "tasks_skipped", "fresh_solver_checks",
///                "fresh_tier2_solves"}.
[[nodiscard]] JsonValue tierCountsJson(const core::KernelAnalysis& a);
[[nodiscard]] JsonValue governanceJson(long long budgetExhausted,
                                       long long degradedPairs);
[[nodiscard]] JsonValue cacheCountsJson(const core::KernelAnalysis& a);

/// Builds a structured error response. `id` may be null (e.g. the frame
/// never parsed, so no id is known).
[[nodiscard]] JsonValue errorResponse(const JsonValue& id,
                                      const std::string& code,
                                      const std::string& message);

}  // namespace formad::server
