// The analysis daemon: many concurrent analyze/racecheck/lint requests
// over one shared verdict store (DESIGN.md §11).
//
// Architecture: requests are dispatched onto a BOUNDED SESSION POOL. Each
// session is one long-lived thread holding a client handle onto ONE shared
// work-stealing analysis pool (support::SharedAnalysisPool), sized once
// for the whole daemon from hardware concurrency (driver::resolveServePool)
// — so analysis parallelism is a daemon-wide budget the sessions share
// fairly (round-robin victim selection across jobs) instead of
// `sessions x threads` oversubscribed private pools. Clients set no
// scheduling knobs: every request analyzes at the full fast path on the
// shared pool, except a fault-injected one, which runs inline at width 1.
// All sessions share exactly one smt::PersistentVerdictStore — disk-backed
// when a cache directory is configured, memory-only otherwise. Its one
// sharded table per record kind is the daemon's hot cache and also holds
// the single-flight claims that collapse concurrent duplicate work: when
// several sessions analyze the same content at once, each solver check
// and each scheduler task is claimed by content fingerprint before
// evaluation, so exactly one session computes it and the rest block
// briefly and join the winner's published verdict.
//
// Determinism: verdict reports are pure functions of (source, options) —
// byte-identical at any session count, any request arrival order, any
// pool width, with or without a warm store (the conformance suite's
// guarantees, extended to the serving layer). Only wall-clock fields and
// cache counters vary; responses carry those separately from the report
// text.
//
// Governance: per-request solver budgets, deadlines, and fault injection
// ride through to the driver, so one pathological kernel degrades its own
// response and nothing else; budget-starved or injected verdicts can
// never poison the shared store (budget provenance guards, and
// smt::CheckPolicy::servingStore drops the store under fault injection).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.h"
#include "smt/diskcache.h"
#include "support/pool.h"

namespace formad::server {

struct ServeOptions {
  /// Session (worker) threads answering requests. Bounded: at most this
  /// many requests are in flight; the rest queue. Must be >= 1.
  int sessions = 2;
  /// Worker threads of the daemon's ONE shared analysis pool (0 = auto:
  /// hardware concurrency minus the session threads, floor 0 — sessions
  /// then analyze inline at width 1). Every request without injected
  /// faults analyzes on it. An explicit width whose total
  /// `sessions + analysisThreads` oversubscribes the hardware is clamped
  /// back to auto with a warning unless allowOversubscribe.
  int analysisThreads = 0;
  /// Honor an oversubscribing explicit analysisThreads instead of clamping
  /// it (benchmarks, tests, containers whose reported concurrency lies).
  bool allowOversubscribe = false;
  /// Persistent store directory ("" = the shared store is memory-only:
  /// warm serving within the daemon's lifetime, nothing on disk).
  std::string cacheDir;
  /// Frames above this size are rejected with a structured "oversized"
  /// error instead of being buffered.
  size_t maxRequestBytes = 4u << 20;
  /// Default per-check solver step budget applied when a request does not
  /// set options.solver_budget (0 = unlimited).
  long long defaultSolverBudget = 0;
  /// Default per-region deadline when a request does not set
  /// options.deadline_ms (0 = none).
  int defaultDeadlineMs = 0;
};

class AnalysisServer {
 public:
  /// Starts the session pool. Throws formad::Error on bad options or an
  /// uncreatable cache directory.
  explicit AnalysisServer(const ServeOptions& opts);
  /// Drains queued requests and joins the sessions.
  ~AnalysisServer();
  AnalysisServer(const AnalysisServer&) = delete;
  AnalysisServer& operator=(const AnalysisServer&) = delete;

  /// Enqueues one frame onto the session pool; the future yields the
  /// response line (JSON, no trailing newline). Thread-safe; blocks while
  /// the queue is full (backpressure). After shutdown has been requested,
  /// returns an immediate "shutting_down" error response.
  [[nodiscard]] std::future<std::string> submit(std::string frame);

  /// Synchronous convenience: submit + wait. Thread-safe.
  [[nodiscard]] std::string process(const std::string& frame);

  /// The response for a frame the framer flagged oversized.
  [[nodiscard]] std::string oversizedResponse() const;

  /// True once a shutdown request has been answered.
  [[nodiscard]] bool shutdownRequested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  [[nodiscard]] smt::PersistentVerdictStore& store() { return *store_; }
  [[nodiscard]] const ServeOptions& options() const { return opts_; }
  /// Shared-pool worker count the sizing policy settled on (0 = inline).
  [[nodiscard]] int poolWorkers() const { return poolWorkers_; }
  /// Non-empty when resolveServePool warned (oversubscription clamp or a
  /// session count above hardware concurrency); surface it at startup.
  [[nodiscard]] const std::string& sizingWarning() const {
    return sizingWarning_;
  }

 private:
  struct Job {
    std::string frame;
    std::promise<std::string> done;
  };

  void sessionLoop();
  [[nodiscard]] std::string handle(const std::string& frame,
                                   support::SharedAnalysisPool::Client* client);
  [[nodiscard]] JsonValue dispatch(const Request& req,
                                   support::SharedAnalysisPool::Client* client);
  [[nodiscard]] JsonValue handleAnalyze(const Request& req,
                                        support::TaskPool* pool);
  [[nodiscard]] JsonValue handleRacecheck(const Request& req,
                                          support::TaskPool* pool);
  [[nodiscard]] JsonValue handleLint(const Request& req);
  [[nodiscard]] JsonValue handleStats(const Request& req);

  ServeOptions opts_;
  int poolWorkers_ = 0;
  std::string sizingWarning_;
  std::unique_ptr<smt::PersistentVerdictStore> store_;
  /// The daemon-wide analysis pool; null when poolWorkers_ == 0 (sessions
  /// then run every analysis inline). Declared after store_ so in-flight
  /// claims are long gone by the time the store unwinds, and before
  /// sessions_ joins happen in ~AnalysisServer's body.
  std::unique_ptr<support::SharedAnalysisPool> pool_;

  std::mutex mu_;
  std::condition_variable workAvailable_;
  std::condition_variable spaceAvailable_;
  std::deque<Job> queue_;
  size_t maxQueue_ = 0;
  bool stop_ = false;  // destructor: sessions exit once the queue drains
  std::vector<std::thread> sessions_;

  std::atomic<bool> shutdown_{false};
  // Request counters for the stats op (relaxed; snapshot semantics).
  std::atomic<long long> nAnalyze_{0}, nRacecheck_{0}, nLint_{0}, nStats_{0},
      nShutdown_{0}, nErrors_{0};
};

/// Drives a server over newline-delimited streams: reads requests from
/// `in`, writes responses to `out` in request order (pipelined: reading
/// continues while sessions work). Returns at end of input or once a
/// shutdown request has been answered and all earlier responses written.
void serveStdio(AnalysisServer& server, std::istream& in, std::ostream& out);

/// Listens on a unix-domain socket at `path`, serving each connection
/// with the newline protocol (responses in request order per connection;
/// connections are served concurrently). Returns once a shutdown request
/// has been answered; the socket file is removed on exit. Throws
/// formad::Error on socket setup failures.
void serveUnixSocket(AnalysisServer& server, const std::string& path);

}  // namespace formad::server
