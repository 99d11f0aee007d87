// Worker pools for the analysis pipeline.
//
// Two implementations share one interface (TaskPool):
//
//  - WorkPool: a private pool, one per driver invocation. Tasks are claimed
//    dynamically from a single shared ticket counter — cheap self-scheduling
//    load balancing for the irregular per-query costs SMT workloads produce.
//  - SharedAnalysisPool: one bounded pool for a whole serving daemon. Each
//    session holds a Client handle; every Client::run() forms a two-ended
//    task deque (the submitting thread claims from the front, idle pool
//    workers steal from the back), and the pool picks victim jobs
//    round-robin, so a large analyze cannot starve cheap requests from
//    other sessions.
//
// Each task carries the index of the worker running it, so callers can keep
// strictly thread-confined state (one smt::Solver per worker).
//
// Determinism contract: a pool guarantees only that every task index in
// [0, n) runs exactly once. Callers that need reproducible output must not
// derive results from completion order; the analysis pipeline merges all
// task results in a canonical order afterwards (see formad/scheduler.h).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/cancel.h"

namespace formad::support {

/// Abstract fan-out surface the analysis phases program against. See
/// WorkPool::run for the full contract; both implementations honor it.
class TaskPool {
 public:
  virtual ~TaskPool() = default;

  /// Maximum distinct worker indices run() may use. Callers size
  /// thread-confined state (solvers, scratch) to this.
  [[nodiscard]] virtual int width() const = 0;

  /// Runs fn(taskIndex, workerIndex) for every taskIndex in [0, n). Not
  /// reentrant: one run() at a time per pool/client, always from the owning
  /// thread. First task exception cancels the rest and is rethrown here; a
  /// fired CancelToken skips remaining tasks (reported by lastRunSkipped()).
  virtual void run(size_t n, const std::function<void(size_t, int)>& fn,
                   CancelToken* cancel = nullptr) = 0;

  /// Number of task indices the most recent run() skipped because its
  /// CancelToken fired (deadline or task exception).
  [[nodiscard]] virtual size_t lastRunSkipped() const = 0;
};

class WorkPool final : public TaskPool {
 public:
  /// Spawns `threads - 1` workers; the thread calling run() is worker 0.
  /// A width of 1 (or less) degenerates to inline serial execution.
  explicit WorkPool(int threads);
  ~WorkPool();
  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

  [[nodiscard]] int width() const override { return width_; }

  /// Runs fn(taskIndex, workerIndex) for every taskIndex in [0, n), then
  /// returns. Worker indices lie in [0, width()); each index is used by at
  /// most one OS thread for the duration of the call. Not reentrant and not
  /// thread-safe: one run() at a time, always from the owning thread. If a
  /// task throws, the first exception is rethrown here after all claimed
  /// tasks finished — and the throw fires `cancel` (when given) plus an
  /// internal abort flag, so surviving workers stop claiming new tasks at
  /// their next scheduling edge instead of grinding through the backlog.
  ///
  /// `cancel`, when non-null, is polled before every task claim (a clock
  /// read, so armed deadlines take effect here even if no task ever polls):
  /// once it fires, remaining tasks are skipped, not executed. Skipping is
  /// not an error — run() returns normally and lastRunSkipped() reports how
  /// many task indices never ran, so callers can degrade those results
  /// conservatively.
  void run(size_t n, const std::function<void(size_t, int)>& fn,
           CancelToken* cancel = nullptr) override;

  /// Number of task indices the most recent run() skipped because its
  /// CancelToken fired (deadline or task exception). 0 after a run that
  /// executed everything.
  [[nodiscard]] size_t lastRunSkipped() const override {
    return skipped_.load(std::memory_order_acquire);
  }

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static int hardwareWidth();

 private:
  void workerLoop(int worker);
  void drain(int worker);

  // Tickets and the task count are tagged with the run's epoch in the high
  // 32 bits. A claim is honored only if the ticket's epoch matches the
  // epoch packed into limit_; a ticket whose epoch is stale (drawn before
  // the current run was published, or after its run completed) always fails
  // that comparison and is discarded without touching fn_. A claim that IS
  // honored pins its run: run() cannot return — and hence no later epoch
  // can be published and no descriptor overwritten — until the claimed
  // task has executed and decremented pending_.
  static constexpr int kEpochShift = 32;
  static constexpr uint64_t kIndexMask = (uint64_t{1} << kEpochShift) - 1;

  const int width_;
  std::vector<std::thread> workers_;

  std::atomic<uint64_t> cursor_{0};  // (epoch << 32) | next task index
  std::atomic<uint64_t> limit_{0};   // (epoch << 32) | task count
  std::atomic<uint64_t> pending_{0};
  std::atomic<const std::function<void(size_t, int)>*> fn_{nullptr};
  std::atomic<CancelToken*> cancel_{nullptr};  // this run's token (or null)
  std::atomic<bool> abort_{false};     // set on first task exception
  std::atomic<uint64_t> skipped_{0};   // tasks skipped by the current run

  std::mutex mu_;
  std::condition_variable wake_;  // workers wait here between runs
  std::condition_variable done_;  // run() waits here for pending_ == 0
  uint64_t epoch_ = 0;            // guarded by mu_ (mirrors cursor_ epoch)
  bool stop_ = false;             // guarded by mu_
  std::exception_ptr error_;      // guarded by mu_
};

/// One bounded pool shared by every session of a serving daemon.
///
/// The pool owns `workers` threads. Sessions do not submit fire-and-forget
/// tasks; each session holds a Client (a TaskPool) whose run() registers a
/// *job* — a contiguous task range evaluated as a two-ended deque. The
/// submitting thread drains its own job from the front (ascending indices,
/// preserving the scheduler's prefix-sharing locality) and pool workers
/// steal from the back. Because the owner always drains its own job, every
/// request makes progress even with zero pool workers, and a job can never
/// deadlock waiting for workers tied up elsewhere.
///
/// Victim selection rotates round-robin across the runnable jobs on every
/// steal, so concurrent sessions share the pool fairly regardless of job
/// size or arrival order.
///
/// Worker indices are stable per OS thread for the duration of a job: the
/// submitting thread is always index 0 and pool worker k is always index
/// k + 1, in every job it touches. Client::width() is therefore
/// workers() + 1, and per-worker state (solvers) stays thread-confined even
/// when a worker interleaves steals from several jobs.
class SharedAnalysisPool {
 public:
  /// Spawns `workers` stealing threads (0 is valid: clients then run
  /// serially inline with width() == 1).
  explicit SharedAnalysisPool(int workers);
  ~SharedAnalysisPool();
  SharedAnalysisPool(const SharedAnalysisPool&) = delete;
  SharedAnalysisPool& operator=(const SharedAnalysisPool&) = delete;

  class Client final : public TaskPool {
   public:
    [[nodiscard]] int width() const override;
    void run(size_t n, const std::function<void(size_t, int)>& fn,
             CancelToken* cancel = nullptr) override;
    [[nodiscard]] size_t lastRunSkipped() const override {
      return lastSkipped_;
    }

   private:
    friend class SharedAnalysisPool;
    explicit Client(SharedAnalysisPool* pool) : pool_(pool) {}
    SharedAnalysisPool* pool_;
    size_t lastSkipped_ = 0;
  };

  /// Creates a session handle. The client must not outlive the pool, and
  /// (like WorkPool) each client runs one job at a time from one thread.
  [[nodiscard]] std::unique_ptr<Client> makeClient();

  [[nodiscard]] int workers() const { return nWorkers_; }

  struct Stats {
    int workers = 0;
    int busyWorkers = 0;       // pool workers executing a stolen task now
    int queuedJobs = 0;        // jobs with unclaimed tasks right now
    long long jobsRun = 0;        // Client::run() calls that formed a job
    long long tasksStolen = 0;    // tasks executed by pool workers
    long long tasksOwnerRun = 0;  // tasks executed by submitting threads
  };
  [[nodiscard]] Stats stats() const;

 private:
  // One Client::run() in flight. Lives on the submitting thread's stack;
  // the registry only holds pointers while tasks remain unclaimed, and the
  // owner waits for unfinished == 0 before returning. All fields are
  // guarded by the pool mutex except fn/cancel, which are immutable for the
  // job's lifetime.
  struct Job {
    const std::function<void(size_t, int)>* fn = nullptr;
    CancelToken* cancel = nullptr;
    size_t head = 0;     // next index the owner claims
    size_t tailEx = 0;   // one past the last index a thief claims
    size_t unfinished = 0;
    size_t skipped = 0;
    bool abort = false;
    bool inRunnable = false;
    std::exception_ptr error;
  };

  // All registry operations take mu_. Tasks here are whole solver batches
  // (micro- to milliseconds), so a single lock around O(1) claim
  // bookkeeping is never the bottleneck and keeps the fairness policy easy
  // to reason about.
  void enqueueJob(Job* job);
  void removeRunnable(Job* job);  // requires mu_
  void workerLoop(int worker);

  const int nWorkers_;
  std::vector<std::thread> threads_;

  mutable std::mutex mu_;
  std::condition_variable wake_;  // workers wait for runnable jobs
  std::condition_variable done_;  // owners wait for their job to finish
  bool stop_ = false;
  std::vector<Job*> runnable_;
  size_t rotor_ = 0;  // round-robin cursor over runnable_
  int busy_ = 0;
  long long jobsRun_ = 0;
  long long tasksStolen_ = 0;
  long long tasksOwnerRun_ = 0;
};

}  // namespace formad::support
