#include "support/pool.h"

#include <algorithm>
#include <cstddef>

namespace formad::support {

namespace {

/// Both pools' inline serial path: runs fn(i, 0) for every i in [0, n) on
/// the calling thread, polling `cancel` before each task, and returns how
/// many indices the fired token skipped. A thrown task unwinds out of the
/// loop, so "first exception cancels the rest" holds here for free.
size_t runInline(size_t n, const std::function<void(size_t, int)>& fn,
                 CancelToken* cancel) {
  for (size_t i = 0; i < n; ++i) {
    if (cancel != nullptr && cancel->poll()) return n - i;
    fn(i, 0);
  }
  return 0;
}

}  // namespace

WorkPool::WorkPool(int threads) : width_(std::max(1, threads)) {
  workers_.reserve(static_cast<size_t>(width_ - 1));
  for (int w = 1; w < width_; ++w)
    workers_.emplace_back([this, w] { workerLoop(w); });
}

WorkPool::~WorkPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : workers_) t.join();
}

int WorkPool::hardwareWidth() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void WorkPool::run(size_t n, const std::function<void(size_t, int)>& fn,
                   CancelToken* cancel) {
  skipped_.store(0, std::memory_order_relaxed);
  abort_.store(false, std::memory_order_relaxed);
  if (n == 0) return;
  if (width_ == 1 || n == 1) {
    // No publication, no wakeups.
    skipped_.store(runInline(n, fn, cancel), std::memory_order_release);
    return;
  }
  uint64_t epoch;
  {
    std::lock_guard<std::mutex> lk(mu_);
    epoch = ++epoch_;
    pending_.store(n, std::memory_order_relaxed);
    fn_.store(&fn, std::memory_order_relaxed);
    cancel_.store(cancel, std::memory_order_relaxed);
    limit_.store((epoch << kEpochShift) | n, std::memory_order_release);
    // Publishing the cursor opens the epoch for claiming: workers claim
    // tickets with an acq_rel RMW on cursor_, which synchronizes with this
    // release store.
    cursor_.store(epoch << kEpochShift, std::memory_order_release);
  }
  wake_.notify_all();

  drain(0);

  std::unique_lock<std::mutex> lk(mu_);
  done_.wait(lk, [this] { return pending_.load() == 0; });
  fn_.store(nullptr, std::memory_order_relaxed);
  cancel_.store(nullptr, std::memory_order_relaxed);
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    lk.unlock();
    std::rethrow_exception(e);
  }
}

void WorkPool::drain(int worker) {
  while (true) {
    uint64_t ticket = cursor_.fetch_add(1, std::memory_order_acq_rel);
    uint64_t epoch = ticket >> kEpochShift;
    uint64_t index = ticket & kIndexMask;
    uint64_t limit = limit_.load(std::memory_order_acquire);
    // Honor the claim only if the ticket belongs to the epoch limit_
    // currently describes and its index is in range. A stale ticket (drawn
    // for an epoch that has since completed) fails the epoch comparison, so
    // it can never be validated against a later run's task count. A ticket
    // that passes pins its run: pending_ cannot reach zero until this task
    // executes, so fn_ still points at this epoch's descriptor.
    if ((limit >> kEpochShift) != epoch || index >= (limit & kIndexMask))
      return;
    const auto* fn = fn_.load(std::memory_order_acquire);
    CancelToken* cancel = cancel_.load(std::memory_order_acquire);
    // A claimed task still decrements pending_ when skipped — otherwise
    // run() would wait forever for tasks that never execute.
    if (abort_.load(std::memory_order_acquire) ||
        (cancel != nullptr && cancel->poll())) {
      skipped_.fetch_add(1, std::memory_order_acq_rel);
    } else {
      try {
        (*fn)(index, worker);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lk(mu_);
          if (!error_) error_ = std::current_exception();
        }
        // First exception cancels the rest of the run: surviving workers
        // skip at their next claim, and (via the token) in-flight solver
        // checks unwind at their next cooperative poll.
        abort_.store(true, std::memory_order_release);
        if (cancel != nullptr) cancel->cancel();
      }
    }
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last task: wake the owner. Taking the mutex orders this notify
      // against the owner's predicate check, so the wakeup cannot be lost.
      std::lock_guard<std::mutex> lk(mu_);
      done_.notify_all();
    }
  }
}

void WorkPool::workerLoop(int worker) {
  uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      wake_.wait(lk, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
    }
    drain(worker);
  }
}

SharedAnalysisPool::SharedAnalysisPool(int workers)
    : nWorkers_(std::max(0, workers)) {
  threads_.reserve(static_cast<size_t>(nWorkers_));
  for (int w = 0; w < nWorkers_; ++w)
    threads_.emplace_back([this, w] { workerLoop(w); });
}

SharedAnalysisPool::~SharedAnalysisPool() {
  // Callers must have finished every Client::run() first (jobs live on the
  // submitting threads' stacks); the daemon joins its sessions before the
  // pool member is destroyed.
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

std::unique_ptr<SharedAnalysisPool::Client> SharedAnalysisPool::makeClient() {
  return std::unique_ptr<Client>(new Client(this));
}

int SharedAnalysisPool::Client::width() const { return pool_->nWorkers_ + 1; }

void SharedAnalysisPool::Client::setPriority(int priority) {
  priority_ = std::min(kPriorityClasses - 1, std::max(0, priority));
}

void SharedAnalysisPool::Client::run(
    size_t n, const std::function<void(size_t, int)>& fn,
    CancelToken* cancel) {
  lastSkipped_ = 0;
  if (n == 0) return;
  if (pool_->nWorkers_ == 0 || n == 1) {
    lastSkipped_ = runInline(n, fn, cancel);
    return;
  }

  Job job;
  job.fn = &fn;
  job.cancel = cancel;
  job.tailEx = n;
  job.unfinished = n;
  job.priority = priority_;
  pool_->enqueueJob(&job);

  // Owner drain: claim ascending from the front. Thieves take the back, so
  // the owner keeps the scheduler's prefix-sharing locality for the portion
  // it evaluates itself.
  for (;;) {
    size_t idx;
    {
      std::lock_guard<std::mutex> lk(pool_->mu_);
      if (job.head >= job.tailEx) break;
      if (job.abort || (cancel != nullptr && cancel->poll())) {
        // Skipped claims still count down unfinished — otherwise the wait
        // below would never finish for tasks that never execute.
        const size_t left = job.tailEx - job.head;
        job.skipped += left;
        job.unfinished -= left;
        job.head = job.tailEx;
        pool_->removeRunnable(&job);
        break;
      }
      idx = job.head++;
      if (job.head >= job.tailEx) pool_->removeRunnable(&job);
      ++pool_->tasksOwnerRun_;
    }
    try {
      fn(idx, 0);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(pool_->mu_);
        if (!job.error) job.error = std::current_exception();
        job.abort = true;
      }
      // First exception cancels the rest of the job, and (via the token)
      // in-flight solver checks unwind at their next cooperative poll.
      if (cancel != nullptr) cancel->cancel();
    }
    std::lock_guard<std::mutex> lk(pool_->mu_);
    --job.unfinished;  // the owner is the only waiter; no self-notify
  }

  std::unique_lock<std::mutex> lk(pool_->mu_);
  pool_->done_.wait(lk, [&] { return job.unfinished == 0; });
  pool_->removeRunnable(&job);  // idempotent; normally already delisted
  lastSkipped_ = job.skipped;
  if (job.error) {
    std::exception_ptr e = job.error;
    lk.unlock();
    std::rethrow_exception(e);
  }
}

void SharedAnalysisPool::enqueueJob(Job* job) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++jobsRun_;
    job->inRunnable = true;
    runnable_[static_cast<size_t>(job->priority)].push_back(job);
  }
  wake_.notify_all();
}

void SharedAnalysisPool::removeRunnable(Job* job) {
  if (!job->inRunnable) return;
  auto& list = runnable_[static_cast<size_t>(job->priority)];
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i] == job) {
      list.erase(list.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  job->inRunnable = false;
}

SharedAnalysisPool::Job* SharedAnalysisPool::pickVictim() {
  for (size_t p = 0; p < static_cast<size_t>(kPriorityClasses); ++p) {
    auto& list = runnable_[p];
    if (list.empty()) continue;
    // Rotate across jobs of the class on every steal: with J runnable jobs
    // each gets ~1/J of the workers regardless of size or arrival order.
    return list[rotor_[p]++ % list.size()];
  }
  return nullptr;
}

void SharedAnalysisPool::workerLoop(int worker) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    wake_.wait(lk, [&] {
      if (stop_) return true;
      for (const auto& list : runnable_)
        if (!list.empty()) return true;
      return false;
    });
    if (stop_) return;
    Job* job = pickVictim();
    if (job == nullptr) continue;
    if (job->abort ||
        (job->cancel != nullptr && job->cancel->poll())) {
      const size_t left = job->tailEx - job->head;
      job->skipped += left;
      job->unfinished -= left;
      job->head = job->tailEx;
      removeRunnable(job);
      if (job->unfinished == 0) done_.notify_all();
      continue;
    }
    // Steal from the back of the deque.
    const size_t idx = --job->tailEx;
    if (job->head >= job->tailEx) removeRunnable(job);
    ++tasksStolen_;
    ++busy_;
    const auto* fn = job->fn;
    CancelToken* cancel = job->cancel;
    lk.unlock();
    try {
      (*fn)(idx, worker + 1);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk2(mu_);
        if (!job->error) job->error = std::current_exception();
        job->abort = true;
      }
      if (cancel != nullptr) cancel->cancel();
    }
    lk.lock();
    --busy_;
    // After this decrement-and-notify the job may be destroyed by its
    // owner; it must not be touched again (and is not: the next iteration
    // picks a fresh victim).
    if (--job->unfinished == 0) done_.notify_all();
  }
}

SharedAnalysisPool::Stats SharedAnalysisPool::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s;
  s.workers = nWorkers_;
  s.busyWorkers = busy_;
  for (size_t p = 0; p < static_cast<size_t>(kPriorityClasses); ++p) {
    s.queuedByPriority[p] = static_cast<int>(runnable_[p].size());
    s.queuedJobs += s.queuedByPriority[p];
  }
  s.jobsRun = jobsRun_;
  s.tasksStolen = tasksStolen_;
  s.tasksOwnerRun = tasksOwnerRun_;
  return s;
}

}  // namespace formad::support
