// The shared work-stealing analysis pool (support::SharedAnalysisPool) and
// the single-flight claims of smt::PersistentVerdictStore: every task index
// runs exactly once at any worker count, exceptions and cancellation keep
// WorkPool's semantics, fairness stats behave, duplicate claims join the
// winner's published verdict, an unclaimed (failed) winner hands ownership
// to a joiner instead of wedging it, budget-insufficient publishes do not
// satisfy joiners, a dropped claim leaves no miss behind, a publish that
// lands between a caller's load and its claim serves the claim, and
// concurrent identical analyses through the driver do exactly one cold
// run's worth of fresh work while staying byte-identical.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "driver/driver.h"
#include "formad/formad.h"
#include "kernels/stencil.h"
#include "parser/parser.h"
#include "smt/diskcache.h"
#include "support/cancel.h"
#include "support/pool.h"

namespace {

using namespace formad;
namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag)
      : path(fs::temp_directory_path() /
             (std::string("formad_flight_") + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

// ---------------------------------------------------------------------------
// SharedAnalysisPool: the TaskPool contract.

TEST(SharedPool, EveryIndexRunsExactlyOnceAtAnyWorkerCount) {
  for (int workers : {0, 1, 3, 7}) {
    support::SharedAnalysisPool pool(workers);
    auto client = pool.makeClient();
    EXPECT_EQ(client->width(), workers == 0 ? 1 : workers + 1);
    for (size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{257}}) {
      std::vector<std::atomic<int>> ran(n);
      for (auto& r : ran) r.store(0);
      client->run(n, [&](size_t i, int worker) {
        ASSERT_LT(worker, client->width());
        ran[i].fetch_add(1);
      });
      EXPECT_EQ(client->lastRunSkipped(), 0u);
      for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(ran[i].load(), 1) << "workers=" << workers << " i=" << i;
    }
  }
}

TEST(SharedPool, FirstExceptionRethrownAndRestSkipped) {
  support::SharedAnalysisPool pool(3);
  auto client = pool.makeClient();
  std::atomic<int> executed{0};
  support::CancelToken cancel;
  EXPECT_THROW(
      client->run(
          200,
          [&](size_t i, int) {
            if (i == 0) throw std::runtime_error("boom");
            executed.fetch_add(1);
          },
          &cancel),
      std::runtime_error);
  // The throw cancels the rest: executed + skipped + the thrower cover all
  // 200 indices, and at least some tail was skipped, not executed.
  EXPECT_EQ(executed.load() + static_cast<int>(client->lastRunSkipped()) + 1,
            200);
  EXPECT_TRUE(cancel.cancelled());
}

TEST(SharedPool, FiredCancelTokenSkipsRemainingTasks) {
  support::SharedAnalysisPool pool(2);
  auto client = pool.makeClient();
  support::CancelToken cancel;
  std::atomic<int> executed{0};
  client->run(
      100,
      [&](size_t i, int worker) {
        // Each thief holds its one stolen task until the owner (worker 0,
        // draining 0, 1, 2, 3 from the front) fires the token at index 3,
        // so at most 6 tasks run and at least 94 are skipped.
        while (worker != 0 && !cancel.cancelled()) std::this_thread::yield();
        if (i == 3) cancel.cancel();
        executed.fetch_add(1);
      },
      &cancel);
  EXPECT_GT(client->lastRunSkipped(), 0u);
  EXPECT_EQ(executed.load() + static_cast<int>(client->lastRunSkipped()), 100);
}

TEST(SharedPool, ConcurrentClientsAllCompleteAndShareWorkers) {
  support::SharedAnalysisPool pool(4);
  constexpr int kClients = 6;
  constexpr size_t kTasks = 300;
  std::vector<std::atomic<int>> done(kClients);
  for (auto& d : done) d.store(0);
  std::vector<std::thread> sessions;
  for (int c = 0; c < kClients; ++c) {
    sessions.emplace_back([&pool, &done, c] {
      auto client = pool.makeClient();
      for (int round = 0; round < 3; ++round)
        client->run(kTasks, [&](size_t, int) { done[c].fetch_add(1); });
    });
  }
  for (auto& t : sessions) t.join();
  for (int c = 0; c < kClients; ++c)
    EXPECT_EQ(done[c].load(), static_cast<int>(kTasks) * 3);
  const auto s = pool.stats();
  EXPECT_EQ(s.workers, 4);
  EXPECT_EQ(s.queuedJobs, 0);
  EXPECT_EQ(s.busyWorkers, 0);
  EXPECT_EQ(s.jobsRun, kClients * 3);
  EXPECT_EQ(s.tasksStolen + s.tasksOwnerRun,
            static_cast<long long>(kTasks) * kClients * 3);
}

// ---------------------------------------------------------------------------
// Single flight, store level.

smt::VerdictRecord unsatEntry() {
  smt::VerdictRecord e;
  e.result = smt::CheckResult::Unsat;
  e.tier = 2;
  e.complete = true;
  e.steps = 10;
  return e;
}

TEST(SingleFlight, JoinerIsServedTheWinnersPublishedVerdict) {
  smt::PersistentVerdictStore store("");
  const std::string key = "conj|a=b";

  auto winner = store.claimCheck(key, 0, nullptr);
  ASSERT_FALSE(winner.served.has_value());
  ASSERT_TRUE(winner.claim.owned());

  std::optional<smt::VerdictRecord> joined;
  std::thread joiner([&] {
    auto c = store.claimCheck(key, 0, nullptr);
    // Whether this thread blocked on the claim or probed after the publish
    // resolved it, it must be SERVED — never a second owner.
    ASSERT_TRUE(c.served.has_value());
    EXPECT_FALSE(c.claim.owned());
    joined = c.served;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  store.storeCheck(key, unsatEntry());  // publish resolves the claim

  joiner.join();
  ASSERT_TRUE(joined.has_value());
  EXPECT_EQ(joined->result, smt::CheckResult::Unsat);
  EXPECT_TRUE(joined->complete);
  const auto s = store.stats();
  EXPECT_EQ(s.flightUnclaims, 0);
  EXPECT_GE(s.flightClaims, 1);
}

TEST(SingleFlight, FailedWinnerUnclaimsAndAJoinerRecomputes) {
  smt::PersistentVerdictStore store("");
  const std::string key = "conj|fails";

  std::optional<smt::PersistentVerdictStore::CheckClaim> winner(
      store.claimCheck(key, 0, nullptr));
  ASSERT_TRUE(winner->claim.owned());

  std::atomic<bool> joinerOwned{false};
  std::thread joiner([&] {
    auto c = store.claimCheck(key, 0, nullptr);
    // The winner died without publishing: this thread must be promoted to
    // owner (no hang, no poisoned result) and recompute.
    ASSERT_TRUE(c.claim.owned());
    EXPECT_FALSE(c.served.has_value());
    joinerOwned.store(true);
    store.storeCheck(key, unsatEntry());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  winner.reset();  // simulated mid-flight failure: claim unwinds unpublished

  joiner.join();
  EXPECT_TRUE(joinerOwned.load());
  EXPECT_GE(store.stats().flightUnclaims, 1);
  // The recomputed verdict is available normally.
  const auto e = store.loadCheck(key, 0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->result, smt::CheckResult::Unsat);
}

TEST(SingleFlight, BudgetInsufficientPublishPromotesTheJoiner) {
  smt::PersistentVerdictStore store("");
  const std::string key = "conj|starved";

  auto winner = store.claimCheck(key, /*stepLimit=*/5, nullptr);
  ASSERT_TRUE(winner.claim.owned());

  std::thread joiner([&] {
    // Unlimited-budget caller: the winner's exhausted verdict (recorded
    // under limit 5) fails the provenance guard, so this thread must come
    // back OWNING the claim to recompute under its own budget — joins are
    // served through the same budget guard as any cache hit.
    auto c = store.claimCheck(key, /*stepLimit=*/0, nullptr);
    EXPECT_TRUE(c.claim.owned());
    EXPECT_FALSE(c.served.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  smt::VerdictRecord starved;
  starved.result = smt::CheckResult::Unknown;
  starved.tier = 2;
  starved.complete = false;
  starved.steps = 5;  // exhausted at limit 5
  store.storeCheck(key, starved);

  joiner.join();
  // A budget-5 caller, by contrast, IS satisfied by the starved entry.
  const auto e = store.loadCheck(key, 5);
  ASSERT_TRUE(e.has_value());
  EXPECT_FALSE(e->complete);
}

TEST(SingleFlight, WaitingJoinerHonorsCancellation) {
  smt::PersistentVerdictStore store("");
  const std::string key = "conj|stalled";
  auto winner = store.claimCheck(key, 0, nullptr);
  ASSERT_TRUE(winner.claim.owned());

  support::CancelToken cancel;
  cancel.armDeadline(60);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)store.claimCheck(key, 0, &cancel), support::Cancelled);
  const auto waited = std::chrono::steady_clock::now() - t0;
  // Bounded waits poll the token: a stalled winner cannot wedge a joiner
  // past its own deadline (generous ceiling for slow CI machines).
  EXPECT_LT(waited, std::chrono::seconds(5));
}

TEST(SingleFlight, TaskClaimsJoinAndUnclaimLikeCheckClaims) {
  smt::PersistentVerdictStore store("");
  const std::string key = "task|base+probes";
  const std::string digest = "0123456789abcdef0123456789abcdef";

  auto winner = store.claimTask(key, 0, nullptr);
  ASSERT_TRUE(winner.claim.owned());
  ASSERT_FALSE(winner.served.has_value());

  std::optional<smt::PersistentVerdictStore::TaskRecord> joined;
  std::thread joiner([&] {
    auto c = store.claimTask(key, 0, nullptr);
    ASSERT_TRUE(c.served.has_value());
    EXPECT_FALSE(c.claim.owned());
    joined = c.served;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const smt::PersistentVerdictStore::TaskRecord rec{
      {{smt::CheckResult::Sat, 2, true, 4},
       {smt::CheckResult::Unsat, 2, true, 9}}};
  store.storeTask(key, rec, digest);

  joiner.join();
  ASSERT_TRUE(joined.has_value());
  EXPECT_TRUE(joined->proved());
  EXPECT_EQ(joined->checks, rec.checks);
}

TEST(SingleFlight, DroppedClaimLeavesNoMissBehind) {
  // A claim's entry holds no record; dropping the claim unpublished must
  // leave nothing that hides a record another process persists later.
  TempDir dir("dropped");
  smt::PersistentVerdictStore a(dir.path.string());
  smt::PersistentVerdictStore b(dir.path.string());
  const std::string key = "conj|dropped";
  {
    auto dropped = a.claimCheck(key, 0, nullptr);
    ASSERT_TRUE(dropped.claim.owned());
  }
  b.storeCheck(key, unsatEntry());

  const auto loaded = a.loadCheck(key, 0);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->result, smt::CheckResult::Unsat);
  EXPECT_EQ(a.stats().checkHits, 1);
  EXPECT_EQ(a.stats().checkMemoryHits, 0);  // served from disk

  auto c = a.claimCheck(key, 0, nullptr);
  ASSERT_TRUE(c.served.has_value());
  EXPECT_FALSE(c.claim.owned());
}

TEST(SingleFlight, PublishBetweenLoadAndClaimServesTheClaim) {
  // Another solver publishes after this caller's load missed: the claim
  // must serve that record, taking no ownership it then has to drop.
  smt::PersistentVerdictStore store("");
  const std::string key = "conj|raced";
  ASSERT_FALSE(store.loadCheck(key, 0).has_value());
  store.storeCheck(key, unsatEntry());

  auto c = store.claimCheck(key, 0, nullptr);
  ASSERT_TRUE(c.served.has_value());
  EXPECT_FALSE(c.claim.owned());
  EXPECT_EQ(c.served->result, smt::CheckResult::Unsat);
  const auto s = store.stats();
  EXPECT_EQ(s.flightClaims, 0);
  EXPECT_EQ(s.flightUnclaims, 0);
}

// ---------------------------------------------------------------------------
// End to end: concurrent identical analyses over one shared store perform
// exactly one cold run's worth of fresh work, byte-identically.

struct Analyzed {
  std::unique_ptr<ir::Kernel> kernel;
  core::KernelAnalysis analysis;
};

std::string reportOf(const Analyzed& a) {
  return core::describe(a.analysis, false) + core::describeTiers(a.analysis);
}

Analyzed analyzeStencil(smt::PersistentVerdictStore* store) {
  const auto spec = kernels::stencilSpec(4);
  driver::DriverOptions opts;
  opts.checks.store = store;
  auto kernel = parser::parseKernel(spec.source);
  auto analysis = driver::analyze(*kernel, spec.independents, spec.dependents,
                                  opts);
  return {std::move(kernel), std::move(analysis)};
}

TEST(SingleFlight, ConcurrentIdenticalAnalysesDoOneColdRunOfFreshWork) {
  // Reference: one serial cold run on a private store.
  smt::PersistentVerdictStore refStore("");
  const Analyzed ref = analyzeStencil(&refStore);
  const std::string refReport = reportOf(ref);
  const long long uniqueTasks = ref.analysis.tasksPersisted();
  const long long uniqueChecks = ref.analysis.freshSolverChecks();
  ASSERT_GT(uniqueTasks, 0);
  ASSERT_GT(uniqueChecks, 0);

  // 8 threads race the identical analysis against one cold shared store.
  smt::PersistentVerdictStore store("");
  constexpr int kRuns = 8;
  std::vector<Analyzed> runs(kRuns);
  std::vector<std::thread> threads;
  for (int r = 0; r < kRuns; ++r)
    threads.emplace_back([&runs, &store, r] { runs[r] = analyzeStencil(&store); });
  for (auto& t : threads) t.join();

  long long persisted = 0, fresh = 0;
  for (const auto& run : runs) {
    EXPECT_EQ(reportOf(run), refReport);  // byte-identical under racing
    persisted += run.analysis.tasksPersisted();
    fresh += run.analysis.freshSolverChecks();
    // Accounting closes: every task was spliced, joined, or persisted.
    EXPECT_EQ(run.analysis.tasksSpliced() + run.analysis.tasksJoined() +
                  run.analysis.tasksPersisted(),
              ref.analysis.tasksSpliced() + ref.analysis.tasksJoined() +
                  ref.analysis.tasksPersisted());
  }
  // The single-flight guarantee: ACROSS ALL EIGHT racing runs, each unique
  // conjunction was evaluated exactly once — total fresh work equals one
  // cold run, duplicates joined instead of recomputing.
  EXPECT_EQ(persisted, uniqueTasks);
  EXPECT_EQ(fresh, uniqueChecks);
  EXPECT_EQ(store.stats().taskStores, uniqueTasks);
  EXPECT_EQ(store.stats().flightUnclaims, 0);
}

}  // namespace
