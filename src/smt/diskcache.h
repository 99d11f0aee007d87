// Content-addressed verdict store: the one verdict cache, in memory and —
// given a directory (the `-cache-dir` layer) — on disk.
//
// Keeps two record kinds, both keyed by canonical CONTENT fingerprints
// (smt/fingerprint.h) so any solver or process that builds the same
// logical conjunction — regardless of atom interning order — addresses the
// same entry:
//
//   - check records: one VerdictRecord (verdict, decision tier, budget
//     provenance) per conjunction fingerprint. A Solver built over the
//     store (CheckPolicy::servingStore) loads, claims, decides and stores
//     through them.
//   - task records: the outcome of one scheduler QueryTask (consistency
//     probe or pair-probe sequence) as the VerdictRecords of its checks in
//     probe order, keyed by base-conjunction fingerprint plus the ordered
//     probe keys. A task file's payload is a `task <n>` line followed by
//     n check lines, each exactly the line a check file carries. The
//     scheduler splices these into its result table before evaluation, so
//     a warm run of an unchanged context performs ZERO solver checks — not
//     even served ones.
//
// Record policy, the same for both kinds: memory keeps the stronger of two
// records for a key (VerdictRecord::upgrades), and a record is written to
// disk only when it is new or stronger than the one memory holds. Loads
// memoize every record they parse, so a budget-starved run can never
// overwrite the complete records an earlier run persisted.
//
// Each record kind has ONE sharded table. An entry holds the strongest
// record seen, an in-flight claim (single flight, below), or both, and
// every decision about a key — serve, wait, claim, publish, unclaim — is
// made under its shard's one lock.
//
// Durability contract:
//   - every file carries its FULL key and is verified byte-for-byte on
//     load; the 128-bit digest in the file name only locates candidates,
//     so a digest collision costs a miss, never a wrong verdict;
//   - files end with an `ok` terminator; corrupt or truncated files (torn
//     writes, disk faults, concurrent writers on non-POSIX filesystems)
//     fall through to recompute — loads NEVER throw;
//   - writes go to a unique temp file and are renamed into place, so
//     concurrent runs sharing one cache directory never observe partial
//     records;
//   - budget provenance rides along, and every load — memory or disk —
//     re-applies VerdictRecord::sufficientFor under the CALLER's step
//     limit: a budget-starved Unknown persisted by one run can never
//     poison a later unlimited run, and vice versa. Records are pure
//     functions of their content key and budget provenance, so serving
//     one changes IO counters and wall time only, never a verdict.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "smt/solver.h"

namespace formad::support {
class CancelToken;
}

namespace formad::smt {

/// Thread-safe verdict store. Safe to share between all solvers and
/// schedulers of a run, between the sessions of a daemon, and — through
/// its directory — between concurrent processes.
class PersistentVerdictStore {
 public:
  /// Opens (creating if needed) the store directory. An EMPTY `dir`
  /// yields a memory-only store: a process-wide verdict cache with no
  /// persistence (what `formad_serve` uses when no -cache-dir is given).
  /// Throws formad::Error when the directory cannot be created.
  explicit PersistentVerdictStore(std::string dir);

  /// Outcome of one persisted scheduler task: the record of each check it
  /// performed, in probe order. The probe walk stops at the first Unsat,
  /// so only the last check can be Unsat; a payload read from disk that
  /// breaks this, holds no check, or breaks loadTask's probe-count bound
  /// is malformed and costs a miss.
  struct TaskRecord {
    std::vector<VerdictRecord> checks;

    /// True iff the last check is Unsat: a consistency task found its base
    /// contradictory, a pair task proved its pair disjoint.
    [[nodiscard]] bool proved() const {
      return !checks.empty() && checks.back().result == CheckResult::Unsat;
    }
  };

  /// Loads the check verdict stored under `key`, or nullopt when absent,
  /// corrupt, keyed differently (digest collision), or recorded under a
  /// budget insufficient for `stepLimit`.
  [[nodiscard]] std::optional<VerdictRecord> loadCheck(const std::string& key,
                                                       long long stepLimit);
  void storeCheck(const std::string& key, const VerdictRecord& e);

  /// Loads the task record stored under `key`; same guard as loadCheck,
  /// applied to EVERY recorded check (the replayed probe walk matches what
  /// re-derivation under `stepLimit` would produce only if each recorded
  /// verdict does). `probes` is the task's probe count, which bounds what
  /// its walk can record: max(probes, 1) checks, or fewer that end in the
  /// Unsat that stopped the walk. A payload read from disk that breaks
  /// the bound is malformed and costs a miss, so memory never holds one
  /// and no claim can serve one. `digest` names the file: the caller
  /// supplies any 32-hex digest that is a pure function of task content
  /// and uses the same derivation for store and load (the scheduler
  /// accumulates its structural digest in O(1) along the base prefix tree
  /// — see QueryTask::digest — so the multi-KB key is never re-walked
  /// here).
  /// Correctness never depends on the naming scheme: the full key is
  /// verified byte-for-byte on every load, so a digest collision costs a
  /// miss, never a wrong verdict.
  [[nodiscard]] std::optional<TaskRecord> loadTask(const std::string& key,
                                                   long long stepLimit,
                                                   size_t probes,
                                                   const std::string& digest);
  void storeTask(const std::string& key, const TaskRecord& rec,
                 const std::string& digest);

  // Single flight (duplicate-proof suppression). claimCheck/claimTask gate
  // one evaluation per content fingerprint at a time. A claim serves a
  // record that passes the same budget-provenance guard, under the
  // CALLER's step limit, as any load; otherwise the first caller gets an
  // owned FlightClaim and computes, and every concurrent duplicate waits
  // until the owner publishes (storeCheck/storeTask) or unclaims. A
  // publish insufficient for a waiting joiner's budget does not satisfy
  // it: the joiner claims and recomputes under its own budget. Dedup
  // changes wall time and IO/dedup counters only, never a verdict.
  //
  // Claims read memory only, so a caller loads first: every publish in
  // this process lands in memory before it clears its claim, so a record
  // published between the load and the claim serves the claim. A record
  // another process writes in that window is recomputed — time, never a
  // verdict.
  //
  // `cancel`, when non-null, is polled while waiting; a fired token throws
  // support::Cancelled, so a joiner can never hang on a stalled winner
  // past its own deadline.

  /// RAII handle for one owned claim. Publishing clears the claim and
  /// wakes every waiter. If the owner unwinds without publishing
  /// (cancellation, deadline, injected fault), destruction unclaims and
  /// the first waiter to look again becomes the new owner: failure costs a
  /// recompute, never a leaked claim or a poisoned result.
  class FlightClaim {
   public:
    FlightClaim() = default;
    FlightClaim(FlightClaim&& o) noexcept { *this = std::move(o); }
    FlightClaim& operator=(FlightClaim&& o) noexcept {
      if (this != &o) {
        release();
        store_ = std::exchange(o.store_, nullptr);
        kind_ = o.kind_;
        key_ = std::move(o.key_);
        token_ = o.token_;
      }
      return *this;
    }
    FlightClaim(const FlightClaim&) = delete;
    FlightClaim& operator=(const FlightClaim&) = delete;
    ~FlightClaim() { release(); }

    /// True for a handle claimCheck/claimTask handed ownership; false for
    /// default-constructed (inert) and moved-from handles.
    [[nodiscard]] bool owned() const { return store_ != nullptr; }

   private:
    friend class PersistentVerdictStore;
    FlightClaim(PersistentVerdictStore* store, char kind, std::string key,
                unsigned long long token)
        : store_(store), kind_(kind), key_(std::move(key)), token_(token) {}
    /// Unclaims. After the owner published this only drops the handle: the
    /// publish cleared the claim, so the token no longer matches.
    void release();

    PersistentVerdictStore* store_ = nullptr;
    char kind_ = 'c';
    std::string key_;
    unsigned long long token_ = 0;
  };

  template <class Rec>
  struct Claim {
    std::optional<Rec> served;  // set: result is available
    FlightClaim claim;  // owned() set: caller computes, then stores
  };
  using CheckClaim = Claim<VerdictRecord>;
  using TaskClaim = Claim<TaskRecord>;
  [[nodiscard]] CheckClaim claimCheck(const std::string& key,
                                      long long stepLimit,
                                      const support::CancelToken* cancel);
  [[nodiscard]] TaskClaim claimTask(const std::string& key,
                                    long long stepLimit,
                                    const support::CancelToken* cancel);

  /// Monotone IO counters (relaxed atomics; snapshot semantics only).
  /// Memory hits count toward checkHits/taskHits AND the dedicated memory
  /// counters. Stores count the records kept (new or stronger); only
  /// those reach the disk.
  struct Stats {
    long long checkHits = 0;
    long long checkMisses = 0;
    long long checkStores = 0;
    long long taskHits = 0;
    long long taskMisses = 0;
    long long taskStores = 0;
    long long checkMemoryHits = 0;
    long long taskMemoryHits = 0;
    // Single-flight dedup counters (checks + tasks combined): ownership
    // grants, results served to a caller that waited on another's claim,
    // and claims released without publishing.
    long long flightClaims = 0;
    long long flightJoins = 0;
    long long flightUnclaims = 0;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  static constexpr size_t kShards = 16;

  /// One record kind: its file tag, its one table (sharded by content
  /// key) and IO counters.
  template <class Rec>
  struct Layer {
    explicit Layer(char k) : kind(k) {}
    /// A key's state: the strongest record seen, the token of the claim in
    /// flight (0 = none), or both. An entry without a record lives only
    /// while it is claimed — unclaiming erases it — so a miss is never
    /// memoized, and a record another process writes to the shared
    /// directory later is still found.
    struct Entry {
      std::optional<Rec> rec;
      unsigned long long claim = 0;
    };
    struct Shard {
      std::mutex mu;
      std::condition_variable cv;  // notified when a claim is cleared
      std::unordered_map<std::string, Entry> map;
    };
    [[nodiscard]] Shard& shardFor(const std::string& key) {
      return shards[fnv1a64(key) % kShards];
    }
    const char kind;
    std::array<Shard, kShards> shards;
    std::atomic<long long> hits{0}, misses{0}, stores{0}, memoryHits{0};
  };

  // The record-kind-generic bodies of the public loads, stores and claims.
  // `digest` names the file: caller-supplied for task records, nullptr
  // (contentDigest(key)) for check records. `probes` bounds a task
  // record's checks (see loadTask); check records ignore it.
  template <class Rec>
  [[nodiscard]] std::optional<Rec> load(Layer<Rec>& layer,
                                        const std::string& key,
                                        long long stepLimit, size_t probes,
                                        const std::string* digest);
  template <class Rec>
  void publish(Layer<Rec>& layer, const std::string& key, const Rec& rec,
               const std::string* digest);
  template <class Rec>
  [[nodiscard]] Claim<Rec> claim(Layer<Rec>& layer, const std::string& key,
                                 long long stepLimit,
                                 const support::CancelToken* cancel);
  /// Clears `key`'s claim if it still carries `token` — a publish may have
  /// cleared it and a later caller claimed again, and a stale handle must
  /// not clobber that claim.
  template <class Rec>
  void unclaim(Layer<Rec>& layer, const std::string& key,
               unsigned long long token);

  [[nodiscard]] std::string pathFor(char kind, const std::string& key,
                                    const std::string* digest) const;
  /// Writes `payload` atomically to the final path for (kind, key).
  void writeRecord(char kind, const std::string& key,
                   const std::string& payload, const std::string* digest);
  /// Reads + verifies the record file for (kind, key); returns the payload
  /// lines between the verified key and the `ok` terminator, or nullopt.
  [[nodiscard]] std::optional<std::vector<std::string>> readRecord(
      char kind, const std::string& key, const std::string* digest) const;

  std::string dir_;
  Layer<VerdictRecord> checks_{'c'};
  Layer<TaskRecord> tasks_{'t'};
  std::atomic<long long> flightClaims_{0}, flightJoins_{0},
      flightUnclaims_{0};
  std::atomic<unsigned long long> claimToken_{1};
  std::atomic<unsigned long long> tmpCounter_{0};
};

}  // namespace formad::smt
