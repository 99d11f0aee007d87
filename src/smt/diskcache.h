// Content-addressed verdict store: the one verdict cache, in memory and —
// given a directory (the `-cache-dir` layer) — on disk.
//
// Keeps three tables, each keyed and sharded by a 128-bit Digest its
// caller already accumulates (smt/fingerprint.h), so no lookup hashes,
// copies or compares a whole assertion stack:
//
//   - contexts: one canonical content key per context — the base
//     conjunction below a record's probes, behind its key-space tag
//     (smt::keySpace) — kept once in memory and, from the first record
//     stored under it, once on disk. A caller opens a context
//     (openContext) with the key it derived; the store compares it with
//     the key it holds under that digest, once per context per run, and
//     hands back a ContextHandle.
//   - check records: one VerdictRecord (verdict, decision tier, budget
//     provenance) per (context, probe key), where a Solver's probe key is
//     its innermost push scope. A Solver built over the store
//     (CheckPolicy::servingStore) loads, claims, decides and stores
//     through them. The scheduler's worker solvers keep theirs in memory
//     only: the task record each belongs to carries it to disk.
//   - task records: the outcome of one scheduler QueryTask (consistency
//     probe or pair-probe sequence) as the VerdictRecords of its checks in
//     probe order, keyed by (context, kind tag + ordered probe keys). A
//     task file's payload is a `task <n>` line followed by n check lines,
//     each exactly the line a check file carries. The scheduler splices
//     these into its result table before evaluation, so a warm run of an
//     unchanged context performs ZERO solver checks — not even served
//     ones.
//
// So a record's size, and the cost of finding it, follow its probe keys,
// not its context: a warm analysis pays once per context for its stack
// and once per record for its probes.
//
// Record policy, the same for both record kinds: memory keeps the stronger
// of two records for a key (VerdictRecord::upgrades), and a record is
// written to disk only when it is new or stronger than the one memory
// holds. Loads memoize every record they parse, so a budget-starved run
// can never overwrite the complete records an earlier run persisted.
//
// Each record kind has ONE sharded table. An entry holds the strongest
// record seen, an in-flight claim (single flight, below), or both, and
// every decision about a key — serve, wait, claim, publish, unclaim — is
// made under its shard's one lock.
//
// Durability contract:
//   - a digest only locates candidates. A context is served only when its
//     full canonical key matches the caller's; a record only when its
//     context digest and full probe key match too, in memory and in its
//     file. So a digest collision costs a miss, never another key's
//     record: at the context level the first key kept under a digest
//     holds it — in memory, and in the directory the first key written —
//     and every other key misses; at the record level the last record
//     published holds the slot;
//   - every file ends with an `ok` terminator; corrupt, truncated or
//     previous-format files (torn writes, disk faults, older releases)
//     fall through to recompute and are rewritten — loads NEVER throw;
//   - writes go to a unique temp file and are renamed (records) or
//     linked (contexts, only where none is) into place, so concurrent
//     runs sharing one cache directory never observe partial files;
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
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "smt/fingerprint.h"
#include "smt/solver.h"

namespace formad::support {
class CancelToken;
}

namespace formad::smt {

/// The address of one record: the context it belongs to, its own probe
/// key, and its digest, which names its file and picks its table slot.
/// The digest is the caller's: any pure function of (context, probes) —
/// recordDigest, as Solver and the scheduler use — derived the same way
/// for every store and load. The store never re-hashes a key.
struct RecordKey {
  ContextHandle context;
  std::string_view probes;
  Digest digest;
};

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

  /// Opens the context whose canonical key is `key` under `digest`
  /// (contextDigest). The handle is verified iff the key the store holds
  /// under `digest` equals `key`: the one in memory, else the one in the
  /// context's file, else `key` itself, which the store then keeps. The
  /// context's file is written by the first record stored under it, and
  /// only where none is, so concurrent writers sharing the directory all
  /// verify against its first writer's key; until then no record under it
  /// is read from disk, as none can be there. The comparison is the whole
  /// cost of a context beyond its first open, so callers open a context
  /// once and reuse the handle for every record under it.
  [[nodiscard]] ContextHandle openContext(const Digest& digest,
                                          std::string_view key);

  /// Loads the check verdict stored under `key`, or nullopt when absent,
  /// corrupt, keyed differently (a digest collision), under an unverified
  /// context, or recorded under a budget insufficient for `stepLimit`.
  [[nodiscard]] std::optional<VerdictRecord> loadCheck(const RecordKey& key,
                                                       long long stepLimit);
  /// Keeps `e` under `key` when it is new or stronger, and writes it to
  /// disk unless `toDisk` is false (a task record carries it there); a
  /// no-op under an unverified context.
  void storeCheck(const RecordKey& key, const VerdictRecord& e,
                  bool toDisk = true);

  /// Loads the task record stored under `key`; same guard as loadCheck,
  /// applied to EVERY recorded check (the replayed probe walk matches what
  /// re-derivation under `stepLimit` would produce only if each recorded
  /// verdict does). `probeCount` is the task's probe count, which bounds
  /// what its walk can record: max(probeCount, 1) checks, or fewer that
  /// end in the Unsat that stopped the walk. A payload read from disk that
  /// breaks the bound is malformed and costs a miss, so memory never holds
  /// one and no claim can serve one.
  [[nodiscard]] std::optional<TaskRecord> loadTask(const RecordKey& key,
                                                   long long stepLimit,
                                                   size_t probeCount);
  void storeTask(const RecordKey& key, const TaskRecord& rec);

  // Single flight (duplicate-proof suppression). claimCheck/claimTask gate
  // one evaluation per record digest at a time. A claim serves a record
  // that passes the same key and budget-provenance checks, under the
  // CALLER's step limit, as any load; otherwise the first caller gets an
  // owned FlightClaim and computes, and every concurrent duplicate waits
  // until the owner publishes (storeCheck/storeTask) or unclaims. A
  // publish insufficient for a waiting joiner's budget does not satisfy
  // it: the joiner claims and recomputes under its own budget. Under an
  // unverified context a claim neither serves nor owns: the caller
  // computes, and its publish is a no-op. Dedup changes wall time and
  // IO/dedup counters only, never a verdict.
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
        digest_ = o.digest_;
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
    FlightClaim(PersistentVerdictStore* store, char kind, const Digest& digest,
                unsigned long long token)
        : store_(store), kind_(kind), digest_(digest), token_(token) {}
    /// Unclaims. After the owner published this only drops the handle: the
    /// publish cleared the claim, so the token no longer matches.
    void release();

    PersistentVerdictStore* store_ = nullptr;
    char kind_ = 'c';
    Digest digest_;
    unsigned long long token_ = 0;
  };

  template <class Rec>
  struct Claim {
    std::optional<Rec> served;  // set: result is available
    FlightClaim claim;  // owned() set: caller computes, then stores
  };
  using CheckClaim = Claim<VerdictRecord>;
  using TaskClaim = Claim<TaskRecord>;
  [[nodiscard]] CheckClaim claimCheck(const RecordKey& key,
                                      long long stepLimit,
                                      const support::CancelToken* cancel);
  [[nodiscard]] TaskClaim claimTask(const RecordKey& key, long long stepLimit,
                                    const support::CancelToken* cancel);

  /// Monotone IO counters (relaxed atomics; snapshot semantics only).
  /// Memory hits count toward checkHits/taskHits AND the dedicated memory
  /// counters. Stores count the records kept (new or stronger); only
  /// those reach the disk. Contexts are counted apart from records.
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
    // Contexts read whole from their files, written to their files (kept,
    // for a memory-only store), and found holding another key (a digest
    // collision) when opened or when their file was read.
    long long contextLoads = 0;
    long long contextStores = 0;
    long long contextMismatches = 0;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  static constexpr size_t kShards = 16;

  /// Tables shard on a digest's low lane and hash on its high one.
  struct DigestHash {
    size_t operator()(const Digest& d) const noexcept {
      return static_cast<size_t>(d.hi);
    }
  };

  /// One record kind: its file tag, its one table (sharded by record
  /// digest) and IO counters.
  template <class Rec>
  struct Layer {
    explicit Layer(char k) : kind(k) {}
    /// A digest's state: the strongest record seen with the key it was
    /// stored under, the token of the claim in flight (0 = none), or both.
    /// An entry without a record lives only while it is claimed —
    /// unclaiming erases it — so a miss is never memoized, and a record
    /// another process writes to the shared directory later is still
    /// found.
    struct Entry {
      Digest context;
      std::string probes;
      std::optional<Rec> rec;
      unsigned long long claim = 0;

      /// True when the entry holds a record stored under `key` itself.
      [[nodiscard]] bool holds(const RecordKey& key) const {
        return rec && context == key.context.digest() && probes == key.probes;
      }
    };
    struct Shard {
      std::mutex mu;
      std::condition_variable cv;  // notified when a claim is cleared
      std::unordered_map<Digest, Entry, DigestHash> map;
    };
    [[nodiscard]] Shard& shardFor(const Digest& d) {
      return shards[d.lo % kShards];
    }
    const char kind;
    std::array<Shard, kShards> shards;
    std::atomic<long long> hits{0}, misses{0}, stores{0}, memoryHits{0};
  };

  /// The context table: each digest's canonical key, and what the
  /// directory holds under the digest. Entries are never erased, so the
  /// first key kept under a digest holds it for the store's life.
  struct Context {
    /// Pending: no whole file seen yet, so none can hold a record under
    /// it. Written: the file holds `key`. Foreign: the file holds another
    /// key (a digest collision across processes), so no record under the
    /// digest is read from or written to disk.
    enum class Disk { Pending, Written, Foreign };
    std::string key;
    Disk disk = Disk::Pending;
  };
  struct ContextShard {
    std::mutex mu;
    std::unordered_map<Digest, Context, DigestHash> map;
  };
  [[nodiscard]] ContextShard& contextShard(const Digest& d) {
    return contexts_[d.lo % kShards];
  }
  /// True when records under the verified context `digest` may be read
  /// from and written to disk: its file holds its key. A pending context
  /// is settled by its file: a whole one decides, one that is not whole
  /// is rewritten with the key, and an absent one is created only when
  /// `create` (a publish) — a load misses without reading, as no record
  /// can be on disk before its context.
  [[nodiscard]] bool contextOnDisk(const Digest& digest, bool create);

  // The record-kind-generic bodies of the public loads, stores and claims.
  // `probeCount` bounds a task record's checks (see loadTask); check
  // records ignore it.
  template <class Rec>
  [[nodiscard]] std::optional<Rec> load(Layer<Rec>& layer,
                                        const RecordKey& key,
                                        long long stepLimit,
                                        size_t probeCount);
  template <class Rec>
  void publish(Layer<Rec>& layer, const RecordKey& key, const Rec& rec,
               bool toDisk);
  template <class Rec>
  [[nodiscard]] Claim<Rec> claim(Layer<Rec>& layer, const RecordKey& key,
                                 long long stepLimit,
                                 const support::CancelToken* cancel);
  /// Clears `digest`'s claim if it still carries `token` — a publish may
  /// have cleared it and a later caller claimed again, and a stale handle
  /// must not clobber that claim.
  template <class Rec>
  void unclaim(Layer<Rec>& layer, const Digest& digest,
               unsigned long long token);

  [[nodiscard]] std::string pathFor(char kind, const Digest& digest) const;
  /// Writes the file for (kind, digest) atomically: the magic line,
  /// `body`, then the `ok` terminator. An `exclusive` write places the
  /// file only where none is. True when the file was placed.
  bool writeFile(char kind, const Digest& digest, const std::string& body,
                 bool exclusive = false);
  /// Reads + verifies the record file for (kind, key); returns the payload
  /// lines between the verified key and the `ok` terminator, or nullopt.
  [[nodiscard]] std::optional<std::vector<std::string>> readRecord(
      char kind, const RecordKey& key) const;
  /// The canonical key in `digest`'s context file, or nullopt when the
  /// file is absent (`present` false) or not whole.
  [[nodiscard]] std::optional<std::string> readContext(const Digest& digest,
                                                       bool& present) const;

  std::string dir_;
  std::array<ContextShard, kShards> contexts_;
  Layer<VerdictRecord> checks_{'c'};
  Layer<TaskRecord> tasks_{'t'};
  std::atomic<long long> flightClaims_{0}, flightJoins_{0},
      flightUnclaims_{0};
  std::atomic<long long> contextLoads_{0}, contextStores_{0},
      contextMismatches_{0};
  std::atomic<unsigned long long> claimToken_{1};
  std::atomic<unsigned long long> tmpCounter_{0};
};

}  // namespace formad::smt
