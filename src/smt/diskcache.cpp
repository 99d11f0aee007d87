#include "smt/diskcache.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>
#include <utility>

#include "support/cancel.h"
#include "support/diagnostics.h"

namespace formad::smt {

namespace fs = std::filesystem;

namespace {

constexpr const char* kMagic = "formadvc 2";

const char* verdictTag(CheckResult r) {
  switch (r) {
    case CheckResult::Sat: return "sat";
    case CheckResult::Unsat: return "unsat";
    case CheckResult::Unknown: return "unknown";
  }
  return "?";
}

std::optional<CheckResult> parseVerdict(const std::string& tag) {
  if (tag == "sat") return CheckResult::Sat;
  if (tag == "unsat") return CheckResult::Unsat;
  if (tag == "unknown") return CheckResult::Unknown;
  return std::nullopt;
}

/// A task record replays the probe walk re-derivation under `stepLimit`
/// would produce only if EVERY recorded check passes the guard; then
/// induction over the probe sequence gives the same walk, same stopping
/// point, same verdict.
bool sufficientFor(const PersistentVerdictStore::TaskRecord& rec,
                   long long stepLimit) {
  return std::all_of(rec.checks.begin(), rec.checks.end(),
                     [&](const VerdictRecord& c) {
                       return c.sufficientFor(stepLimit);
                     });
}

bool sufficientFor(const VerdictRecord& e, long long stepLimit) {
  return e.sufficientFor(stepLimit);
}

/// The budget provenance of a whole task record as one VerdictRecord, so
/// both record kinds share VerdictRecord::upgrades: complete when every
/// check is, needing its costliest check's steps; otherwise exhausted at
/// its smallest exhaustion limit, which bounds every budget it serves.
VerdictRecord provenance(const PersistentVerdictStore::TaskRecord& rec) {
  VerdictRecord p;
  for (const VerdictRecord& c : rec.checks) {
    if (!c.complete) {
      if (p.complete || c.steps < p.steps) p.steps = c.steps;
      p.complete = false;
    } else if (p.complete) {
      p.steps = std::max(p.steps, c.steps);
    }
  }
  return p;
}

const VerdictRecord& provenance(const VerdictRecord& e) { return e; }

/// Keeps the stronger of `rec` and the record `held` holds; true when
/// `rec` was kept (new or stronger).
template <class Rec>
bool keepStronger(std::optional<Rec>& held, const Rec& rec) {
  if (held && !provenance(rec).upgrades(provenance(*held))) return false;
  held = rec;
  return true;
}

std::string render(const VerdictRecord& e) {
  std::string payload = "verdict ";
  payload += verdictTag(e.result);
  payload += ' ';
  payload += std::to_string(e.tier);
  payload += e.complete ? " 1 " : " 0 ";
  payload += std::to_string(e.steps);
  payload += '\n';
  return payload;
}

std::string render(const PersistentVerdictStore::TaskRecord& rec) {
  std::string payload = "task " + std::to_string(rec.checks.size()) + '\n';
  for (const VerdictRecord& c : rec.checks) payload += render(c);
  return payload;
}

/// Parses one check line, the one payload line of a check file.
bool parseCheck(const std::string& line, VerdictRecord& e) {
  std::istringstream is(line);
  std::string tag, verdict;
  int complete = -1;
  if (!(is >> tag >> verdict >> e.tier >> complete >> e.steps) ||
      tag != "verdict" || (complete != 0 && complete != 1) || e.tier < 0 ||
      e.tier > 2)
    return false;
  const auto r = parseVerdict(verdict);
  if (!r) return false;
  e.result = *r;
  e.complete = complete != 0;
  return true;
}

bool parse(const std::vector<std::string>& payload, VerdictRecord& e,
           size_t /*probes*/) {
  return payload.size() == 1 && parseCheck(payload[0], e);
}

/// A walk over `probes` probes checks each in turn (a consistency task,
/// with none, checks once) and stops at the first Unsat: any other check
/// list marks a payload no walk of this task wrote.
bool parse(const std::vector<std::string>& payload,
           PersistentVerdictStore::TaskRecord& rec, size_t probes) {
  if (payload.empty()) return false;
  std::istringstream head(payload[0]);
  std::string tag;
  size_t n = 0;
  const size_t walk = std::max<size_t>(probes, 1);
  if (!(head >> tag >> n) || tag != "task" || n == 0 || n > walk ||
      payload.size() != n + 1)
    return false;
  rec.checks.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (!parseCheck(payload[i + 1], rec.checks[i]) ||
        (i + 1 < n && rec.checks[i].result == CheckResult::Unsat))
      return false;
  }
  return n == walk || rec.proved();
}

/// Keeps `rec` for `key` in `entry` when it is new, stronger than the
/// record the entry holds for the same key, or the entry holds another
/// key's record (a digest collision: the last key kept wins the slot).
/// True when kept.
template <class Entry, class Rec>
bool keep(Entry& entry, const RecordKey& key, const Rec& rec) {
  const bool same =
      entry.context == key.context.digest() && entry.probes == key.probes;
  if (same) return keepStronger(entry.rec, rec);
  entry.context = key.context.digest();
  entry.probes = key.probes;
  entry.rec = rec;
  return true;
}

}  // namespace

PersistentVerdictStore::PersistentVerdictStore(std::string dir)
    : dir_(std::move(dir)) {
  if (dir_.empty()) return;  // memory-only: no filesystem involvement
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_, ec))
    fail("cache directory '" + dir_ + "' cannot be created: " + ec.message());
}

std::string PersistentVerdictStore::pathFor(char kind,
                                            const Digest& digest) const {
  return dir_ + "/" + kind + digest.hex() + ".fvc";
}

bool PersistentVerdictStore::writeFile(char kind, const Digest& digest,
                                       const std::string& body,
                                       bool exclusive) {
  // Unique temp name: concurrent writers (threads or whole processes
  // sharing the directory) never collide, and the final rename or link is
  // atomic — readers see either no file or a complete one.
  const unsigned long long n =
      tmpCounter_.fetch_add(1, std::memory_order_relaxed);
  const std::string tmp =
      dir_ + "/.tmp-" + kind + digest.hex() + "-" +
      std::to_string(reinterpret_cast<std::uintptr_t>(this)) + "-" +
      std::to_string(n);
  std::error_code ec;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;  // best effort: an unwritable store is a slow one
    out << kMagic << ' ' << kind << '\n' << body << "ok\n";
    out.flush();
    if (!out) {
      out.close();
      fs::remove(tmp, ec);
      return false;
    }
  }
  const std::string path = pathFor(kind, digest);
  // A hard link, unlike a rename, fails where a file already is.
  const bool placed = exclusive ? ::link(tmp.c_str(), path.c_str()) == 0
                                : std::rename(tmp.c_str(), path.c_str()) == 0;
  if (exclusive || !placed) fs::remove(tmp, ec);
  return placed;
}

std::optional<std::vector<std::string>> PersistentVerdictStore::readRecord(
    char kind, const RecordKey& key) const {
  std::ifstream in(pathFor(kind, key.digest), std::ios::binary);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || line != std::string(kMagic) + ' ' + kind)
    return std::nullopt;  // absent, or another kind or format
  // Full verification: the digest in the file name only located a
  // candidate; the record is served only if its context digest and its
  // FULL probe key match.
  if (!std::getline(in, line) ||
      line != "context " + key.context.digest().hex())
    return std::nullopt;
  if (!std::getline(in, line) ||
      line != "probes " + std::to_string(key.probes.size()))
    return std::nullopt;  // declared length differs: never allocate it
  std::string stored(key.probes.size(), '\0');
  if (!in.read(stored.data(), static_cast<std::streamsize>(stored.size())) ||
      stored != key.probes || in.get() != '\n')
    return std::nullopt;
  std::vector<std::string> payload;
  while (std::getline(in, line)) {
    if (line == "ok") return payload;  // terminator: the record is whole
    payload.push_back(std::move(line));
  }
  return std::nullopt;  // truncated: treat as absent, recompute
}

std::optional<std::string> PersistentVerdictStore::readContext(
    const Digest& digest, bool& present) const {
  const std::string path = pathFor('x', digest);
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  present = !ec;
  if (ec) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  std::string line;
  if (!in || !std::getline(in, line) || line != std::string(kMagic) + " x" ||
      !std::getline(in, line) || line.rfind("key ", 0) != 0)
    return std::nullopt;
  // The declared length is bounded by the file before anything is
  // allocated: a corrupt header is a miss, never an allocation failure.
  std::uintmax_t length = 0;
  const char* first = line.data() + 4;
  const char* last = line.data() + line.size();
  const auto [end, err] = std::from_chars(first, last, length);
  if (err != std::errc() || end != last || first == last || length > size)
    return std::nullopt;
  std::string key(static_cast<size_t>(length), '\0');
  if (!in.read(key.data(), static_cast<std::streamsize>(key.size())) ||
      in.get() != '\n' || !std::getline(in, line) || line != "ok")
    return std::nullopt;
  return key;
}

ContextHandle PersistentVerdictStore::openContext(const Digest& digest,
                                                  std::string_view key) {
  ContextShard& shard = contextShard(digest);
  std::unique_lock<std::mutex> lk(shard.mu);
  auto it = shard.map.find(digest);
  if (it == shard.map.end()) {
    // Not in memory: a whole file in the directory decides, read outside
    // the lock (no shard lock is ever held across file IO). Without one,
    // the caller's key is kept, and its file is left to the first record
    // stored under it (contextOnDisk).
    lk.unlock();
    std::optional<std::string> onDisk;
    if (!dir_.empty()) {
      bool present = false;
      onDisk = readContext(digest, present);
      if (onDisk) contextLoads_.fetch_add(1, std::memory_order_relaxed);
    }
    lk.lock();
    bool inserted = false;
    std::tie(it, inserted) = shard.map.try_emplace(digest);
    if (inserted) {
      if (onDisk) {
        it->second = {std::move(*onDisk), Context::Disk::Written};
      } else {
        it->second.key = key;
        if (dir_.empty())
          contextStores_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  const bool verified = it->second.key == key;
  lk.unlock();
  if (!verified) contextMismatches_.fetch_add(1, std::memory_order_relaxed);
  return ContextHandle(digest, verified);
}

bool PersistentVerdictStore::contextOnDisk(const Digest& digest,
                                           bool create) {
  ContextShard& shard = contextShard(digest);
  const std::string* key = nullptr;
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    const auto it = shard.map.find(digest);
    if (it == shard.map.end()) return false;  // opened in another store
    if (it->second.disk != Context::Disk::Pending)
      return it->second.disk == Context::Disk::Written;
    key = &it->second.key;  // never changes once kept, and never erased
  }
  // Settle it from the directory, outside the lock. A file is only
  // created where none is, so of concurrent writers — threads or
  // processes — the first to create it fixes the key every one of them
  // verifies against.
  bool present = false;
  std::optional<std::string> onDisk = readContext(digest, present);
  if (onDisk) {
    contextLoads_.fetch_add(1, std::memory_order_relaxed);
  } else {
    const std::string body =
        "key " + std::to_string(key->size()) + '\n' + *key + '\n';
    bool placed = false;
    if (!present) {
      if (!create) return false;
      placed = writeFile('x', digest, body, /*exclusive=*/true);
      if (!placed) onDisk = readContext(digest, present);  // another won
    }
    // Not whole (a torn write, a disk fault, an older release): heal it.
    if (!placed && !onDisk) placed = writeFile('x', digest, body);
    if (placed) contextStores_.fetch_add(1, std::memory_order_relaxed);
    if (!placed && !onDisk) return false;  // unwritable: memory only
  }
  const bool ours = !onDisk || *onDisk == *key;
  if (!ours) contextMismatches_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(shard.mu);
  Context& c = shard.map.find(digest)->second;
  if (c.disk == Context::Disk::Pending)
    c.disk = ours ? Context::Disk::Written : Context::Disk::Foreign;
  return c.disk == Context::Disk::Written;
}

template <class Rec>
std::optional<Rec> PersistentVerdictStore::load(Layer<Rec>& layer,
                                                const RecordKey& key,
                                                long long stepLimit,
                                                size_t probeCount) {
  if (!key.context.verified()) {
    layer.misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  auto& shard = layer.shardFor(key.digest);
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    auto it = shard.map.find(key.digest);
    if (it != shard.map.end() && it->second.holds(key) &&
        sufficientFor(*it->second.rec, stepLimit)) {
      layer.hits.fetch_add(1, std::memory_order_relaxed);
      layer.memoryHits.fetch_add(1, std::memory_order_relaxed);
      return it->second.rec;
    }
  }
  // An absent or guard-failing memory record falls through to disk: a
  // concurrent run sharing the directory may have persisted a stronger
  // record than this process holds. The parsed record is memoized even
  // when its guard fails, so a weaker one stored later never replaces it.
  if (!dir_.empty() && contextOnDisk(key.context.digest(), false)) {
    Rec rec;
    auto payload = readRecord(layer.kind, key);
    if (payload && parse(*payload, rec, probeCount)) {
      {
        std::lock_guard<std::mutex> lk(shard.mu);
        keep(shard.map[key.digest], key, rec);
      }
      if (sufficientFor(rec, stepLimit)) {
        layer.hits.fetch_add(1, std::memory_order_relaxed);
        return rec;
      }
    }
  }
  layer.misses.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

template <class Rec>
void PersistentVerdictStore::publish(Layer<Rec>& layer, const RecordKey& key,
                                     const Rec& rec, bool toDisk) {
  if (!key.context.verified()) return;
  auto& shard = layer.shardFor(key.digest);
  bool kept = false, resolved = false;
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    auto& entry = shard.map[key.digest];
    kept = keep(entry, key, rec);
    // Publishing resolves the digest's claim, kept or not: waiters wake to
    // the record memory now holds.
    resolved = std::exchange(entry.claim, 0) != 0;
  }
  if (resolved) shard.cv.notify_all();
  // Outside the lock: no shard lock is ever held across file IO.
  if (kept) {
    if (toDisk && !dir_.empty() && contextOnDisk(key.context.digest(), true))
      writeFile(layer.kind, key.digest,
                "context " + key.context.digest().hex() + "\nprobes " +
                    std::to_string(key.probes.size()) + '\n' +
                    std::string(key.probes) + '\n' + render(rec));
    layer.stores.fetch_add(1, std::memory_order_relaxed);
  }
}

std::optional<VerdictRecord> PersistentVerdictStore::loadCheck(
    const RecordKey& key, long long stepLimit) {
  return load(checks_, key, stepLimit, 1);
}

void PersistentVerdictStore::storeCheck(const RecordKey& key,
                                        const VerdictRecord& e, bool toDisk) {
  publish(checks_, key, e, toDisk);
}

std::optional<PersistentVerdictStore::TaskRecord>
PersistentVerdictStore::loadTask(const RecordKey& key, long long stepLimit,
                                 size_t probeCount) {
  return load(tasks_, key, stepLimit, probeCount);
}

void PersistentVerdictStore::storeTask(const RecordKey& key,
                                       const TaskRecord& rec) {
  publish(tasks_, key, rec, true);
}

template <class Rec>
PersistentVerdictStore::Claim<Rec> PersistentVerdictStore::claim(
    Layer<Rec>& layer, const RecordKey& key, long long stepLimit,
    const support::CancelToken* cancel) {
  Claim<Rec> out;
  if (!key.context.verified()) return out;
  auto& shard = layer.shardFor(key.digest);
  std::unique_lock<std::mutex> lk(shard.mu);
  for (bool waited = false;; waited = true) {
    // Looked up afresh after every wait: an unclaim may have erased the
    // entry meanwhile.
    auto it = shard.map.find(key.digest);
    if (it != shard.map.end() && it->second.holds(key) &&
        sufficientFor(*it->second.rec, stepLimit)) {
      layer.hits.fetch_add(1, std::memory_order_relaxed);
      layer.memoryHits.fetch_add(1, std::memory_order_relaxed);
      if (waited) flightJoins_.fetch_add(1, std::memory_order_relaxed);
      out.served = it->second.rec;
      return out;
    }
    if (it == shard.map.end() || it->second.claim == 0) {
      const unsigned long long token =
          claimToken_.fetch_add(1, std::memory_order_relaxed);
      if (it == shard.map.end()) it = shard.map.try_emplace(key.digest).first;
      it->second.claim = token;
      flightClaims_.fetch_add(1, std::memory_order_relaxed);
      out.claim = FlightClaim(this, layer.kind, key.digest, token);
      return out;
    }
    // Another caller owns the digest. The wait is bounded: the notify is
    // an optimization, the timeout guarantees progress and gives the
    // cancel token a polling edge.
    shard.cv.wait_for(lk, std::chrono::milliseconds(20));
    if (cancel != nullptr && cancel->poll()) throw support::Cancelled();
  }
}

template <class Rec>
void PersistentVerdictStore::unclaim(Layer<Rec>& layer, const Digest& digest,
                                     unsigned long long token) {
  auto& shard = layer.shardFor(digest);
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    auto it = shard.map.find(digest);
    if (it == shard.map.end() || it->second.claim != token) return;
    if (it->second.rec)
      it->second.claim = 0;
    else
      shard.map.erase(it);
  }
  flightUnclaims_.fetch_add(1, std::memory_order_relaxed);
  shard.cv.notify_all();
}

PersistentVerdictStore::CheckClaim PersistentVerdictStore::claimCheck(
    const RecordKey& key, long long stepLimit,
    const support::CancelToken* cancel) {
  return claim(checks_, key, stepLimit, cancel);
}

PersistentVerdictStore::TaskClaim PersistentVerdictStore::claimTask(
    const RecordKey& key, long long stepLimit,
    const support::CancelToken* cancel) {
  return claim(tasks_, key, stepLimit, cancel);
}

void PersistentVerdictStore::FlightClaim::release() {
  PersistentVerdictStore* s = std::exchange(store_, nullptr);
  if (s == nullptr) return;
  if (kind_ == s->checks_.kind)
    s->unclaim(s->checks_, digest_, token_);
  else
    s->unclaim(s->tasks_, digest_, token_);
}

PersistentVerdictStore::Stats PersistentVerdictStore::stats() const {
  const auto get = [](const std::atomic<long long>& c) {
    return c.load(std::memory_order_relaxed);
  };
  Stats s;
  s.checkHits = get(checks_.hits);
  s.checkMisses = get(checks_.misses);
  s.checkStores = get(checks_.stores);
  s.taskHits = get(tasks_.hits);
  s.taskMisses = get(tasks_.misses);
  s.taskStores = get(tasks_.stores);
  s.checkMemoryHits = get(checks_.memoryHits);
  s.taskMemoryHits = get(tasks_.memoryHits);
  s.flightClaims = get(flightClaims_);
  s.flightJoins = get(flightJoins_);
  s.flightUnclaims = get(flightUnclaims_);
  s.contextLoads = get(contextLoads_);
  s.contextStores = get(contextStores_);
  s.contextMismatches = get(contextMismatches_);
  return s;
}

}  // namespace formad::smt
