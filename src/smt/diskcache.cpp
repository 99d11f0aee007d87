#include "smt/diskcache.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "smt/fingerprint.h"
#include "support/cancel.h"
#include "support/diagnostics.h"

namespace formad::smt {

namespace fs = std::filesystem;

namespace {

constexpr const char* kMagic = "formadvc 1";

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

}  // namespace

PersistentVerdictStore::PersistentVerdictStore(std::string dir)
    : dir_(std::move(dir)) {
  if (dir_.empty()) return;  // memory-only: no filesystem involvement
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_, ec))
    fail("cache directory '" + dir_ + "' cannot be created: " + ec.message());
}

std::string PersistentVerdictStore::pathFor(
    char kind, const std::string& key, const std::string* digest) const {
  return dir_ + "/" + kind + (digest ? *digest : contentDigest(key)) + ".fvc";
}

void PersistentVerdictStore::writeRecord(char kind, const std::string& key,
                                         const std::string& payload,
                                         const std::string* digestHint) {
  // Unique temp name: concurrent writers (threads or whole processes
  // sharing the directory) never collide, and the final rename is atomic —
  // readers see either no file or a complete one.
  const unsigned long long n =
      tmpCounter_.fetch_add(1, std::memory_order_relaxed);
  const std::string digest = digestHint ? *digestHint : contentDigest(key);
  const std::string tmp =
      dir_ + "/.tmp-" + digest + "-" +
      std::to_string(fnv1a64(digest) ^
                     reinterpret_cast<unsigned long long>(this)) +
      "-" + std::to_string(n);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;  // best effort: an unwritable store is a slow one
    out << kMagic << ' ' << kind << '\n'
        << "key " << key.size() << '\n'
        << key << '\n'
        << payload << "ok\n";
    out.flush();
    if (!out) {
      out.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return;
    }
  }
  if (std::rename(tmp.c_str(), pathFor(kind, key, &digest).c_str()) != 0) {
    std::error_code ec;
    fs::remove(tmp, ec);
  }
}

std::optional<std::vector<std::string>> PersistentVerdictStore::readRecord(
    char kind, const std::string& key, const std::string* digest) const {
  std::ifstream in(pathFor(kind, key, digest), std::ios::binary);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || line != std::string(kMagic) + ' ' + kind)
    return std::nullopt;
  if (!std::getline(in, line) || line != "key " + std::to_string(key.size()))
    return std::nullopt;  // declared length differs: never allocate it
  // Collision-proof verification: the digest in the file name only located
  // a candidate; the verdict is served only if the FULL key matches.
  std::string stored(key.size(), '\0');
  if (!in.read(stored.data(), static_cast<std::streamsize>(key.size())) ||
      stored != key || in.get() != '\n')
    return std::nullopt;
  std::vector<std::string> payload;
  while (std::getline(in, line)) {
    if (line == "ok") return payload;  // terminator: the record is whole
    payload.push_back(std::move(line));
  }
  return std::nullopt;  // truncated: treat as absent, recompute
}

template <class Rec>
std::optional<Rec> PersistentVerdictStore::load(Layer<Rec>& layer,
                                                const std::string& key,
                                                long long stepLimit,
                                                size_t probes,
                                                const std::string* digest) {
  auto& shard = layer.shardFor(key);
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end() && it->second.rec &&
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
  if (!dir_.empty()) {
    Rec rec;
    auto payload = readRecord(layer.kind, key, digest);
    if (payload && parse(*payload, rec, probes)) {
      {
        std::lock_guard<std::mutex> lk(shard.mu);
        keepStronger(shard.map[key].rec, rec);
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
void PersistentVerdictStore::publish(Layer<Rec>& layer,
                                     const std::string& key, const Rec& rec,
                                     const std::string* digest) {
  auto& shard = layer.shardFor(key);
  bool kept = false, resolved = false;
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    auto& entry = shard.map[key];
    kept = keepStronger(entry.rec, rec);
    // Publishing resolves the key's claim, kept or not: waiters wake to
    // the record memory now holds.
    resolved = std::exchange(entry.claim, 0) != 0;
  }
  if (resolved) shard.cv.notify_all();
  // Outside the lock: no shard lock is ever held across file IO.
  if (kept) {
    if (!dir_.empty()) writeRecord(layer.kind, key, render(rec), digest);
    layer.stores.fetch_add(1, std::memory_order_relaxed);
  }
}

std::optional<VerdictRecord> PersistentVerdictStore::loadCheck(
    const std::string& key, long long stepLimit) {
  return load(checks_, key, stepLimit, 1, nullptr);
}

void PersistentVerdictStore::storeCheck(const std::string& key,
                                        const VerdictRecord& e) {
  publish(checks_, key, e, nullptr);
}

std::optional<PersistentVerdictStore::TaskRecord>
PersistentVerdictStore::loadTask(const std::string& key, long long stepLimit,
                                 size_t probes, const std::string& digest) {
  return load(tasks_, key, stepLimit, probes, &digest);
}

void PersistentVerdictStore::storeTask(const std::string& key,
                                       const TaskRecord& rec,
                                       const std::string& digest) {
  publish(tasks_, key, rec, &digest);
}

template <class Rec>
PersistentVerdictStore::Claim<Rec> PersistentVerdictStore::claim(
    Layer<Rec>& layer, const std::string& key, long long stepLimit,
    const support::CancelToken* cancel) {
  auto& shard = layer.shardFor(key);
  std::unique_lock<std::mutex> lk(shard.mu);
  Claim<Rec> out;
  for (bool waited = false;; waited = true) {
    // Looked up afresh after every wait: an unclaim may have erased the
    // entry meanwhile.
    auto it = shard.map.find(key);
    if (it != shard.map.end() && it->second.rec &&
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
      if (it == shard.map.end()) it = shard.map.try_emplace(key).first;
      it->second.claim = token;
      flightClaims_.fetch_add(1, std::memory_order_relaxed);
      out.claim = FlightClaim(this, layer.kind, key, token);
      return out;
    }
    // Another caller owns the key. The wait is bounded: the notify is an
    // optimization, the timeout guarantees progress and gives the cancel
    // token a polling edge.
    shard.cv.wait_for(lk, std::chrono::milliseconds(20));
    if (cancel != nullptr && cancel->poll()) throw support::Cancelled();
  }
}

template <class Rec>
void PersistentVerdictStore::unclaim(Layer<Rec>& layer,
                                     const std::string& key,
                                     unsigned long long token) {
  auto& shard = layer.shardFor(key);
  {
    std::lock_guard<std::mutex> lk(shard.mu);
    auto it = shard.map.find(key);
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
    const std::string& key, long long stepLimit,
    const support::CancelToken* cancel) {
  return claim(checks_, key, stepLimit, cancel);
}

PersistentVerdictStore::TaskClaim PersistentVerdictStore::claimTask(
    const std::string& key, long long stepLimit,
    const support::CancelToken* cancel) {
  return claim(tasks_, key, stepLimit, cancel);
}

void PersistentVerdictStore::FlightClaim::release() {
  PersistentVerdictStore* s = std::exchange(store_, nullptr);
  if (s == nullptr) return;
  if (kind_ == s->checks_.kind)
    s->unclaim(s->checks_, key_, token_);
  else
    s->unclaim(s->tasks_, key_, token_);
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
  return s;
}

}  // namespace formad::smt
