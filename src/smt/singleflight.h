// RAII handle for one single-flight claim in a PersistentVerdictStore.
//
// A claim marks one content fingerprint (a solver check or a scheduler
// task) as "being computed right now" so concurrent duplicates block and
// join the winner's published result instead of re-paying the SMT bill.
// smt/diskcache.h implements the registry; callers (Solver::check, the
// exploitation scheduler) hold the handle while they compute.
//
// Lifecycle:
//   - PersistentVerdictStore::claimCheck/claimTask return either a served
//     result or an *owned* claim; the owner computes the result and
//     publishes it with storeCheck/storeTask, which resolves the claim and
//     wakes all joiners.
//   - If the owner unwinds without publishing (cancellation, deadline,
//     injected fault), the destructor unclaims: the registry entry is
//     erased, joiners wake, re-probe, and the first of them becomes the
//     new owner and recomputes. A claim can therefore never be leaked or
//     poison a result — failure costs a recompute, nothing more.
#pragma once

#include <string>
#include <utility>

namespace formad::smt {

class PersistentVerdictStore;

class FlightClaim {
 public:
  FlightClaim() = default;
  FlightClaim(FlightClaim&& o) noexcept
      : store_(o.store_), kind_(o.kind_), key_(std::move(o.key_)),
        token_(o.token_) {
    o.store_ = nullptr;
  }
  FlightClaim& operator=(FlightClaim&& o) noexcept {
    if (this != &o) {
      release();
      store_ = o.store_;
      kind_ = o.kind_;
      key_ = std::move(o.key_);
      token_ = o.token_;
      o.store_ = nullptr;
    }
    return *this;
  }
  FlightClaim(const FlightClaim&) = delete;
  FlightClaim& operator=(const FlightClaim&) = delete;
  ~FlightClaim() { release(); }

  /// True while this handle owns an unresolved registry entry. False for
  /// default-constructed (inert) claims and after release/publish.
  [[nodiscard]] bool owned() const { return store_ != nullptr; }

  /// Unclaims without publishing (identical to destruction). Safe to call
  /// after the owner published: publishing already resolved the registry
  /// entry, so this degenerates to dropping the handle.
  void release();

 private:
  friend class PersistentVerdictStore;
  FlightClaim(PersistentVerdictStore* store, char kind, std::string key,
              unsigned long long token)
      : store_(store), kind_(kind), key_(std::move(key)), token_(token) {}

  PersistentVerdictStore* store_ = nullptr;
  char kind_ = 'c';
  std::string key_;
  unsigned long long token_ = 0;
};

}  // namespace formad::smt
