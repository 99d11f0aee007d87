// Content-addressed canonical fingerprints for solver terms.
//
// The verdict store keys conjunctions on per-constraint strings. For a
// cache that is shared by solvers over different atom tables, and that
// survives the process, those strings have to be a pure function of
// CONTENT, never of AtomIds (which are interning-order handles). The
// Fingerprinter renders every atom structurally:
//
//   Var  n (instance k, primed)   ->  n#k'
//   UF   f(e1, ..., ek)           ->  f(<exprKey(e1)>,...)   (recursive)
//
// and a LinExpr as its terms sorted by atom key (a sum is
// order-independent), so two runs that build the same logical constraint
// produce byte-identical keys no matter how their atom tables are laid
// out. Conjunction keys additionally sort their per-constraint parts —
// the same canonicalization Solver::stackKey has always used.
//
// Digests (`Digest`) name store records and pick their table slots; they
// never stand in for a key. Every store record is verified in full on a
// hit — its context's canonical key once per context, its probe keys on
// every hit — so a digest collision costs a miss, never a wrong verdict.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "smt/term.h"

namespace formad::smt {

struct Constraint;

/// Memoizing canonical-key deriver over one AtomTable. Not thread-safe;
/// give each solver/planner its own (they share the table read-only).
class Fingerprinter {
 public:
  explicit Fingerprinter(const AtomTable& atoms) : atoms_(&atoms) {}

  /// Canonical content key of one atom (memoized; atoms are immutable once
  /// interned, so the memo never invalidates).
  [[nodiscard]] const std::string& atomKey(AtomId id);

  /// Canonical content key of a linear expression: terms sorted by atom
  /// key, then the constant — independent of atom interning order.
  [[nodiscard]] std::string exprKey(const LinExpr& e);

  /// Canonical content key of one constraint: relation tag + exprKey.
  [[nodiscard]] std::string constraintKey(const Constraint& c);

 private:
  const AtomTable* atoms_;
  std::vector<std::string> memo_;  // indexed by AtomId; empty = underived
};

/// Canonical fingerprint of a conjunction given its per-constraint keys:
/// sorted (a conjunction is order-independent) and ';'-joined. Shared by
/// Solver::stackKey, the scheduler's replay accounting, and the persistent
/// store so all three agree byte-for-byte.
[[nodiscard]] std::string conjunctionKey(std::vector<std::string> parts);

/// 64-bit FNV-1a over `s`, folding `seed` in first (two seeds give the
/// independent lanes of a 128-bit digest).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s,
                                    std::uint64_t seed = 0xcbf29ce484222325ULL);

/// Seed of the second digest lane; the first lane uses fnv1a64's default
/// seed (the FNV offset basis).
inline constexpr std::uint64_t kDigestSeed2 = 0x9e3779b97f4a7c15ULL;

/// 32 lowercase hex chars of `key`'s two independently seeded FNV-1a
/// lanes: the context fingerprints of core::contextFingerprints.
[[nodiscard]] std::string contentDigest(const std::string& key);

/// A 128-bit digest as two 64-bit lanes. Lanes of part digests add, so a
/// sum over a conjunction's parts is order-independent and follows an
/// assertion stack in O(1) per add or pop.
struct Digest {
  std::uint64_t lo = 0, hi = 0;

  friend bool operator==(const Digest&, const Digest&) = default;
  Digest& operator+=(const Digest& o) {
    lo += o.lo;
    hi += o.hi;
    return *this;
  }
  /// The two lanes as 32 lowercase hex chars, `lo` first: the name of a
  /// store file.
  [[nodiscard]] std::string hex() const;
};

/// The digest of one key part: each FNV-1a lane passed through murmur3's
/// 64-bit finalizer. FNV-1a ends in a multiply, which is linear, so raw
/// lanes of parts that differ in one low bit can cancel in a sum (the
/// parts `+140380`/`-140380` and `+140381`/`-140381` do, in both lanes);
/// the finalizer mixes every input bit into every output bit first.
[[nodiscard]] Digest partDigest(std::string_view part);

/// The digest of a context, a conjunction given by the sum of its
/// `count` parts' partDigests, in the key space named by `space` (see
/// smt::keySpace): what the verdict store's context table is keyed by.
[[nodiscard]] Digest contextDigest(const Digest& partSum, std::size_t count,
                                   std::string_view space);

/// The digest of one store record: its context's digest followed by the
/// record's own probe key.
[[nodiscard]] Digest recordDigest(const Digest& context,
                                  std::string_view probes);

}  // namespace formad::smt
