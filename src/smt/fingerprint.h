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
// The 128-bit FNV digest is used only to NAME cache files; every persisted
// entry carries its full key and is verified byte-for-byte on load, so a
// digest collision costs a cache miss, never a wrong verdict.
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
/// independent halves of the 128-bit digest). FNV-1a is a left fold over
/// bytes, so `fnv1a64(b, fnv1a64(a))` == `fnv1a64(a + b)` — callers that
/// share a long key prefix can digest it once and resume per suffix.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view s,
                                    std::uint64_t seed = 0xcbf29ce484222325ULL);

/// Seed of the second digest half; the first half uses fnv1a64's default
/// seed (the FNV offset basis).
inline constexpr std::uint64_t kDigestSeed2 = 0x9e3779b97f4a7c15ULL;

/// Renders two precomputed FNV halves as the 32-lowercase-hex digest —
/// `digestHex(fnv1a64(k), fnv1a64(k, kDigestSeed2))` == `contentDigest(k)`.
[[nodiscard]] std::string digestHex(std::uint64_t lo, std::uint64_t hi);

/// 32 lowercase hex chars naming `key` on disk (two independently seeded
/// FNV-1a halves). Collisions are tolerated by full-key verification.
[[nodiscard]] std::string contentDigest(const std::string& key);

}  // namespace formad::smt
