#include "smt/fingerprint.h"

#include <algorithm>

#include "smt/solver.h"

namespace formad::smt {

const std::string& Fingerprinter::atomKey(AtomId id) {
  auto idx = static_cast<size_t>(id);
  if (idx >= memo_.size()) memo_.resize(idx + 1);
  std::string& slot = memo_[idx];
  if (!slot.empty()) return slot;
  const Atom& a = atoms_->atom(id);
  std::string key;
  if (a.kind == AtomKind::Var) {
    key = a.name;
    key += '#';
    key += std::to_string(a.instance);
    if (a.primed) key += '\'';
  } else {
    key = a.fn;
    key += '(';
    for (size_t i = 0; i < a.args.size(); ++i) {
      if (i) key += ',';
      // exprKey may grow memo_ and invalidate `slot`; build into `key`
      // first and re-resolve the slot below.
      key += exprKey(a.args[i]);
    }
    key += ')';
  }
  memo_[idx] = std::move(key);
  return memo_[idx];
}

std::string Fingerprinter::exprKey(const LinExpr& e) {
  // Terms sorted by atom CONTENT key: interning order (AtomId) is a
  // per-process accident and must not leak into the fingerprint.
  // Derive every key first: atomKey may grow memo_, which would move the
  // strings a pointer captured below refers to. Once derived, the second
  // pass hits only memoized slots and memo_ stays put.
  for (const auto& [id, c] : e.coeffs()) (void)atomKey(id);
  std::vector<std::pair<const std::string*, const Rational*>> terms;
  terms.reserve(e.coeffs().size());
  for (const auto& [id, c] : e.coeffs()) terms.emplace_back(&atomKey(id), &c);
  std::sort(terms.begin(), terms.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  std::string key;
  for (const auto& [ak, c] : terms) {
    key += c->str();
    key += '*';
    key += *ak;
    key += '+';
  }
  key += e.constant().str();
  return key;
}

std::string Fingerprinter::constraintKey(const Constraint& c) {
  const char* tag = c.rel == Rel::Eq ? "=" : c.rel == Rel::Ne ? "!" : "<";
  return tag + exprKey(c.expr);
}

std::string conjunctionKey(std::vector<std::string> parts) {
  std::sort(parts.begin(), parts.end());
  std::string key;
  for (const auto& p : parts) {
    key += p;
    key += ';';
  }
  return key;
}

std::uint64_t fnv1a64(std::string_view s, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Digest::hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (std::uint64_t lane : {lo, hi})
    for (int shift = 60; shift >= 0; shift -= 4)
      out += digits[(lane >> shift) & 0xF];
  return out;
}

std::string contentDigest(const std::string& key) {
  return Digest{fnv1a64(key), fnv1a64(key, kDigestSeed2)}.hex();
}

namespace {

/// murmur3's 64-bit finalizer: a bijection that mixes every input bit into
/// every output bit.
std::uint64_t fmix64(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

/// Folds `v` into both lanes, each through its own finalized chain.
Digest fold(Digest d, std::uint64_t v) {
  return {fmix64(d.lo ^ v), fmix64(d.hi ^ (v + kDigestSeed2))};
}

}  // namespace

Digest partDigest(std::string_view part) {
  return {fmix64(fnv1a64(part)), fmix64(fnv1a64(part, kDigestSeed2))};
}

Digest contextDigest(const Digest& partSum, std::size_t count,
                     std::string_view space) {
  return fold(fold(partSum, count), fnv1a64(space));
}

Digest recordDigest(const Digest& context, std::string_view probes) {
  const Digest p = partDigest(probes);
  return {fmix64(context.lo ^ p.lo), fmix64(context.hi ^ p.hi)};
}

}  // namespace formad::smt
