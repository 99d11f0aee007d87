// Content-fingerprint stability and persistent-store durability (the
// -cache-dir layer): golden context fingerprints for the paper kernels,
// interning-order independence of the canonical keys, edit locality, and
// recovery from corrupt/truncated/misnamed cache files.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/activity.h"
#include "analysis/symbols.h"
#include "formad/knowledge.h"
#include "helpers.h"
#include "ir/traversal.h"
#include "kernels/gfmc.h"
#include "kernels/greengauss.h"
#include "kernels/stencil.h"
#include "parser/parser.h"
#include "smt/diskcache.h"
#include "smt/fingerprint.h"

namespace {

using namespace formad;
namespace fs = std::filesystem;

/// contextFingerprints of every parallel region of `source`, in region
/// order.
std::vector<std::map<int, std::string>> regionFingerprints(
    const std::string& source, const std::vector<std::string>& independents,
    const std::vector<std::string>& dependents) {
  auto kernel = parser::parseKernel(source);
  auto syms = analysis::verifyKernel(*kernel);
  auto act =
      analysis::computeActivity(*kernel, syms, independents, dependents);
  std::vector<std::map<int, std::string>> out;
  ir::forEachStmt(kernel->body, [&](const ir::Stmt& s) {
    if (s.kind() != ir::StmtKind::For || !s.as<ir::For>().parallel) return;
    auto model =
        core::buildRegionModel(*kernel, s.as<ir::For>(), syms, act);
    out.push_back(core::contextFingerprints(model));
  });
  return out;
}

/// Temp store directory, removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag)
      : path(fs::temp_directory_path() /
             (std::string("formad_fp_") + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

// The kernel behind the edit-locality tests: two branch contexts, each
// writing u at two DIFFERENT offsets (knowledge constraints normalize to
// the primed-other difference, so a lone uniform offset would cancel out).
const char* kLocalityKernel =
    "kernel loc(n: int in, u: real[] inout, v: real[] in, c: int[] in) {\n"
    "  parallel for i = 0 : n - 1 : 4 {\n"
    "    if (c[i] % 2 == 0) {\n"
    "      u[i] += v[i];\n"
    "      u[i + 1] += v[i];\n"
    "    } else {\n"
    "      u[i + 2] += v[i];\n"
    "      u[i + 5] += v[i];\n"
    "    }\n"
    "  }\n"
    "}\n";

// Golden digests: any change here means every persisted cache in the wild
// silently misses (fine) or the canonicalization broke (not fine) — bump
// consciously, never casually.
TEST(Fingerprint, GoldenPaperKernels) {
  const auto stencil = kernels::stencilSpec(2);
  auto fps = regionFingerprints(stencil.source, stencil.independents,
                                stencil.dependents);
  ASSERT_EQ(fps.size(), 1u);
  EXPECT_EQ(fps[0], (std::map<int, std::string>{
                        {0, "82a308b4fac7e65006305941f8ee1b80"}}));

  const auto gfmc = kernels::gfmcSplitSpec();
  fps = regionFingerprints(gfmc.source, gfmc.independents, gfmc.dependents);
  ASSERT_EQ(fps.size(), 2u);
  EXPECT_EQ(fps[0], (std::map<int, std::string>{
                        {1, "7f36b68334c0098501c45f266527f935"}}));
  EXPECT_EQ(fps[1], (std::map<int, std::string>{
                        {1, "a695b6e1c13c9af76a436987b9d9bf47"}}));

  const auto gg = kernels::greenGaussSpec();
  fps = regionFingerprints(gg.source, gg.independents, gg.dependents);
  ASSERT_EQ(fps.size(), 1u);
  EXPECT_EQ(fps[0], (std::map<int, std::string>{
                        {1, "b9cde78027f23615d28cfeb5013c94c5"}}));
}

TEST(Fingerprint, GoldenDigestPrimitives) {
  // Pins the digest algorithm itself (two seeded FNV-1a halves).
  EXPECT_EQ(smt::contentDigest(""), "cbf29ce4842223259e3779b97f4a7c15");
  EXPECT_EQ(smt::contentDigest("=1*i#0+0;"),
            "aee2f5bf0eaebf1fa7412c802aaf6a0f");
  // digestHex over precomputed halves agrees with contentDigest.
  const std::string k = "=1*i#0+0;";
  EXPECT_EQ(smt::digestHex(smt::fnv1a64(k),
                           smt::fnv1a64(k, smt::kDigestSeed2)),
            smt::contentDigest(k));
  // FNV-1a is a streaming left fold: digest(prefix + suffix) resumes from
  // the prefix state (the scheduler's incremental derivations rely on it).
  EXPECT_EQ(smt::fnv1a64("abcdef"), smt::fnv1a64("def", smt::fnv1a64("abc")));
}

TEST(Fingerprint, StableAcrossIndependentBuilds) {
  const auto spec = kernels::stencilSpec(4);
  const auto a =
      regionFingerprints(spec.source, spec.independents, spec.dependents);
  const auto b =
      regionFingerprints(spec.source, spec.independents, spec.dependents);
  EXPECT_EQ(a, b);
}

TEST(Fingerprint, IndependentOfAtomInterningOrder) {
  // Two tables interning the same atoms in opposite order must produce
  // byte-identical canonical keys — AtomIds are process accidents.
  smt::AtomTable fwd, rev;
  auto i1 = fwd.internVar("i", 0, false);
  auto j1 = fwd.internVar("j", 0, true);
  auto j2 = rev.internVar("j", 0, true);
  auto i2 = rev.internVar("i", 0, false);

  auto keyOf = [](smt::AtomTable& t, smt::AtomId i, smt::AtomId j) {
    smt::Fingerprinter fp(t);
    smt::LinExpr e = smt::LinExpr::atom(i);
    e.addTerm(j, smt::Rational(-1));
    std::vector<std::string> parts;
    parts.push_back(fp.constraintKey(smt::Constraint::ne(
        smt::LinExpr::atom(i), smt::LinExpr::atom(j))));
    parts.push_back(
        fp.constraintKey(smt::Constraint{std::move(e), smt::Rel::Eq}));
    return smt::conjunctionKey(std::move(parts));
  };
  const std::string a = keyOf(fwd, i1, j1);
  const std::string b = keyOf(rev, i2, j2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(smt::contentDigest(a), smt::contentDigest(b));
}

TEST(Fingerprint, ConjunctionKeyIgnoresPartOrder) {
  EXPECT_EQ(smt::conjunctionKey({"b", "a", "c"}),
            smt::conjunctionKey({"c", "a", "b"}));
  EXPECT_EQ(smt::conjunctionKey({"b", "a", "c"}), "a;b;c;");
}

TEST(Fingerprint, EditMovesOnlyTheEditedContext) {
  std::string edited = kLocalityKernel;
  const size_t at = edited.find("u[i + 5]");
  ASSERT_NE(at, std::string::npos);
  edited.replace(at, 8, "u[i + 6]");

  const auto base = regionFingerprints(kLocalityKernel, {"v"}, {"u"});
  const auto moved = regionFingerprints(edited, {"v"}, {"u"});
  ASSERT_EQ(base.size(), 1u);
  ASSERT_EQ(moved.size(), 1u);
  ASSERT_EQ(base[0].size(), 2u);  // then-context and else-context
  ASSERT_EQ(moved[0].size(), 2u);
  // The then-branch knowledge never mentions the edited reference: its
  // fingerprint must not move. The else-branch one must.
  EXPECT_EQ(base[0].at(1), moved[0].at(1));
  EXPECT_NE(base[0].at(2), moved[0].at(2));
}

// --- persistent store durability ---
//
// A store memoizes every record it stores or loads, so each probe below
// reads through a FRESH store over the directory: it exercises the disk
// record, not the writer's memory layer.

std::optional<smt::VerdictRecord> diskLoadCheck(const TempDir& dir,
                                                const std::string& key,
                                                long long stepLimit) {
  smt::PersistentVerdictStore fresh(dir.path.string());
  return fresh.loadCheck(key, stepLimit);
}

/// Loads a task record of a two-probe task.
std::optional<smt::PersistentVerdictStore::TaskRecord> diskLoadTask(
    const TempDir& dir, const std::string& key, long long stepLimit,
    const std::string& digest) {
  smt::PersistentVerdictStore fresh(dir.path.string());
  return fresh.loadTask(key, stepLimit, 2, digest);
}

TEST(DiskCache, CheckRecordRoundtripAndBudgetGuard) {
  TempDir dir("check");
  smt::PersistentVerdictStore store(dir.path.string());
  const std::string key = "!1*i#0'+-1*i#0+0;";

  smt::VerdictRecord complete{smt::CheckResult::Unsat, 2, true, 50};
  store.storeCheck(key, complete);
  // Complete verdict: served at any budget that covers its step count.
  EXPECT_TRUE(diskLoadCheck(dir, key, 0).has_value());
  EXPECT_TRUE(diskLoadCheck(dir, key, 50).has_value());
  EXPECT_FALSE(diskLoadCheck(dir, key, 10).has_value());
  auto e = diskLoadCheck(dir, key, 0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->result, smt::CheckResult::Unsat);
  EXPECT_EQ(e->tier, 2);
  EXPECT_TRUE(e->complete);
  EXPECT_EQ(e->steps, 50);

  // Exhausted verdict: only served under a budget no larger than the one
  // that ran out — a starved Unknown must never poison an unlimited run.
  const std::string key2 = key + "x";
  smt::VerdictRecord starved{smt::CheckResult::Unknown, 2, false, 100};
  store.storeCheck(key2, starved);
  EXPECT_TRUE(diskLoadCheck(dir, key2, 100).has_value());
  EXPECT_TRUE(diskLoadCheck(dir, key2, 50).has_value());
  EXPECT_FALSE(diskLoadCheck(dir, key2, 200).has_value());
  EXPECT_FALSE(diskLoadCheck(dir, key2, 0).has_value());
  // The memory layer applies the same guard.
  EXPECT_TRUE(store.loadCheck(key2, 100).has_value());
  EXPECT_FALSE(store.loadCheck(key2, 0).has_value());
}

// One record policy: memory keeps the stronger record, and only new or
// stronger records reach the disk — a starved store never overwrites the
// complete record another store persisted, even one it could not use.
TEST(DiskCache, WeakerRecordsNeverOverwriteStrongerOnes) {
  TempDir dir("policy");
  const std::string key = "!1*i#0'+-1*i#0+0;";
  const smt::VerdictRecord complete{smt::CheckResult::Unsat, 2, true, 50};
  const smt::VerdictRecord starved{smt::CheckResult::Unknown, 2, false, 5};
  {
    smt::PersistentVerdictStore first(dir.path.string());
    first.storeCheck(key, complete);
  }
  smt::PersistentVerdictStore second(dir.path.string());
  // The starved caller cannot use the complete record (it needs 50 steps)
  // but the load memoizes it, so the starved store() that follows keeps
  // it and writes nothing.
  EXPECT_FALSE(second.loadCheck(key, 5).has_value());
  second.storeCheck(key, starved);
  EXPECT_EQ(second.stats().checkStores, 0);
  EXPECT_TRUE(diskLoadCheck(dir, key, 0).has_value());

  // Task records follow the same policy.
  const std::string tkey = "P|!1*i#0'+-1*i#0+0;|=1*q#0+0";
  const std::string digest(32, 'c');
  const smt::PersistentVerdictStore::TaskRecord full{
      {{smt::CheckResult::Unsat, 2, true, 40}}};
  const smt::PersistentVerdictStore::TaskRecord cut{
      {{smt::CheckResult::Unknown, 2, false, 5},
       {smt::CheckResult::Unknown, 2, false, 5}}};
  second.storeTask(tkey, full, digest);
  smt::PersistentVerdictStore third(dir.path.string());
  EXPECT_FALSE(third.loadTask(tkey, 5, 2, digest).has_value());
  third.storeTask(tkey, cut, digest);
  EXPECT_EQ(third.stats().taskStores, 0);
  EXPECT_TRUE(diskLoadTask(dir, tkey, 0, digest).has_value());

  // A stronger record does replace a weaker one, in memory and on disk.
  const std::string key2 = key + "x";
  second.storeCheck(key2, starved);
  EXPECT_FALSE(second.loadCheck(key2, 0).has_value());
  second.storeCheck(key2, complete);
  EXPECT_TRUE(second.loadCheck(key2, 0).has_value());
  EXPECT_TRUE(diskLoadCheck(dir, key2, 0).has_value());
  EXPECT_EQ(second.stats().checkStores, 2);
}

TEST(DiskCache, TaskRecordRoundtripVerifiesFullKey) {
  TempDir dir("task");
  smt::PersistentVerdictStore store(dir.path.string());
  const std::string key = "P|!1*i#0'+-1*i#0+0;|=1*q#0+0";
  const std::string digest(32, 'a');

  const smt::PersistentVerdictStore::TaskRecord rec{
      {{smt::CheckResult::Sat, 2, true, 40},
       {smt::CheckResult::Unsat, 0, true, 1}}};
  store.storeTask(key, rec, digest);

  // The payload is a `task <n>` line, then each check as the very line a
  // check file carries.
  const fs::path file = dir.path / ("t" + digest + ".fvc");
  auto fileBytes = [&] {
    std::ifstream in(file, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string header =
      "formadvc 1 t\nkey " + std::to_string(key.size()) + "\n" + key + "\n";
  EXPECT_EQ(fileBytes(), header +
                             "task 2\n"
                             "verdict sat 2 1 40\n"
                             "verdict unsat 0 1 1\n"
                             "ok\n");

  auto got = diskLoadTask(dir, key, 0, digest);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->proved());
  EXPECT_EQ(got->checks, rec.checks);

  // A different digest looks under a different file name: miss.
  EXPECT_FALSE(diskLoadTask(dir, key, 0, std::string(32, 'b')).has_value());
  // Same digest, different key (a simulated digest collision): the full
  // key verification rejects it — a collision costs a miss, never a wrong
  // verdict.
  EXPECT_FALSE(diskLoadTask(dir, key + ";", 0, digest).has_value());
  // Budget guard applies to EVERY recorded check.
  EXPECT_FALSE(diskLoadTask(dir, key, 10, digest).has_value());

  // Payloads no probe walk of this two-probe task wrote are misses, never
  // a throw: the previous format's pair and consistency records, a task
  // with no checks, an Unsat before the last check, more checks than the
  // task has probes, and fewer checks without the Unsat that stops a walk.
  auto overwrite = [&](const std::string& payload) {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out << header << payload << "ok\n";
  };
  const char* kPreviousFormat = "task 0 1 1\nc 2 0 40\n";
  const char* kTooMany =
      "task 3\nverdict sat 2 1 40\nverdict sat 2 1 40\n"
      "verdict unsat 0 1 1\n";
  const char* kCutShort = "task 1\nverdict sat 2 1 40\n";
  for (const char* payload :
       {kPreviousFormat, "task 1 0 1\nc 2 0 40\n", "task 0\n",
        "task 2\nverdict unsat 2 1 40\nverdict unsat 0 1 1\n", kTooMany,
        kCutShort}) {
    SCOPED_TRACE(payload);
    overwrite(payload);
    smt::PersistentVerdictStore fresh(dir.path.string());
    std::optional<smt::PersistentVerdictStore::TaskRecord> miss;
    EXPECT_NO_THROW(miss = fresh.loadTask(key, 0, 2, digest));
    EXPECT_FALSE(miss.has_value());
    EXPECT_EQ(fresh.stats().taskMisses, 1);
  }
  // A one-probe task may record its one check, so the bound is the
  // caller's probe count: the cut payload is whole for such a task.
  overwrite(kCutShort);
  {
    smt::PersistentVerdictStore fresh(dir.path.string());
    EXPECT_TRUE(fresh.loadTask(key, 0, 1, digest).has_value());
  }
  // A store that missed on a malformed payload rewrites the file whole.
  for (const char* payload : {kPreviousFormat, kTooMany, kCutShort}) {
    SCOPED_TRACE(payload);
    overwrite(payload);
    {
      smt::PersistentVerdictStore fresh(dir.path.string());
      EXPECT_FALSE(fresh.loadTask(key, 0, 2, digest).has_value());
      fresh.storeTask(key, rec, digest);
      EXPECT_EQ(fresh.stats().taskStores, 1);
    }
    got = diskLoadTask(dir, key, 0, digest);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->checks, rec.checks);
  }
}

TEST(DiskCache, CorruptAndTruncatedFilesFallThrough) {
  TempDir dir("corrupt");
  smt::PersistentVerdictStore store(dir.path.string());
  const std::string key = "!1*i#0'+-1*i#0+0;";
  store.storeCheck(key, {smt::CheckResult::Unsat, 2, true, 5});
  ASSERT_TRUE(diskLoadCheck(dir, key, 0).has_value());

  fs::path file;
  for (const auto& e : fs::directory_iterator(dir.path)) file = e.path();
  ASSERT_FALSE(file.empty());
  auto overwrite = [&](const std::string& bytes) {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out << bytes;
  };

  // Truncate: drop the trailing "ok" terminator — a torn write.
  std::string whole;
  {
    std::ifstream in(file, std::ios::binary);
    whole.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(whole.size(), 3u);
  overwrite(whole.substr(0, whole.size() - 3));
  EXPECT_FALSE(diskLoadCheck(dir, key, 0).has_value());

  // Corrupt: garbage body under the right name.
  overwrite("not a record at all");
  EXPECT_FALSE(diskLoadCheck(dir, key, 0).has_value());

  // Empty file.
  overwrite("");
  EXPECT_FALSE(diskLoadCheck(dir, key, 0).has_value());

  // A header declaring an absurd key length — huge, or 2^64-1 — is a
  // miss, never an allocation failure: loads never throw.
  const std::string body = key + "\nverdict unsat 2 1 5\nok\n";
  for (const char* len : {"999999999999999", "18446744073709551615"}) {
    SCOPED_TRACE(len);
    overwrite(std::string("formadvc 1 c\nkey ") + len + "\n" + body);
    std::optional<smt::VerdictRecord> got;
    EXPECT_NO_THROW(got = diskLoadCheck(dir, key, 0));
    EXPECT_FALSE(got.has_value());
  }

  // The writer still serves its memoized record; as it already holds it,
  // storing it again writes nothing, so the slot stays corrupt...
  EXPECT_TRUE(store.loadCheck(key, 0).has_value());
  store.storeCheck(key, {smt::CheckResult::Unsat, 2, true, 5});
  EXPECT_FALSE(diskLoadCheck(dir, key, 0).has_value());
  const auto s = store.stats();
  EXPECT_EQ(s.checkStores, 1);
  EXPECT_EQ(s.checkMemoryHits, 1);

  // ...until a store that has not seen the record rewrites and heals it.
  {
    smt::PersistentVerdictStore healer(dir.path.string());
    healer.storeCheck(key, {smt::CheckResult::Unsat, 2, true, 5});
  }
  EXPECT_TRUE(diskLoadCheck(dir, key, 0).has_value());
}

}  // namespace
