// Content-fingerprint stability and persistent-store durability (the
// -cache-dir layer): golden context fingerprints for the paper kernels,
// interning-order independence of the canonical keys, edit locality, and
// recovery from corrupt/truncated/misnamed cache files.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/activity.h"
#include "analysis/symbols.h"
#include "driver/driver.h"
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
  // A Digest renders its two lanes as contentDigest does.
  const std::string k = "=1*i#0+0;";
  EXPECT_EQ((smt::Digest{smt::fnv1a64(k), smt::fnv1a64(k, smt::kDigestSeed2)}
                 .hex()),
            smt::contentDigest(k));
  // FNV-1a is a streaming left fold: digest(prefix + suffix) resumes from
  // the prefix state.
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

// FNV-1a ends in a multiply, which is linear, and the low bit of its state
// is the parity of the seed and the bytes' low bits. So appending '1'
// instead of '0' moves a raw hash by plus or minus one multiplier, the
// sign set by that parity: "a0" + "b0" and "a1" + "b1" sum to one value in
// both lanes, as the parts of two kernels one apart in a constant did.
// partDigest mixes each lane first, so the sums differ.
TEST(Fingerprint, PartDigestsDoNotCancelInASum) {
  const auto rawSum = [](const char* a, const char* b, std::uint64_t seed) {
    return smt::fnv1a64(a, seed) + smt::fnv1a64(b, seed);
  };
  for (std::uint64_t seed :
       std::initializer_list<std::uint64_t>{0xcbf29ce484222325ULL,
                                            smt::kDigestSeed2})
    EXPECT_EQ(rawSum("a0", "b0", seed), rawSum("a1", "b1", seed));
  smt::Digest a = smt::partDigest("a0"), b = smt::partDigest("a1");
  a += smt::partDigest("b0");
  b += smt::partDigest("b1");
  EXPECT_NE(a.lo, b.lo);
  EXPECT_NE(a.hi, b.hi);
}

// The replay accounting identifies a base by its parts' digest sum, so a
// kernel whose two branches differ in one constant must print the tier
// line of one whose constants lie far apart. Unmixed sums merged the two
// branch bases at offsets 2/3, 2/5, 4/5, 4/7 and 12/13, reporting
// `5 tier-0 + 0 tier-1 + 1 tier-2 + 4 cached`.
TEST(Fingerprint, BranchesOneConstantApartAreDistinctBases) {
  const auto tiers = [](int a, int b) {
    const std::string sa = std::to_string(a), sb = std::to_string(b);
    const std::string source =
        "kernel twobranch(n: int in, c: int in, x: real[] in, "
        "y: real[] inout) {\n"
        "  parallel for i = 0 : n - 1 : 64 shared(y, x) {\n"
        "    if (c > 0) { y[i] += 0.5 * x[i + " + sa + "]; y[i + " + sa +
        "] += 0.5 * x[i]; }\n"
        "    if (c < 0) { y[i] += 0.5 * x[i + " + sb + "]; y[i + " + sb +
        "] += 0.5 * x[i]; }\n"
        "  }\n"
        "}\n";
    auto kernel = parser::parseKernel(source);
    driver::DriverOptions opts;
    opts.analysisThreads = 1;
    return core::describeTiers(driver::analyze(*kernel, {"x"}, {"y"}, opts));
  };
  const std::string want =
      "region #0 decision tiers: 10 queries = 7 tier-0 + 0 tier-1 + 1 "
      "tier-2 + 2 cached\n";
  for (auto [a, b] :
       {std::pair{12, 17}, {2, 3}, {2, 5}, {4, 5}, {4, 7}, {12, 13}}) {
    SCOPED_TRACE(std::to_string(a) + "/" + std::to_string(b));
    EXPECT_EQ(tiers(a, b), want);
  }
}

// --- persistent store durability ---
//
// A store memoizes every record it stores or loads, so each probe below
// reads through a FRESH store over the directory: it exercises the disk
// record, not the writer's memory layer.

// The context every record below is stored under, and a probe key.
const std::string kContext = "!1*i#0'+-1*i#0+0;";
const std::string kProbe = "=1*q#0+0;";

smt::RecordKey keyUnder(smt::PersistentVerdictStore& store,
                        const std::string& probes) {
  return formad::testing::recordKey(store, kContext, probes);
}

/// keyUnder with the record digest forced to `digest`, as a digest
/// collision would have it.
smt::RecordKey keyUnder(smt::PersistentVerdictStore& store,
                        const std::string& probes, const smt::Digest& digest) {
  smt::RecordKey key = keyUnder(store, probes);
  key.digest = digest;
  return key;
}

std::optional<smt::VerdictRecord> diskLoadCheck(const TempDir& dir,
                                                const std::string& probes,
                                                long long stepLimit) {
  smt::PersistentVerdictStore fresh(dir.path.string());
  return fresh.loadCheck(keyUnder(fresh, probes), stepLimit);
}

/// Loads a task record of a two-probe task.
std::optional<smt::PersistentVerdictStore::TaskRecord> diskLoadTask(
    const TempDir& dir, const std::string& probes, long long stepLimit,
    const smt::Digest& digest) {
  smt::PersistentVerdictStore fresh(dir.path.string());
  return fresh.loadTask(keyUnder(fresh, probes, digest), stepLimit, 2);
}

std::string fileBytes(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void overwriteFile(const fs::path& file, const std::string& bytes) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(DiskCache, CheckRecordRoundtripAndBudgetGuard) {
  TempDir dir("check");
  smt::PersistentVerdictStore store(dir.path.string());

  smt::VerdictRecord complete{smt::CheckResult::Unsat, 2, true, 50};
  store.storeCheck(keyUnder(store, kProbe), complete);
  // Complete verdict: served at any budget that covers its step count.
  EXPECT_TRUE(diskLoadCheck(dir, kProbe, 0).has_value());
  EXPECT_TRUE(diskLoadCheck(dir, kProbe, 50).has_value());
  EXPECT_FALSE(diskLoadCheck(dir, kProbe, 10).has_value());
  auto e = diskLoadCheck(dir, kProbe, 0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->result, smt::CheckResult::Unsat);
  EXPECT_EQ(e->tier, 2);
  EXPECT_TRUE(e->complete);
  EXPECT_EQ(e->steps, 50);

  // Exhausted verdict: only served under a budget no larger than the one
  // that ran out — a starved Unknown must never poison an unlimited run.
  const std::string probe2 = kProbe + "x";
  smt::VerdictRecord starved{smt::CheckResult::Unknown, 2, false, 100};
  store.storeCheck(keyUnder(store, probe2), starved);
  EXPECT_TRUE(diskLoadCheck(dir, probe2, 100).has_value());
  EXPECT_TRUE(diskLoadCheck(dir, probe2, 50).has_value());
  EXPECT_FALSE(diskLoadCheck(dir, probe2, 200).has_value());
  EXPECT_FALSE(diskLoadCheck(dir, probe2, 0).has_value());
  // The memory layer applies the same guard.
  EXPECT_TRUE(store.loadCheck(keyUnder(store, probe2), 100).has_value());
  EXPECT_FALSE(store.loadCheck(keyUnder(store, probe2), 0).has_value());
  // Both records share one context, kept and written once.
  EXPECT_EQ(store.stats().contextStores, 1);
}

// One record policy: memory keeps the stronger record, and only new or
// stronger records reach the disk — a starved store never overwrites the
// complete record another store persisted, even one it could not use.
TEST(DiskCache, WeakerRecordsNeverOverwriteStrongerOnes) {
  TempDir dir("policy");
  const smt::VerdictRecord complete{smt::CheckResult::Unsat, 2, true, 50};
  const smt::VerdictRecord starved{smt::CheckResult::Unknown, 2, false, 5};
  {
    smt::PersistentVerdictStore first(dir.path.string());
    first.storeCheck(keyUnder(first, kProbe), complete);
  }
  smt::PersistentVerdictStore second(dir.path.string());
  // The starved caller cannot use the complete record (it needs 50 steps)
  // but the load memoizes it, so the starved store() that follows keeps
  // it and writes nothing.
  EXPECT_FALSE(second.loadCheck(keyUnder(second, kProbe), 5).has_value());
  second.storeCheck(keyUnder(second, kProbe), starved);
  EXPECT_EQ(second.stats().checkStores, 0);
  EXPECT_TRUE(diskLoadCheck(dir, kProbe, 0).has_value());

  // Task records follow the same policy.
  const std::string tkey = "P|=1*q#0+0";
  const smt::Digest digest{0xccccccccccccccccULL, 0xccULL};
  const smt::PersistentVerdictStore::TaskRecord full{
      {{smt::CheckResult::Unsat, 2, true, 40}}};
  const smt::PersistentVerdictStore::TaskRecord cut{
      {{smt::CheckResult::Unknown, 2, false, 5},
       {smt::CheckResult::Unknown, 2, false, 5}}};
  second.storeTask(keyUnder(second, tkey, digest), full);
  smt::PersistentVerdictStore third(dir.path.string());
  EXPECT_FALSE(
      third.loadTask(keyUnder(third, tkey, digest), 5, 2).has_value());
  third.storeTask(keyUnder(third, tkey, digest), cut);
  EXPECT_EQ(third.stats().taskStores, 0);
  EXPECT_TRUE(diskLoadTask(dir, tkey, 0, digest).has_value());

  // A stronger record does replace a weaker one, in memory and on disk.
  const std::string probe2 = kProbe + "x";
  second.storeCheck(keyUnder(second, probe2), starved);
  EXPECT_FALSE(second.loadCheck(keyUnder(second, probe2), 0).has_value());
  second.storeCheck(keyUnder(second, probe2), complete);
  EXPECT_TRUE(second.loadCheck(keyUnder(second, probe2), 0).has_value());
  EXPECT_TRUE(diskLoadCheck(dir, probe2, 0).has_value());
  EXPECT_EQ(second.stats().checkStores, 2);
}

TEST(DiskCache, TaskRecordRoundtripVerifiesFullKey) {
  TempDir dir("task");
  smt::PersistentVerdictStore store(dir.path.string());
  const std::string key = "P|=1*q#0+0|=1*r#0+0";
  const smt::Digest digest{0xaaaaaaaaaaaaaaaaULL, 0xaULL};

  const smt::PersistentVerdictStore::TaskRecord rec{
      {{smt::CheckResult::Sat, 2, true, 40},
       {smt::CheckResult::Unsat, 0, true, 1}}};
  const smt::RecordKey stored = keyUnder(store, key, digest);
  store.storeTask(stored, rec);

  // The file carries the context's digest and the task's own key, not the
  // context's key; the payload is a `task <n>` line, then each check as
  // the very line a check file carries.
  const fs::path file = dir.path / ("t" + digest.hex() + ".fvc");
  const std::string header = "formadvc 2 t\ncontext " +
                             stored.context.digest().hex() + "\nprobes " +
                             std::to_string(key.size()) + "\n" + key + "\n";
  EXPECT_EQ(fileBytes(file), header +
                                 "task 2\n"
                                 "verdict sat 2 1 40\n"
                                 "verdict unsat 0 1 1\n"
                                 "ok\n");
  // The context's canonical key sits in its own file, once.
  EXPECT_EQ(fileBytes(dir.path /
                      ("x" + stored.context.digest().hex() + ".fvc")),
            "formadvc 2 x\nkey " + std::to_string(kContext.size()) + "\n" +
                kContext + "\nok\n");

  auto got = diskLoadTask(dir, key, 0, digest);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->proved());
  EXPECT_EQ(got->checks, rec.checks);

  // A different digest looks under a different file name: miss.
  EXPECT_FALSE(
      diskLoadTask(dir, key, 0, smt::Digest{0xbbULL, 0xbbULL}).has_value());
  // Same digest, different key (a simulated digest collision): the full
  // key verification rejects it — a collision costs a miss, never a wrong
  // verdict.
  EXPECT_FALSE(diskLoadTask(dir, key + ";", 0, digest).has_value());
  // Same digest and key under another context: the context digest in the
  // file rejects it.
  {
    smt::PersistentVerdictStore fresh(dir.path.string());
    const std::string other = kContext + "!1*j#0'+-1*j#0+0;";
    smt::RecordKey elsewhere = formad::testing::recordKey(fresh, other, key);
    elsewhere.digest = digest;
    EXPECT_FALSE(fresh.loadTask(elsewhere, 0, 2).has_value());
  }
  // Budget guard applies to EVERY recorded check.
  EXPECT_FALSE(diskLoadTask(dir, key, 10, digest).has_value());

  // Payloads no probe walk of this two-probe task wrote are misses, never
  // a throw: the previous format's pair and consistency records, a task
  // with no checks, an Unsat before the last check, more checks than the
  // task has probes, and fewer checks without the Unsat that stops a walk.
  auto overwrite = [&](const std::string& payload) {
    overwriteFile(file, header + payload + "ok\n");
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
    EXPECT_NO_THROW(miss = fresh.loadTask(keyUnder(fresh, key, digest), 0, 2));
    EXPECT_FALSE(miss.has_value());
    EXPECT_EQ(fresh.stats().taskMisses, 1);
  }
  // A one-probe task may record its one check, so the bound is the
  // caller's probe count: the cut payload is whole for such a task.
  overwrite(kCutShort);
  {
    smt::PersistentVerdictStore fresh(dir.path.string());
    EXPECT_TRUE(fresh.loadTask(keyUnder(fresh, key, digest), 0, 1).has_value());
  }
  // A store that missed on a malformed payload rewrites the file whole.
  for (const char* payload : {kPreviousFormat, kTooMany, kCutShort}) {
    SCOPED_TRACE(payload);
    overwrite(payload);
    {
      smt::PersistentVerdictStore fresh(dir.path.string());
      EXPECT_FALSE(
          fresh.loadTask(keyUnder(fresh, key, digest), 0, 2).has_value());
      fresh.storeTask(keyUnder(fresh, key, digest), rec);
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
  store.storeCheck(keyUnder(store, kProbe),
                   {smt::CheckResult::Unsat, 2, true, 5});
  ASSERT_TRUE(diskLoadCheck(dir, kProbe, 0).has_value());

  fs::path file, contextFile;
  for (const auto& e : fs::directory_iterator(dir.path))
    (e.path().filename().string()[0] == 'x' ? contextFile : file) = e.path();
  ASSERT_FALSE(file.empty());
  ASSERT_FALSE(contextFile.empty());
  auto overwrite = [&](const std::string& bytes) {
    overwriteFile(file, bytes);
  };

  // Truncate: drop the trailing "ok" terminator — a torn write.
  const std::string whole = fileBytes(file);
  ASSERT_GT(whole.size(), 3u);
  overwrite(whole.substr(0, whole.size() - 3));
  EXPECT_FALSE(diskLoadCheck(dir, kProbe, 0).has_value());

  // Corrupt: garbage body under the right name.
  overwrite("not a record at all");
  EXPECT_FALSE(diskLoadCheck(dir, kProbe, 0).has_value());

  // Empty file.
  overwrite("");
  EXPECT_FALSE(diskLoadCheck(dir, kProbe, 0).has_value());

  // A header declaring an absurd probe-key length — huge, or 2^64-1 — is
  // a miss, never an allocation failure: loads never throw.
  const std::string head = "formadvc 2 c\ncontext " +
                           keyUnder(store, kProbe).context.digest().hex() +
                           "\n";
  const std::string body = kProbe + "\nverdict unsat 2 1 5\nok\n";
  for (const char* len : {"999999999999999", "18446744073709551615"}) {
    SCOPED_TRACE(len);
    overwrite(head + "probes " + len + "\n" + body);
    std::optional<smt::VerdictRecord> got;
    EXPECT_NO_THROW(got = diskLoadCheck(dir, kProbe, 0));
    EXPECT_FALSE(got.has_value());
  }

  // The writer still serves its memoized record; as it already holds it,
  // storing it again writes nothing, so the slot stays corrupt...
  EXPECT_TRUE(store.loadCheck(keyUnder(store, kProbe), 0).has_value());
  store.storeCheck(keyUnder(store, kProbe),
                   {smt::CheckResult::Unsat, 2, true, 5});
  EXPECT_FALSE(diskLoadCheck(dir, kProbe, 0).has_value());
  const auto s = store.stats();
  EXPECT_EQ(s.checkStores, 1);
  EXPECT_EQ(s.checkMemoryHits, 1);

  // ...until a store that has not seen the record rewrites and heals it.
  {
    smt::PersistentVerdictStore healer(dir.path.string());
    healer.storeCheck(keyUnder(healer, kProbe),
                      {smt::CheckResult::Unsat, 2, true, 5});
  }
  EXPECT_TRUE(diskLoadCheck(dir, kProbe, 0).has_value());

  // A context file that is not whole — truncated, or declaring an absurd
  // key length — reads as absent, never a throw: the opener keeps its own
  // key, rewrites the file whole, and its records still serve.
  const std::string contextWhole = fileBytes(contextFile);
  for (const std::string& bytes :
       {contextWhole.substr(0, contextWhole.size() - 3),
        std::string("formadvc 2 x\nkey 18446744073709551615\n") + kContext +
            "\nok\n",
        std::string("formadvc 2 x\nkey 99\n") + kContext + "\nok\n"}) {
    SCOPED_TRACE(bytes);
    overwriteFile(contextFile, bytes);
    smt::PersistentVerdictStore fresh(dir.path.string());
    std::optional<smt::VerdictRecord> got;
    EXPECT_NO_THROW(got = fresh.loadCheck(keyUnder(fresh, kProbe), 0));
    EXPECT_TRUE(got.has_value());
    EXPECT_EQ(fresh.stats().contextStores, 1);
    EXPECT_EQ(fileBytes(contextFile), contextWhole);
  }
}

// A digest collision costs a miss at every level, in memory and on disk:
// two task keys under one record digest, and two contexts under one
// context digest. Every load serves its own record or misses, no claim is
// served another key's record, and nothing throws.
TEST(DiskCache, ForcedDigestCollisionsCostAMiss) {
  TempDir dir("collide");
  using TaskRecord = smt::PersistentVerdictStore::TaskRecord;
  const smt::Digest shared{0x1234ULL, 0x5678ULL};
  const std::string keyA = "P|=1*q#0+0", keyB = "P|=1*q#0+1";
  const TaskRecord recA{{{smt::CheckResult::Unsat, 2, true, 4}}};
  const TaskRecord recB{{{smt::CheckResult::Sat, 1, true, 0}}};
  {
    smt::PersistentVerdictStore store(dir.path.string());
    const smt::RecordKey a = keyUnder(store, keyA, shared);
    const smt::RecordKey b = keyUnder(store, keyB, shared);
    store.storeTask(a, recA);
    std::optional<TaskRecord> got;
    EXPECT_NO_THROW(got = store.loadTask(b, 0, 1));
    EXPECT_FALSE(got.has_value());
    {
      auto claimB = store.claimTask(b, 0, nullptr);
      EXPECT_FALSE(claimB.served.has_value());
      EXPECT_TRUE(claimB.claim.owned());
      // The last record published under a digest holds its slot.
      store.storeTask(b, recB);
    }
    got = store.loadTask(b, 0, 1);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->checks, recB.checks);
    EXPECT_FALSE(store.loadTask(a, 0, 1).has_value());
    auto claimA = store.claimTask(a, 0, nullptr);
    EXPECT_FALSE(claimA.served.has_value());
    EXPECT_TRUE(claimA.claim.owned());
  }
  {
    // On disk, the file under the shared name holds B's record: A misses.
    smt::PersistentVerdictStore fresh(dir.path.string());
    std::optional<TaskRecord> got;
    EXPECT_NO_THROW(got = fresh.loadTask(keyUnder(fresh, keyA, shared), 0, 1));
    EXPECT_FALSE(got.has_value());
    got = fresh.loadTask(keyUnder(fresh, keyB, shared), 0, 1);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->checks, recB.checks);
  }

  // Two contexts under one context digest: the first key kept holds the
  // digest, and every record lookup through the other one misses —
  // although both address the very same record digest.
  const smt::Digest ctx{0x9abcULL, 0xdef0ULL};
  const std::string ctxA = "!1*a#0+0;", ctxB = "!1*b#0+0;";
  const smt::Digest rec = smt::recordDigest(ctx, kProbe);
  const smt::VerdictRecord unsat{smt::CheckResult::Unsat, 2, true, 3};
  const smt::VerdictRecord sat{smt::CheckResult::Sat, 2, true, 3};
  {
    smt::PersistentVerdictStore store(dir.path.string());
    const smt::RecordKey a{store.openContext(ctx, ctxA), kProbe, rec};
    const smt::RecordKey b{store.openContext(ctx, ctxB), kProbe, rec};
    EXPECT_TRUE(a.context.verified());
    EXPECT_FALSE(b.context.verified());
    EXPECT_EQ(store.stats().contextMismatches, 1);
    store.storeCheck(a, unsat);
    EXPECT_FALSE(store.loadCheck(b, 0).has_value());
    auto claimB = store.claimCheck(b, 0, nullptr);
    EXPECT_FALSE(claimB.served.has_value());
    EXPECT_FALSE(claimB.claim.owned());
    store.storeCheck(b, sat);  // a no-op under an unverified context
    EXPECT_EQ(store.loadCheck(a, 0), unsat);
  }
  {
    // A fresh store reads the context file: A's key holds the digest.
    smt::PersistentVerdictStore fresh(dir.path.string());
    const smt::RecordKey b{fresh.openContext(ctx, ctxB), kProbe, rec};
    EXPECT_FALSE(b.context.verified());
    EXPECT_FALSE(fresh.loadCheck(b, 0).has_value());
    const smt::RecordKey a{fresh.openContext(ctx, ctxA), kProbe, rec};
    EXPECT_TRUE(a.context.verified());
    EXPECT_EQ(fresh.loadCheck(a, 0), unsat);
    EXPECT_EQ(fresh.stats().contextLoads, 1);
    EXPECT_EQ(fresh.stats().contextStores, 0);
  }
}

// Files an older release wrote under a name this one uses — the previous
// format carried the full key after a `formadvc 1` header — cost a miss,
// never a throw, and the store rewrites them in the current format.
TEST(DiskCache, PreviousFormatFilesCostAMissAndAreRewritten) {
  TempDir dir("previous");
  const smt::VerdictRecord unsat{smt::CheckResult::Unsat, 2, true, 5};
  {
    smt::PersistentVerdictStore store(dir.path.string());
    store.storeCheck(keyUnder(store, kProbe), unsat);
  }
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir.path))
    files.push_back(e.path());
  ASSERT_EQ(files.size(), 2u);  // the check file and its context's
  const std::string fullKey = kContext + kProbe;
  for (const fs::path& f : files) {
    const char kind = f.filename().string()[0];
    overwriteFile(f, std::string("formadvc 1 ") + kind + "\nkey " +
                         std::to_string(fullKey.size()) + "\n" + fullKey +
                         "\nverdict unsat 2 1 5\nok\n");
  }
  {
    smt::PersistentVerdictStore fresh(dir.path.string());
    std::optional<smt::VerdictRecord> got;
    EXPECT_NO_THROW(got = fresh.loadCheck(keyUnder(fresh, kProbe), 0));
    EXPECT_FALSE(got.has_value());
    fresh.storeCheck(keyUnder(fresh, kProbe), unsat);
    const auto s = fresh.stats();
    EXPECT_EQ(s.checkMisses, 1);
    EXPECT_EQ(s.checkStores, 1);
    EXPECT_EQ(s.contextStores, 1);
  }
  for (const fs::path& f : files)
    EXPECT_EQ(fileBytes(f).rfind("formadvc 2 ", 0), 0u) << f;
  EXPECT_EQ(diskLoadCheck(dir, kProbe, 0), unsat);
}

}  // namespace
