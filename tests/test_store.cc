/**
 * @file
 * Artifact-store tests: the SHA-1 / fingerprint primitives, the
 * content-addressed store (roundtrip, dedup, corrupt-entry eviction,
 * LRU GC, cross-instance persistence), the stage-key partition (which
 * config fields invalidate which stage — the contract the whole
 * memoization design rests on), and the end-to-end property: a warm
 * rerun is served entirely from the store bit-identically, including
 * after an artifact has been corrupted on disk.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>
#include <utime.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/looppoint.hh"
#include "core/run_journal.hh"
#include "store/artifact_store.hh"
#include "store/stage_cache.hh"
#include "util/fingerprint.hh"
#include "util/checksum.hh"
#include "util/sha1.hh"
#include "util/sha1_blocks.hh"
#include "workload/descriptor.hh"

namespace looppoint {
namespace {

/** Fresh, empty store directory under the test tmpdir. */
std::string
freshStoreDir(const std::string &name)
{
    std::string dir = testing::TempDir() + "lp_store_" + name;
    std::string cmd = "rm -rf '" + dir + "'";
    EXPECT_EQ(std::system(cmd.c_str()), 0);
    return dir;
}

TEST(Sha1, KnownVectors)
{
    EXPECT_EQ(sha1Hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    EXPECT_EQ(sha1Hex("abc"),
              "a9993e364706816aba3e25717850c26c9cd0d89d");
    EXPECT_EQ(sha1Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlm"
                      "nomnopnopq"),
              "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
    EXPECT_EQ(sha1Hex(std::string(1'000'000, 'a')),
              "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot)
{
    std::string payload;
    for (int i = 0; i < 1000; ++i)
        payload += "chunk-" + std::to_string(i) + ";";
    Sha1 h;
    // Deliberately awkward chunk boundaries around the 64-byte block.
    size_t pos = 0;
    size_t step = 1;
    while (pos < payload.size()) {
        size_t n = std::min(step, payload.size() - pos);
        h.update(std::string_view(payload).substr(pos, n));
        pos += n;
        step = step * 7 % 129 + 1;
    }
    EXPECT_EQ(h.hex(), sha1Hex(payload));
}

/**
 * Pseudo-random bytes from a 64-bit LCG (top byte of each state), so
 * the pinned digests below can be regenerated with python:
 *
 *   x, M = 0x9E3779B97F4A7C15, (1 << 64) - 1
 *   for i in range(n):
 *       x = (x * 6364136223846793005 + 1442695040888963407) & M
 *       out[i] = x >> 56
 *
 * then hashlib.sha1(out[:len]).hexdigest() and zlib.crc32(out[:len]).
 */
std::string
lcgBytes(size_t n)
{
    std::string out(n, '\0');
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (size_t i = 0; i < n; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        out[i] = static_cast<char>(x >> 56);
    }
    return out;
}

struct HashVector
{
    size_t len;
    const char *sha1;
    uint32_t crc;
};

/** Lengths around the padding boundaries (55/56, 63/64/65), an odd
 * mid-size, and a multi-MB buffer that is not a whole number of
 * blocks. */
constexpr size_t kBigLen = 3 * 1024 * 1024 + 17;
const HashVector kHashVectors[] = {
    {0, "da39a3ee5e6b4b0d3255bfef95601890afd80709", 0x00000000u},
    {55, "96ebb12e794fed143881d0f2d9d824e18db36850", 0x2c4ec6f1u},
    {56, "ff4d3963ffaa1b3aa2f1b381ef93cbff0c39e2a1", 0x2197d003u},
    {63, "ab331e69321604f3b2d963c101f38b1db2e2a95b", 0x9fc64813u},
    {64, "223df54a0d7772faa006200bfe562105d13273e0", 0x6c9639d5u},
    {65, "6a76e76c2bb50aa1967ab5db861f4b1b31513bc0", 0xe46d3342u},
    {12345, "ac283a5660ada798eada7b0737fadcb9825a80c9", 0x5460a8fau},
    {kBigLen, "4bc6bbf971657f5c2d161f8234a06b30e2ae13bc", 0x2241d8dcu},
};

/** Every vector through one block function, one-shot and with
 * update() splits that straddle 64-byte boundaries. */
void
checkSha1Vectors(sha1_blocks::BlockFn blocks)
{
    const std::string data = lcgBytes(kBigLen);
    for (const HashVector &v : kHashVectors) {
        const std::string_view view(data.data(), v.len);
        Sha1 one_shot(blocks);
        one_shot.update(view);
        EXPECT_EQ(one_shot.hex(), v.sha1) << "len " << v.len;

        Sha1 split(blocks);
        size_t pos = 0, step = 1;
        while (pos < v.len) {
            const size_t n = std::min(step, v.len - pos);
            split.update(view.substr(pos, n));
            pos += n;
            step = step * 31 % 9001 + 1; // 1, 32, 993, ... rarely %64
        }
        EXPECT_EQ(split.hex(), v.sha1) << "split len " << v.len;
    }
}

TEST(Sha1, PinnedVectorsPortableBlocks)
{
    checkSha1Vectors(sha1_blocks::portable);
}

TEST(Sha1, PinnedVectorsShaNiBlocks)
{
    if (!sha1_blocks::shaNiAvailable())
        GTEST_SKIP() << "CPU has no SHA extensions";
    checkSha1Vectors(sha1_blocks::shaNi);
}

TEST(Sha1, DefaultPicksAnIdenticalBlockFunction)
{
    const std::string data = lcgBytes(kBigLen);
    EXPECT_EQ(sha1Hex(data), kHashVectors[7].sha1);
}

TEST(Checksum, PinnedVectorsAndSplits)
{
    const std::string data = lcgBytes(kBigLen);
    for (const HashVector &v : kHashVectors) {
        const std::string_view view(data.data(), v.len);
        EXPECT_EQ(crc32(view), v.crc) << "len " << v.len;
        uint32_t chained = 0;
        size_t pos = 0, step = 3;
        while (pos < v.len) {
            const size_t n = std::min(step, v.len - pos);
            chained = crc32(view.substr(pos, n), chained);
            pos += n;
            step = step * 17 % 7001 + 1;
        }
        EXPECT_EQ(chained, v.crc) << "split len " << v.len;
    }
}

TEST(Fingerprint, CanonicalTextAndSanitization)
{
    std::string text = FingerprintBuilder("stage-v1")
                           .field("name", "a b\tc\nd")
                           .field("n", uint64_t{42})
                           .field("flag", true)
                           .fieldDouble("x", 0.1)
                           .text();
    // Values are whitespace-sanitized so the manifest's line format
    // can never be split by a key.
    EXPECT_EQ(text, "stage-v1;name=a_b_c_d;n=42;flag=1;"
                    "x=0.10000000000000001;");
    EXPECT_EQ(FingerprintBuilder("stage-v1").text(), "stage-v1;");
}

std::string
slurpFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Lines of a CRC-line file, each checked. */
size_t
validLines(const std::string &path)
{
    std::istringstream is(slurpFile(path));
    std::string line;
    size_t n = 0;
    while (std::getline(is, line)) {
        EXPECT_TRUE(checkCrcLine(line)) << path << ": " << line;
        ++n;
    }
    return n;
}

// ------------------------------------------------------------- store

TEST(ArtifactStore, RoundtripAndPersistence)
{
    std::string dir = freshStoreDir("roundtrip");
    std::string hash;
    {
        ArtifactStore store(dir);
        EXPECT_FALSE(store.lookup("record", "k1"));
        EXPECT_EQ(store.stats().misses, 1u);
        hash = store.publish("record", "k1", "payload-one");
        EXPECT_EQ(hash, sha1Hex("payload-one"));
        auto hit = store.lookup("record", "k1");
        ASSERT_TRUE(hit);
        EXPECT_EQ(hit->payload, "payload-one");
        EXPECT_EQ(hit->hash, hash);
    }
    // A second instance (fresh process, conceptually) sees the same
    // binding: the manifest and objects live on disk.
    ArtifactStore store2(dir);
    auto hit = store2.lookup("record", "k1");
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->payload, "payload-one");
    EXPECT_EQ(store2.hashFor("record", "k1"), hash);
    ASSERT_EQ(store2.entries().size(), 1u);
    EXPECT_EQ(store2.entries()[0].stage, "record");
    EXPECT_EQ(store2.verify(), 0u);
}

TEST(ArtifactStore, DeduplicatesIdenticalContent)
{
    std::string dir = freshStoreDir("dedup");
    ArtifactStore store(dir);
    std::string h1 = store.publish("profile", "keyA", "same-bytes");
    uint64_t stored_after_first = store.stats().bytesStored;
    EXPECT_GT(stored_after_first, 0u);
    std::string h2 = store.publish("profile", "keyB", "same-bytes");
    EXPECT_EQ(h1, h2);
    // Second publish wrote nothing new, only a manifest binding.
    EXPECT_EQ(store.stats().bytesStored, stored_after_first);
    EXPECT_EQ(store.stats().bytesDeduped,
              std::string("same-bytes").size());
    ASSERT_EQ(store.entries().size(), 2u);
}

TEST(ArtifactStore, CorruptObjectEvictedAndRecomputable)
{
    std::string dir = freshStoreDir("corrupt");
    ArtifactStore store(dir);
    std::string hash = store.publish("cluster", "k", "precious-data");

    // Flip one byte in the object payload on disk.
    std::string obj = dir + "/objects/" + hash;
    {
        std::fstream f(obj,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(-3, std::ios::end);
        f.put('X');
    }

    // The lookup detects the damage, evicts, and reports a miss...
    EXPECT_FALSE(store.lookup("cluster", "k"));
    EXPECT_EQ(store.stats().corruptEntries, 1u);
    EXPECT_FALSE(store.hashFor("cluster", "k"));
    struct stat st;
    EXPECT_NE(stat(obj.c_str(), &st), 0) << "object not unlinked";

    // ...and the caller's recompute-republish makes it whole again.
    store.publish("cluster", "k", "precious-data");
    auto hit = store.lookup("cluster", "k");
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->payload, "precious-data");
    EXPECT_EQ(store.verify(), 0u);
}

TEST(ArtifactStore, FailedPublishIsLoggedMissNotFatal)
{
    std::string dir = freshStoreDir("failed_publish");
    ArtifactStore store(dir);

    // Make object writes impossible in a uid-independent way (tests
    // may run as root, where chmod 0500 would not bite): replace the
    // objects/ directory with a regular file, so opening
    // objects/<hash>.tmp.<pid> fails with ENOTDIR — the same code
    // path ENOSPC and short writes take.
    std::string objects = dir + "/objects";
    ASSERT_EQ(std::system(("rm -rf '" + objects + "'").c_str()), 0);
    { std::ofstream block(objects); ASSERT_TRUE(block.good()); }

    // The publish degrades to a logged miss: hash still returned (the
    // key chain downstream stays valid), nothing bound, run continues.
    std::string hash = store.publish("record", "k", "unstorable");
    EXPECT_EQ(hash, sha1Hex("unstorable"));
    EXPECT_EQ(store.stats().failedPublishes, 1u);
    EXPECT_EQ(store.stats().publishes, 0u);
    EXPECT_EQ(store.stats().bytesStored, 0u);
    EXPECT_FALSE(store.hashFor("record", "k"));
    EXPECT_FALSE(store.lookup("record", "k"));

    // Once the disk recovers, the recompute-republish path heals.
    ASSERT_EQ(std::remove(objects.c_str()), 0);
    ASSERT_EQ(mkdir(objects.c_str(), 0755), 0);
    store.publish("record", "k", "unstorable");
    EXPECT_EQ(store.stats().publishes, 1u);
    auto hit = store.lookup("record", "k");
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->payload, "unstorable");
    EXPECT_EQ(store.verify(), 0u);
}

TEST(ArtifactStore, CorruptionEvictsEveryBindingOfTheHash)
{
    std::string dir = freshStoreDir("corrupt_shared");
    ArtifactStore store(dir);
    std::string hash = store.publish("record", "kA", "shared");
    store.publish("record", "kB", "shared"); // same object
    {
        std::fstream f(dir + "/objects/" + hash,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(-1, std::ios::end);
        f.put('?');
    }
    EXPECT_FALSE(store.lookup("record", "kA"));
    // The object is gone, so the sibling binding must be gone too —
    // a dangling manifest entry would turn into an I/O error later.
    EXPECT_TRUE(store.entries().empty());
}

TEST(ArtifactStore, PublishAppendsToTheManifestInPlace)
{
    std::string dir = freshStoreDir("append");
    const std::string manifest = dir + "/manifest";
    ArtifactStore store(dir);
    store.publish("record", "k1", "one");
    struct stat before{}, after{};
    ASSERT_EQ(::stat(manifest.c_str(), &before), 0);
    store.publish("record", "k2", "two");
    ASSERT_EQ(::stat(manifest.c_str(), &after), 0);
    EXPECT_EQ(after.st_ino, before.st_ino);
    EXPECT_GT(after.st_size, before.st_size);
    EXPECT_EQ(validLines(manifest), 3u); // magic + 2 entries
}

TEST(ArtifactStore, TornManifestTailIsCutOnPublish)
{
    std::string dir = freshStoreDir("torn_manifest");
    const std::string manifest = dir + "/manifest";
    {
        ArtifactStore store(dir);
        store.publish("record", "k1", "one");
        store.publish("record", "k2", "two");
        store.publish("record", "k3", "three");
    }
    // A publish cut short by a crash: the last entry line is torn.
    const std::string bytes = slurpFile(manifest);
    {
        std::ofstream out(manifest, std::ios::binary | std::ios::trunc);
        out << bytes.substr(0, bytes.size() - 10);
    }
    ArtifactStore store(dir);
    EXPECT_EQ(store.entries().size(), 2u);
    EXPECT_FALSE(store.hashFor("record", "k3"));

    // The publish cuts the tail before appending, so its entry is not
    // stranded behind the torn line and the file is whole again.
    store.publish("record", "k4", "four");
    EXPECT_EQ(ArtifactStore(dir).entries().size(), 3u);
    EXPECT_EQ(validLines(manifest), 4u);
}

TEST(ArtifactStore, ManifestLastLineWinsAndGcAndEvictionCompact)
{
    std::string dir = freshStoreDir("last_wins");
    const std::string manifest = dir + "/manifest";
    ArtifactStore store(dir);
    store.publish("cluster", "k", "first");
    const std::string h2 = store.publish("cluster", "k", "second");
    const std::string h3 = store.publish("cluster", "other", "third");
    // Rebinding "k" appended a line; a reload resolves to the last.
    EXPECT_EQ(validLines(manifest), 4u);
    EXPECT_EQ(ArtifactStore(dir).hashFor("cluster", "k"), h2);
    EXPECT_EQ(store.entries().size(), 2u);

    // gc collects the orphaned first object and compacts the file.
    EXPECT_EQ(store.gc(UINT64_MAX).removedObjects, 1u);
    EXPECT_EQ(validLines(manifest), 3u);
    EXPECT_EQ(store.hashFor("cluster", "k"), h2);

    // Evicting a corrupt object rewrites the file without its line.
    {
        std::fstream f(dir + "/objects/" + h3,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(-1, std::ios::end);
        f.put('?');
    }
    EXPECT_FALSE(store.lookup("cluster", "other"));
    EXPECT_EQ(validLines(manifest), 2u);
    EXPECT_EQ(ArtifactStore(dir).hashFor("cluster", "k"), h2);
}

TEST(ArtifactStore, GcEvictsLeastRecentlyUsedFirst)
{
    std::string dir = freshStoreDir("gc");
    ArtifactStore store(dir);
    std::string h_old = store.publish("record", "old", "old-payload");
    std::string h_new = store.publish("record", "new", "new-payload!");

    // Backdate the old object; lookups refresh mtime, so touch "new"
    // through the API like a real reuse would.
    struct utimbuf ancient{1000000, 1000000};
    ASSERT_EQ(utime((dir + "/objects/" + h_old).c_str(), &ancient), 0);
    ASSERT_TRUE(store.lookup("record", "new"));

    auto dry = store.gc(1, /*dry_run=*/true);
    EXPECT_EQ(dry.removedObjects, 2u);
    EXPECT_EQ(store.entries().size(), 2u) << "dry run must not evict";

    // Budget for one object: the stale one goes, the fresh one stays.
    struct stat st;
    ASSERT_EQ(stat((dir + "/objects/" + h_new).c_str(), &st), 0);
    auto r = store.gc(static_cast<uint64_t>(st.st_size));
    EXPECT_EQ(r.removedObjects, 1u);
    EXPECT_EQ(r.keptObjects, 1u);
    EXPECT_EQ(r.droppedEntries, 1u);
    EXPECT_FALSE(store.lookup("record", "old"));
    EXPECT_TRUE(store.lookup("record", "new"));
}

TEST(ArtifactStore, GcCollectsOrphanObjectsAndTmpFiles)
{
    std::string dir = freshStoreDir("gc_orphan");
    ArtifactStore store(dir);
    store.publish("record", "live", "live-payload");
    // An orphan object (no manifest binding) and a torn tmp file, as a
    // crash mid-publish would leave behind.
    std::ofstream(dir + "/objects/" + std::string(40, '0'))
        << "orphan-bytes";
    std::ofstream(dir + "/objects/deadbeef.tmp.1234") << "torn";

    auto r = store.gc(UINT64_MAX);
    EXPECT_EQ(r.removedObjects, 1u); // the orphan
    EXPECT_EQ(r.keptObjects, 1u);
    EXPECT_TRUE(store.lookup("record", "live"));
    struct stat st;
    EXPECT_NE(stat((dir + "/objects/deadbeef.tmp.1234").c_str(), &st),
              0);
}

// ----------------------------------------------- key partition tables

LoopPointOptions
baseOpts()
{
    LoopPointOptions o;
    o.numThreads = 4;
    o.sliceSizePerThread = 25'000;
    return o;
}

/**
 * The uarch partition: every result-affecting SimConfig field must
 * change uarchKeyText(); every host-side knob must not. This is the
 * table that pins the fix for the historical journal-fingerprint gap
 * (describe() missed prefetchDegree and the op latencies).
 */
TEST(StageKeys, UarchPartitionCoversEveryResultAffectingField)
{
    const std::string base = SimConfig().uarchKeyText();

    const std::vector<std::pair<const char *,
                                void (*)(SimConfig &)>> uarch_fields = {
        {"coreType",
         [](SimConfig &c) { c.coreType = CoreType::InOrder; }},
        {"freqGHz", [](SimConfig &c) { c.freqGHz = 3.0; }},
        {"robSize", [](SimConfig &c) { c.robSize = 64; }},
        {"dispatchWidth", [](SimConfig &c) { c.dispatchWidth = 2; }},
        {"branchMispredictPenalty",
         [](SimConfig &c) { c.branchMispredictPenalty = 20; }},
        {"prefetchDegree", [](SimConfig &c) { c.prefetchDegree = 2; }},
        {"l1i.sizeBytes",
         [](SimConfig &c) { c.l1i.sizeBytes *= 2; }},
        {"l1d.assoc", [](SimConfig &c) { c.l1d.assoc = 4; }},
        {"l2.sizeBytes", [](SimConfig &c) { c.l2.sizeBytes *= 4; }},
        {"l2.latency", [](SimConfig &c) { c.l2.latency = 12; }},
        {"l3.lineBytes", [](SimConfig &c) { c.l3.lineBytes = 128; }},
        {"memLatency", [](SimConfig &c) { c.memLatency = 300; }},
        {"latIntAlu", [](SimConfig &c) { c.latIntAlu = 2; }},
        {"latIntMul", [](SimConfig &c) { c.latIntMul = 4; }},
        {"latIntDiv", [](SimConfig &c) { c.latIntDiv = 40; }},
        {"latFpAdd", [](SimConfig &c) { c.latFpAdd = 4; }},
        {"latFpMul", [](SimConfig &c) { c.latFpMul = 6; }},
        {"latFpDiv", [](SimConfig &c) { c.latFpDiv = 30; }},
        {"latBranch", [](SimConfig &c) { c.latBranch = 2; }},
        {"latAtomicExtra",
         [](SimConfig &c) { c.latAtomicExtra = 20; }},
    };
    for (const auto &[name, mutate] : uarch_fields) {
        SimConfig c;
        mutate(c);
        EXPECT_NE(c.uarchKeyText(), base)
            << name << " must re-key the simulation stages";
    }

    const std::vector<std::pair<const char *,
                                void (*)(SimConfig &)>> host_knobs = {
        {"jobs", [](SimConfig &c) { c.jobs = 16; }},
        {"obs.trace", [](SimConfig &c) { c.obs.trace = true; }},
        {"obs.metrics", [](SimConfig &c) { c.obs.metrics = true; }},
        {"regionRetries", [](SimConfig &c) { c.regionRetries = 3; }},
        {"watchdogFactor", [](SimConfig &c) { c.watchdogFactor = 8; }},
        {"faults",
         [](SimConfig &c) {
             c.faults = FaultPlan::parse("sim:region=0,kind=throw");
         }},
    };
    for (const auto &[name, mutate] : host_knobs) {
        SimConfig c;
        mutate(c);
        EXPECT_EQ(c.uarchKeyText(), base)
            << name << " is host-side and must never invalidate "
                       "cached results";
    }
}

/**
 * Stage-level invalidation: which knob re-keys which stage. The
 * chained-hash design makes downstream invalidation transitive, so
 * this table only needs to pin the *direct* inputs of each key.
 */
TEST(StageKeys, InvalidationTable)
{
    LoopPointOptions o = baseOpts();
    SimConfig sim;
    const std::string rec = StageCache::recordKey("app.test", o);
    const std::string prof = StageCache::profileKey("HASH_R", o);
    const std::string clus = StageCache::clusterKey("HASH_P", o);
    const std::string simk = StageCache::simKey("HASH_C", sim, false);

    // Input/app change: the workload name is in the record key, and
    // everything downstream chains on the record hash.
    EXPECT_NE(StageCache::recordKey("app.train", o), rec);
    EXPECT_NE(StageCache::recordKey("other.test", o), rec);

    // A uarch change re-keys ONLY the simulation stages.
    SimConfig big_l2;
    applyUarchPreset(big_l2, "big-l2");
    EXPECT_NE(StageCache::simKey("HASH_C", big_l2, false), simk);
    EXPECT_NE(StageCache::fullSimKey("app.test", 4,
                                     WaitPolicy::Passive, 42, big_l2),
              StageCache::fullSimKey("app.test", 4,
                                     WaitPolicy::Passive, 42, sim));
    // (recordKey/profileKey/clusterKey take no SimConfig at all: the
    // type system already guarantees uarch cannot reach them.)

    // Constrained mode changes replay semantics: sim key only.
    EXPECT_NE(StageCache::simKey("HASH_C", sim, true), simk);

    // Thread count / wait policy / seed / quantum: recording inputs.
    {
        LoopPointOptions m = o;
        m.numThreads = 8;
        EXPECT_NE(StageCache::recordKey("app.test", m), rec);
        m = o;
        m.waitPolicy = WaitPolicy::Active;
        EXPECT_NE(StageCache::recordKey("app.test", m), rec);
        m = o;
        m.seed = 7;
        EXPECT_NE(StageCache::recordKey("app.test", m), rec);
        m = o;
        m.flowQuantum = 500;
        EXPECT_NE(StageCache::recordKey("app.test", m), rec);
    }

    // Slice size / spin filter: profile inputs, not recording inputs.
    {
        LoopPointOptions m = o;
        m.sliceSizePerThread = 50'000;
        EXPECT_EQ(StageCache::recordKey("app.test", m), rec);
        EXPECT_NE(StageCache::profileKey("HASH_R", m), prof);
        m = o;
        m.filterSpin = false;
        EXPECT_EQ(StageCache::recordKey("app.test", m), rec);
        EXPECT_NE(StageCache::profileKey("HASH_R", m), prof);
    }

    // Clustering knobs: cluster inputs only.
    {
        LoopPointOptions m = o;
        m.maxK = 10;
        EXPECT_EQ(StageCache::recordKey("app.test", m), rec);
        EXPECT_EQ(StageCache::profileKey("HASH_R", m), prof);
        EXPECT_NE(StageCache::clusterKey("HASH_P", m), clus);
        m = o;
        m.projectionDims = 32;
        EXPECT_NE(StageCache::clusterKey("HASH_P", m), clus);
        m = o;
        m.bicThreshold = 0.5;
        EXPECT_NE(StageCache::clusterKey("HASH_P", m), clus);
    }

    // Host-side knobs: NO key anywhere.
    {
        LoopPointOptions m = o;
        m.jobs = 32;
        EXPECT_EQ(StageCache::recordKey("app.test", m), rec);
        EXPECT_EQ(StageCache::profileKey("HASH_R", m), prof);
        EXPECT_EQ(StageCache::clusterKey("HASH_P", m), clus);
        SimConfig host = sim;
        host.jobs = 32;
        host.obs.trace = true;
        host.regionRetries = 5;
        EXPECT_EQ(StageCache::simKey("HASH_C", host, false), simk);
    }

    // Upstream hash chaining: a new upstream artifact re-keys the
    // stage even with identical knobs.
    EXPECT_NE(StageCache::profileKey("HASH_R2", o), prof);
    EXPECT_NE(StageCache::clusterKey("HASH_P2", o), clus);
    EXPECT_NE(StageCache::simKey("HASH_C2", sim, false), simk);
}

TEST(StageKeys, JournalKeyUsesUarchPartition)
{
    SimConfig a, b;
    b.prefetchDegree = 2; // describe() historically missed this
    RunKey ka = makeRunKey("app", "test", 4, WaitPolicy::Passive, 42,
                           false, a);
    RunKey kb = makeRunKey("app", "test", 4, WaitPolicy::Passive, 42,
                           false, b);
    EXPECT_NE(ka.simFingerprint, kb.simFingerprint);

    SimConfig host = a;
    host.jobs = 8;
    host.obs.metrics = true;
    RunKey kh = makeRunKey("app", "test", 4, WaitPolicy::Passive, 42,
                           false, host);
    EXPECT_EQ(ka, kh);
}

// ------------------------------------------- end-to-end memoization

ExperimentConfig
storeExpConfig(const std::string &store_dir)
{
    ExperimentConfig cfg;
    cfg.app = "619.lbm_s.1";
    cfg.input = InputClass::Test;
    cfg.requestedThreads = 4;
    cfg.loopPoint.sliceSizePerThread = 25'000;
    cfg.storeDir = store_dir;
    return cfg;
}

/** The fields a warm rerun must reproduce bit for bit. */
void
expectIdenticalResults(const ExperimentResult &a,
                       const ExperimentResult &b)
{
    EXPECT_EQ(a.analysis.chosenK, b.analysis.chosenK);
    EXPECT_EQ(a.analysis.assignment, b.analysis.assignment);
    ASSERT_EQ(a.analysis.regions.size(), b.analysis.regions.size());
    for (size_t i = 0; i < a.analysis.regions.size(); ++i) {
        EXPECT_EQ(a.analysis.regions[i].start,
                  b.analysis.regions[i].start);
        EXPECT_EQ(a.analysis.regions[i].end,
                  b.analysis.regions[i].end);
        EXPECT_EQ(a.analysis.regions[i].multiplier,
                  b.analysis.regions[i].multiplier);
    }
    EXPECT_EQ(a.regionMetrics, b.regionMetrics);
    EXPECT_EQ(a.predicted.runtimeSeconds, b.predicted.runtimeSeconds);
    EXPECT_EQ(a.predicted.cycles, b.predicted.cycles);
    EXPECT_EQ(a.fullSim, b.fullSim);
    EXPECT_EQ(a.runtimeErrorPct, b.runtimeErrorPct);
}

TEST(StorePipeline, WarmRerunServedEntirelyFromStoreBitIdentical)
{
    std::string dir = freshStoreDir("pipeline_warm");
    ExperimentResult cold = runExperiment(storeExpConfig(dir));
    EXPECT_FALSE(cold.analysis.stageHashes.recordHit);
    EXPECT_FALSE(cold.simStageHit);
    EXPECT_FALSE(cold.fullSimHit);
    EXPECT_EQ(cold.storeStats.hits, 0u);
    EXPECT_GT(cold.storeStats.publishes, 0u);
    // Provenance hashes are set on the publish path too.
    EXPECT_EQ(cold.analysis.stageHashes.record.size(), 40u);
    EXPECT_EQ(cold.analysis.stageHashes.profile.size(), 40u);
    EXPECT_EQ(cold.analysis.stageHashes.cluster.size(), 40u);

    ExperimentResult warm = runExperiment(storeExpConfig(dir));
    EXPECT_TRUE(warm.analysis.stageHashes.recordHit);
    EXPECT_TRUE(warm.analysis.stageHashes.profileHit);
    EXPECT_TRUE(warm.analysis.stageHashes.clusterHit);
    EXPECT_TRUE(warm.simStageHit);
    EXPECT_TRUE(warm.fullSimHit);
    EXPECT_EQ(warm.storeStats.misses, 0u) << "warm rerun recomputed "
                                             "something";
    EXPECT_EQ(warm.storeStats.publishes, 0u);
    EXPECT_EQ(warm.analysis.stageHashes.record,
              cold.analysis.stageHashes.record);
    EXPECT_EQ(warm.analysis.stageHashes.profile,
              cold.analysis.stageHashes.profile);
    EXPECT_EQ(warm.analysis.stageHashes.cluster,
              cold.analysis.stageHashes.cluster);
    expectIdenticalResults(cold, warm);
}

TEST(StorePipeline, UarchChangeReusesAnalysisOnly)
{
    std::string dir = freshStoreDir("pipeline_uarch");
    ExperimentResult base = runExperiment(storeExpConfig(dir));

    ExperimentConfig cfg = storeExpConfig(dir);
    applyUarchPreset(cfg.sim, "slow-mem");
    ExperimentResult swept = runExperiment(cfg);
    // Analysis is shared across the sweep...
    EXPECT_TRUE(swept.analysis.stageHashes.recordHit);
    EXPECT_TRUE(swept.analysis.stageHashes.profileHit);
    EXPECT_TRUE(swept.analysis.stageHashes.clusterHit);
    EXPECT_EQ(swept.analysis.stageHashes.cluster,
              base.analysis.stageHashes.cluster);
    // ...but the detailed simulations are not.
    EXPECT_FALSE(swept.simStageHit);
    EXPECT_FALSE(swept.fullSimHit);
    EXPECT_NE(swept.fullSim.cycles, base.fullSim.cycles);
}

TEST(StorePipeline, CorruptProfileArtifactRecomputedBitIdentical)
{
    std::string dir = freshStoreDir("pipeline_corrupt");
    ExperimentResult cold = runExperiment(storeExpConfig(dir));

    // Vandalize the profile artifact on disk.
    std::string obj =
        dir + "/objects/" + cold.analysis.stageHashes.profile;
    {
        std::fstream f(obj,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good()) << obj;
        f.seekp(-5, std::ios::end);
        f.put('!');
    }

    ExperimentResult warm = runExperiment(storeExpConfig(dir));
    // The damaged stage recomputed (from the cached recording) and the
    // recompute republished the identical content...
    EXPECT_TRUE(warm.analysis.stageHashes.recordHit);
    EXPECT_FALSE(warm.analysis.stageHashes.profileHit);
    EXPECT_EQ(warm.storeStats.corruptEntries, 1u);
    EXPECT_EQ(warm.analysis.stageHashes.profile,
              cold.analysis.stageHashes.profile);
    // ...so the downstream stages still hit, and results match the
    // cold run exactly.
    EXPECT_TRUE(warm.analysis.stageHashes.clusterHit);
    EXPECT_TRUE(warm.simStageHit);
    expectIdenticalResults(cold, warm);

    // And the store healed: a third run is all hits again.
    ExperimentResult healed = runExperiment(storeExpConfig(dir));
    EXPECT_TRUE(healed.analysis.stageHashes.profileHit);
    EXPECT_EQ(healed.storeStats.misses, 0u);
}

TEST(StorePipeline, HostKnobsShareStoreEntries)
{
    // A run with different host-side knobs (jobs) must be served from
    // the store populated by the serial run — same stage keys.
    std::string dir = freshStoreDir("pipeline_host");
    runExperiment(storeExpConfig(dir));
    ExperimentConfig cfg = storeExpConfig(dir);
    cfg.jobs = 3;
    ExperimentResult warm = runExperiment(cfg);
    EXPECT_TRUE(warm.simStageHit);
    EXPECT_EQ(warm.storeStats.misses, 0u);
}

TEST(StorePipeline, CopiedStoreServesAnotherPipeline)
{
    // Sharing region checkpoints is copying the store directory: a
    // pipeline over the copy, with the same workload and options, is
    // served every analysis stage and every warm checkpoint.
    const std::string dir = freshStoreDir("pipeline_share_src");
    const std::string copy = freshStoreDir("pipeline_share_dst");
    runExperiment(storeExpConfig(dir));
    std::filesystem::copy(dir, copy,
                          std::filesystem::copy_options::recursive);

    ExperimentConfig cfg = storeExpConfig(copy);
    applyUarchPreset(cfg.sim, "small-rob");
    ExperimentResult shared = runExperiment(cfg);
    EXPECT_TRUE(shared.analysis.stageHashes.recordHit);
    EXPECT_TRUE(shared.analysis.stageHashes.profileHit);
    EXPECT_TRUE(shared.analysis.stageHashes.clusterHit);
    EXPECT_TRUE(shared.warmStageHit);
    EXPECT_EQ(shared.warmHits, shared.analysis.regions.size());
    EXPECT_EQ(shared.warmPublished, 0u);

    cfg.storeDir = dir;
    ExperimentResult local = runExperiment(cfg);
    EXPECT_EQ(shared.regionMetrics, local.regionMetrics);
}

// ------------------------------------ hostile objects in a shared store

/**
 * Publish a tampered copy of a clean run's `profile` or `cluster`
 * object under its real key: the bytes hash-verify, so only the
 * loader's checks can catch it. The next analysis must treat it as a
 * miss, recompute that stage and reproduce the clean run's regions.
 */
void
expectTamperedObjectRecomputed(
    const std::string &name, const std::string &stage,
    const std::function<bool(std::string &payload)> &tamper)
{
    const std::string dir = freshStoreDir(name);
    const Program prog =
        generateProgram(findApp("628.pop2_s.1"), InputClass::Test);
    LoopPointOptions opts;
    opts.numThreads = 4;
    opts.sliceSizePerThread = 25'000;
    auto analyze = [&] {
        ArtifactStore store(dir);
        StageCache cache(store);
        LoopPointPipeline pipe(prog, opts);
        pipe.setStageCache(&cache);
        return pipe.analyze();
    };
    const LoopPointResult clean = analyze();
    const bool profile = stage == "profile";
    {
        ArtifactStore store(dir);
        const std::string key =
            profile
                ? StageCache::profileKey(clean.stageHashes.record, opts)
                : StageCache::clusterKey(clean.stageHashes.profile,
                                         opts);
        auto hit = store.lookup(stage, key);
        ASSERT_TRUE(hit);
        ASSERT_TRUE(tamper(hit->payload)) << "nothing to tamper with";
        store.publish(stage, key, hit->payload);
    }

    LoopPointResult again;
    ASSERT_NO_THROW(again = analyze());
    EXPECT_EQ(again.stageHashes.profileHit, !profile);
    EXPECT_EQ(again.stageHashes.clusterHit, profile);
    EXPECT_EQ(again.stageHashes.profile, clean.stageHashes.profile);
    EXPECT_EQ(again.stageHashes.cluster, clean.stageHashes.cluster);
    ASSERT_EQ(again.regions.size(), clean.regions.size());
    for (size_t i = 0; i < clean.regions.size(); ++i) {
        EXPECT_EQ(again.regions[i].start, clean.regions[i].start);
        EXPECT_EQ(again.regions[i].end, clean.regions[i].end);
        EXPECT_EQ(again.regions[i].multiplier,
                  clean.regions[i].multiplier);
    }
}

/** Apply `edit` to the first `region` line of a cluster payload it
 * accepts (returns true for). */
bool
editRegionLine(std::string &text,
               const std::function<bool(std::string &line)> &edit)
{
    for (size_t at = text.find("\nregion "); at != std::string::npos;
         at = text.find("\nregion ", at + 1)) {
        const size_t eol = text.find('\n', at + 1);
        std::string line = text.substr(at + 1, eol - at - 1);
        if (edit(line)) {
            text.replace(at + 1, eol - at - 1, line);
            return true;
        }
    }
    return false;
}

/** Tamper with the first region's multiplier. */
std::function<bool(std::string &)>
multiplierSetTo(const std::string &value)
{
    return [value](std::string &text) {
        return editRegionLine(text, [&](std::string &line) {
            const size_t at = line.find(" mult=") + 6;
            line.replace(at, std::string::npos, value);
            return true;
        });
    };
}

TEST(HostileInput, RegionMultiplierNegativeIsValidation)
{
    expectTamperedObjectRecomputed("hostile_mult_neg", "cluster",
                                   multiplierSetTo("-2.5"));
}

TEST(HostileInput, RegionMultiplierNaNIsRejected)
{
    for (const char *bad : {"nan", "inf"})
        expectTamperedObjectRecomputed(
            std::string("hostile_mult_") + bad, "cluster",
            multiplierSetTo(bad));
}

TEST(HostileInput, RegionMarkerWithZeroCountIsValidation)
{
    // An end marker with a pc (not the program-end sentinel) but a
    // zero count.
    expectTamperedObjectRecomputed(
        "hostile_zero_count", "cluster", [](std::string &text) {
            return editRegionLine(text, [](std::string &line) {
                const size_t at = line.find(" end=") + 5;
                const size_t colon = line.find(':', at);
                if (line.compare(at, colon - at, "0") == 0)
                    return false;
                line.replace(colon + 1,
                             line.find(' ', colon) - colon - 1, "0");
                return true;
            });
        });
}

TEST(HostileInput, OversizedStoreCountsAreMisses)
{
    // Element counts far beyond what the payload could hold must not
    // size an allocation (std::bad_alloc used to escape analyze()).
    const std::string huge = "999999999999999";
    expectTamperedObjectRecomputed(
        "hostile_slice_count", "profile", [&](std::string &text) {
            text.replace(0, text.find(" threads"), "slices " + huge);
            return true;
        });
    for (const char *field : {"slices", "bic", "regions"})
        expectTamperedObjectRecomputed(
            std::string("hostile_cluster_") + field, "cluster",
            [&](std::string &text) {
                const size_t at =
                    text.find(std::string(" ") + field + " ") +
                    std::strlen(field) + 2;
                text.replace(at, text.find_first_of(" \n", at) - at,
                             huge);
                return true;
            });
}

} // namespace
} // namespace looppoint
