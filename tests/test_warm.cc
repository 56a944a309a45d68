/**
 * @file
 * Warm-checkpoint tests: the warm key partition (what re-keys a
 * region's stored start state and what must not); set-partitioned
 * warming (the owned-set assembly equals a single hierarchy's image,
 * through the worker queues too); bit-identity of every uarch preset
 * at jobs 1–4, with and without a store, against the serial warming
 * pass; and the miss paths — a corrupt object, a
 * mismatched image, an interrupted and resumed run, retries.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/looppoint.hh"
#include "core/run_journal.hh"
#include "obs/trace.hh"
#include "sim/warm_partition.hh"
#include "store/artifact_store.hh"
#include "store/stage_cache.hh"
#include "util/interrupt.hh"
#include "util/rng.hh"
#include "workload/descriptor.hh"

namespace looppoint {
namespace {

using CheckpointedSimResult = LoopPointPipeline::CheckpointedSimResult;

const std::vector<std::string> kPresets = {
    "baseline", "big-l2", "small-rob", "slow-mem",
    "prefetch", "narrow", "inorder"};

/** Presets that share baseline's warm trajectory. */
bool
sharesBaselineWarmState(const std::string &preset)
{
    return preset != "big-l2" && preset != "prefetch";
}

/** Fresh, empty store directory under the test tmpdir. */
std::string
freshStoreDir(const std::string &name)
{
    std::string dir = testing::TempDir() + "lp_warm_" + name;
    std::string cmd = "rm -rf '" + dir + "'";
    EXPECT_EQ(std::system(cmd.c_str()), 0);
    return dir;
}

/** One analyzed app (a cluster hash needs a store-attached analysis);
 * each test then attaches its own store for the checkpointed phase. */
struct Analyzed
{
    Program prog;
    LoopPointOptions opts;
    std::unique_ptr<ArtifactStore> store;
    std::unique_ptr<StageCache> cache;
    std::unique_ptr<LoopPointPipeline> pipe;
    LoopPointResult lp;

    Analyzed()
        : prog(generateProgram(findApp("628.pop2_s.1"),
                               InputClass::Test))
    {
        opts.numThreads = findApp("628.pop2_s.1").effectiveThreads(4);
        opts.sliceSizePerThread = 10'000;
        // Per process: ctest runs the tests of this file in parallel
        // processes, each building this fixture.
        storeDir = freshStoreDir("analysis_" + std::to_string(::getpid()));
        store = std::make_unique<ArtifactStore>(storeDir);
        cache = std::make_unique<StageCache>(*store);
        pipe = std::make_unique<LoopPointPipeline>(prog, opts);
        pipe->setStageCache(cache.get());
        lp = pipe->analyze();
        pipe->setStageCache(nullptr);
    }

    ~Analyzed()
    {
        store.reset();
        std::filesystem::remove_all(storeDir);
    }

    std::string storeDir;
};

Analyzed &
analyzed()
{
    static Analyzed a;
    return a;
}

SimConfig
presetConfig(const std::string &preset, uint32_t jobs = 1)
{
    SimConfig sim;
    applyUarchPreset(sim, preset);
    sim.jobs = jobs;
    return sim;
}

/** The phase with `cache` attached (nullptr: the plain serial warming
 * pass, the reference). */
CheckpointedSimResult
runPhase(StageCache *cache, const SimConfig &sim, bool constrained,
         RunJournal *journal = nullptr)
{
    Analyzed &a = analyzed();
    a.pipe->setStageCache(cache);
    auto out = a.pipe->simulateRegionsCheckpointed(a.lp, sim, constrained,
                                                   journal);
    a.pipe->setStageCache(nullptr);
    return out;
}

/** Reference metrics per (preset, constrained), computed once. */
const std::vector<SimMetrics> &
reference(const std::string &preset, bool constrained)
{
    static std::map<std::pair<std::string, bool>, std::vector<SimMetrics>>
        memo;
    auto key = std::make_pair(preset, constrained);
    auto it = memo.find(key);
    if (it == memo.end())
        it = memo.emplace(key, runPhase(nullptr, presetConfig(preset),
                                        constrained)
                                   .regionMetrics)
                 .first;
    return it->second;
}

size_t
numRegions()
{
    return analyzed().lp.regions.size();
}

// ------------------------------------------------------------- keys

TEST(StageKeys, WarmPartitionCoversEveryWarmAffectingField)
{
    const SimConfig base_cfg;
    const std::string base = base_cfg.warmKeyText();

    // Warming drives only the caches and the predictors: geometry and
    // the prefetcher re-key the warm state...
    const std::vector<std::pair<const char *,
                                void (*)(SimConfig &)>> warm_fields = {
        {"l1i.sizeBytes", [](SimConfig &c) { c.l1i.sizeBytes *= 2; }},
        {"l1i.assoc", [](SimConfig &c) { c.l1i.assoc = 8; }},
        {"l1i.lineBytes", [](SimConfig &c) { c.l1i.lineBytes = 128; }},
        {"l1d.sizeBytes", [](SimConfig &c) { c.l1d.sizeBytes *= 2; }},
        {"l1d.assoc", [](SimConfig &c) { c.l1d.assoc = 4; }},
        {"l1d.lineBytes", [](SimConfig &c) { c.l1d.lineBytes = 128; }},
        {"l2.sizeBytes", [](SimConfig &c) { c.l2.sizeBytes *= 4; }},
        {"l2.assoc", [](SimConfig &c) { c.l2.assoc = 16; }},
        {"l2.lineBytes", [](SimConfig &c) { c.l2.lineBytes = 128; }},
        {"l3.sizeBytes", [](SimConfig &c) { c.l3.sizeBytes *= 2; }},
        {"l3.assoc", [](SimConfig &c) { c.l3.assoc = 8; }},
        {"l3.lineBytes", [](SimConfig &c) { c.l3.lineBytes = 128; }},
        {"prefetchDegree", [](SimConfig &c) { c.prefetchDegree = 2; }},
    };
    for (const auto &[name, mutate] : warm_fields) {
        SimConfig c;
        mutate(c);
        EXPECT_NE(c.warmKeyText(), base)
            << name << " changes the warm state and must re-key it";
        // The warm partition is a subset of the uarch partition.
        EXPECT_NE(c.uarchKeyText(), base_cfg.uarchKeyText()) << name;
    }

    // ...while no latency, no core field and no host knob does.
    const std::vector<std::pair<const char *,
                                void (*)(SimConfig &)>> shared = {
        {"coreType",
         [](SimConfig &c) { c.coreType = CoreType::InOrder; }},
        {"freqGHz", [](SimConfig &c) { c.freqGHz = 3.0; }},
        {"robSize", [](SimConfig &c) { c.robSize = 64; }},
        {"dispatchWidth", [](SimConfig &c) { c.dispatchWidth = 2; }},
        {"branchMispredictPenalty",
         [](SimConfig &c) { c.branchMispredictPenalty = 20; }},
        {"l1i.latency", [](SimConfig &c) { c.l1i.latency = 2; }},
        {"l1d.latency", [](SimConfig &c) { c.l1d.latency = 4; }},
        {"l2.latency", [](SimConfig &c) { c.l2.latency = 12; }},
        {"l3.latency", [](SimConfig &c) { c.l3.latency = 40; }},
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
        {"jobs", [](SimConfig &c) { c.jobs = 16; }},
        {"regionRetries", [](SimConfig &c) { c.regionRetries = 3; }},
        {"obs.trace", [](SimConfig &c) { c.obs.trace = true; }},
    };
    for (const auto &[name, mutate] : shared) {
        SimConfig c;
        mutate(c);
        EXPECT_EQ(c.warmKeyText(), base)
            << name << " does not affect warming and must not re-key "
                       "the warm state";
    }

    // The presets: five share one warm trajectory, two do not.
    for (const std::string &preset : kPresets) {
        EXPECT_EQ(presetConfig(preset).warmKeyText() == base,
                  sharesBaselineWarmState(preset))
            << preset;
    }
}

TEST(StageKeys, WarmKeyCoversClusterConstrainedAndRegion)
{
    const SimConfig sim;
    const std::string k = StageCache::warmKey("HASH_C", sim, false, 0);
    EXPECT_NE(StageCache::warmKey("HASH_D", sim, false, 0), k);
    EXPECT_NE(StageCache::warmKey("HASH_C", sim, true, 0), k);
    EXPECT_NE(StageCache::warmKey("HASH_C", sim, false, 1), k);
    EXPECT_NE(StageCache::warmKey("HASH_C", presetConfig("big-l2"),
                                  false, 0),
              k);
    EXPECT_EQ(StageCache::warmKey("HASH_C", presetConfig("small-rob"),
                                  false, 0),
              k);
    // The sim-stage key of the same point differs: it also covers
    // the latencies and the core.
    EXPECT_NE(StageCache::simKey("HASH_C", presetConfig("small-rob"),
                                 false),
              StageCache::simKey("HASH_C", sim, false));
}

// ------------------------------------------- set-partitioned warming

/** One hierarchy access of a replayed warming stream. */
struct WarmOp
{
    enum Kind : uint8_t { Fetch, Read, Write } kind;
    uint32_t core;
    Addr addr;
};

/**
 * A seeded stream of `n` accesses. Lines crowd into 96 L3 sets (40
 * lines each, over 16 ways) so L3 victims, back-invalidations of their
 * sharers and write-invalidations of remote copies all occur; every
 * core draws from the same lines.
 */
std::vector<WarmOp>
warmStream(uint64_t seed, uint32_t cores, const SimConfig &cfg, size_t n)
{
    Rng rng(seed);
    const uint64_t l3_sets =
        cfg.l3.sizeBytes / (cfg.l3.lineBytes * cfg.l3.assoc);
    std::vector<WarmOp> ops;
    ops.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        const uint64_t set = rng.nextBounded(96) * 37 % l3_sets;
        const uint64_t line = set + rng.nextBounded(40) * l3_sets;
        const uint64_t r = rng.nextBounded(100);
        WarmOp op;
        op.kind = r < 15 ? WarmOp::Fetch
                         : (r < 70 ? WarmOp::Read : WarmOp::Write);
        op.core = static_cast<uint32_t>(rng.nextBounded(cores));
        op.addr = line * cfg.l3.lineBytes + rng.nextBounded(64);
        ops.push_back(op);
    }
    return ops;
}

void
apply(CacheHierarchy &h, const WarmOp &op)
{
    if (op.kind == WarmOp::Fetch)
        h.fetch(op.core, op.addr);
    else
        h.access(op.core, op.addr, op.kind == WarmOp::Write);
}

std::vector<uint8_t>
stateImage(const CacheHierarchy &h)
{
    std::vector<uint8_t> img(h.stateBytes());
    h.exportState(img.data());
    return img;
}

/**
 * The set-ownership argument, without threads: a hierarchy fed only
 * its partition's share of the stream, in order, holds the single
 * hierarchy's state in the sets it owns, at every marker.
 */
TEST(PartitionedWarming, OwnedSetAssemblyEqualsTheSingleHierarchy)
{
    const size_t kOps = 24'000, kMarkers = 4;
    for (const char *preset : {"baseline", "big-l2"}) {
        const SimConfig cfg = presetConfig(preset);
        const uint32_t fewest = CacheHierarchy::fewestSets(cfg);
        ASSERT_EQ(fewest, 64u) << preset;
        for (uint32_t cores : {1u, 3u, 4u, 8u}) {
            const auto ops = warmStream(0x5e7 + cores, cores, cfg, kOps);
            const size_t every = kOps / kMarkers;
            std::vector<std::vector<uint8_t>> want;
            {
                CacheHierarchy single(cfg, cores);
                for (size_t i = 0; i < kOps; ++i) {
                    apply(single, ops[i]);
                    if ((i + 1) % every == 0)
                        want.push_back(stateImage(single));
                }
            }
            for (uint32_t parts : {2u, 3u, 4u, 64u}) {
                // One partition at a time keeps a single extra
                // hierarchy live.
                std::vector<std::vector<uint8_t>> got(
                    want.size(), std::vector<uint8_t>(want[0].size(), 0xa5));
                for (uint32_t p = 0; p < parts; ++p) {
                    CacheHierarchy mine(cfg, cores);
                    size_t marker = 0;
                    for (size_t i = 0; i < kOps; ++i) {
                        const uint64_t line = ops[i].addr / cfg.l3.lineBytes;
                        if (warmPartitionOf(line, fewest, parts) == p)
                            apply(mine, ops[i]);
                        if ((i + 1) % every == 0)
                            mine.exportOwnedSets(got[marker++].data(), p,
                                                 parts);
                    }
                }
                for (size_t m = 0; m < want.size(); ++m)
                    EXPECT_TRUE(got[m] == want[m])
                        << preset << ", " << cores << " cores, " << parts
                        << " partitions, marker " << m;
            }
        }
    }
}

/**
 * `ops` with a second access to the same line after every 7th one,
 * cycling through every (first, second) kind pair, each by the same
 * core either right after the first or split from it by another
 * core's access to that line (kind cycling too). Only R->R, W->R, W->W
 * and F->F with nothing between are exact repeats; a rule that drops
 * any other pair leaves a stale line or a remote copy behind.
 */
std::vector<WarmOp>
withRepeatPairs(const std::vector<WarmOp> &ops, uint32_t cores)
{
    std::vector<WarmOp> out;
    out.reserve(ops.size() * 3 / 2);
    for (size_t i = 0; i < ops.size(); ++i) {
        out.push_back(ops[i]);
        if (i % 7 != 0)
            continue;
        const size_t pattern = i / 7 % 18;
        WarmOp first = ops[i];
        first.kind = static_cast<WarmOp::Kind>(pattern % 3);
        out.back() = first;
        if (pattern >= 9) {
            WarmOp other = first;
            other.core = (first.core + 1) % cores;
            other.kind = static_cast<WarmOp::Kind>(i / 7 % 3);
            out.push_back(other);
        }
        WarmOp second = first;
        second.kind = static_cast<WarmOp::Kind>(pattern / 3 % 3);
        out.push_back(second);
    }
    return out;
}

/** Accesses of `ops` the repeat rule drops with `parts` partitions:
 * an exact repeat of the last access its partition shipped. */
size_t
exactRepeats(const std::vector<WarmOp> &ops, const SimConfig &cfg,
             uint32_t parts)
{
    const uint32_t fewest = CacheHierarchy::fewestSets(cfg);
    std::vector<std::optional<WarmOp>> shipped(parts);
    size_t repeats = 0;
    for (const WarmOp &op : ops) {
        const uint64_t line = op.addr / cfg.l3.lineBytes;
        std::optional<WarmOp> &last =
            shipped[warmPartitionOf(line, fewest, parts)];
        const bool same = last && last->core == op.core &&
                          last->addr / cfg.l3.lineBytes == line;
        if (same && (op.kind == last->kind ||
                     (op.kind == WarmOp::Read &&
                      last->kind == WarmOp::Write)))
            ++repeats;
        else
            last = op;
    }
    return repeats;
}

/** The same through PartitionedWarmer's queues and worker threads,
 * long enough for the producer to block on full queues, with repeat
 * pairs of every kind (withRepeatPairs) in the stream: the image
 * stays the serial one and exactly the exact repeats are dropped. */
TEST(PartitionedWarming, WorkerCheckpointsEqualTheSerialImage)
{
    const SimConfig cfg;
    const uint32_t cores = 4;
    const size_t kMarkers = 5;
    const auto ops =
        withRepeatPairs(warmStream(0xc0ffee, cores, cfg, 200'000), cores);
    const size_t kOps = ops.size();
    CacheHierarchy single(cfg, cores);
    const size_t header = 16, image = single.stateBytes();
    for (uint32_t parts : {2u, 3u, 4u}) {
        CacheHierarchy serial(cfg, cores);
        std::vector<std::vector<uint8_t>> want;
        std::vector<std::shared_ptr<WarmCheckpoint>> got;
        {
            PartitionedWarmer warmer(cfg, cores, parts);
            EXPECT_EQ(warmer.partitions(), parts);
            for (size_t i = 0; i < kOps; ++i) {
                apply(serial, ops[i]);
                if (ops[i].kind == WarmOp::Fetch)
                    warmer.fetch(ops[i].core, ops[i].addr);
                else
                    warmer.access(ops[i].core, ops[i].addr,
                                  ops[i].kind == WarmOp::Write);
                if ((i + 1) % (kOps / kMarkers) == 0) {
                    want.push_back(stateImage(serial));
                    // The bytes around the image are the producer's.
                    got.push_back(warmer.checkpoint(
                        std::string(header, 'h') +
                            std::string(image, '\0') + "tail",
                        header));
                }
            }
            warmer.finish();
            // Four of the nine adjacent pairs are repeats, a ninth of
            // the ~200k/7 pairs each.
            const size_t repeats = exactRepeats(ops, cfg, parts);
            EXPECT_GT(repeats, 200'000u / 7 / 9);
            EXPECT_EQ(warmer.droppedRecords(), repeats) << parts;
            EXPECT_EQ(warmer.shippedRecords() + warmer.droppedRecords(),
                      kOps);
        }
        ASSERT_EQ(got.size(), kMarkers);
        for (size_t m = 0; m < kMarkers; ++m) {
            const std::string payload = got[m]->take();
            ASSERT_EQ(payload.size(), header + image + 4);
            EXPECT_EQ(payload.substr(0, header), std::string(header, 'h'));
            EXPECT_EQ(payload.substr(header + image), "tail");
            EXPECT_EQ(std::memcmp(payload.data() + header, want[m].data(),
                                  image),
                      0)
                << parts << " partitions, marker " << m;
        }
    }
}

TEST(PartitionedWarming, PartitionCountFollowsJobsAndThePrefetcher)
{
    EXPECT_EQ(PartitionedWarmer::partitionsFor(SimConfig(), 1), 1u);
    EXPECT_EQ(PartitionedWarmer::partitionsFor(SimConfig(), 2), 2u);
    EXPECT_EQ(PartitionedWarmer::partitionsFor(SimConfig(), 4), 4u);
    // Capped by the L1-D's 64 sets, the fewest of Table I.
    EXPECT_EQ(PartitionedWarmer::partitionsFor(SimConfig(), 200), 64u);
    // The next-line prefetcher couples neighbouring sets.
    EXPECT_EQ(PartitionedWarmer::partitionsFor(presetConfig("prefetch"), 4),
              1u);
}

// ------------------------------------------------------- bit-identity

struct Combo
{
    uint32_t jobs;
    bool constrained;
};

std::string
comboName(const testing::TestParamInfo<Combo> &info)
{
    return "pool_j" + std::to_string(info.param.jobs) +
           (info.param.constrained ? "_constrained" : "_unconstrained");
}

class WarmStageBitIdentity : public testing::TestWithParam<Combo>
{};

/** Partitions the warming pass must choose: the prefetcher and
 * jobs == 1 keep it inline, otherwise one per job. */
uint32_t
expectedPartitions(const std::string &preset, uint32_t jobs)
{
    return preset == "prefetch" ? 1 : jobs;
}

/**
 * Every preset without a store, then on one fresh store, baseline
 * first: the warm-sharing presets run from baseline's stored
 * checkpoints with no warming pass, big-l2 and prefetch warm (and
 * publish) their own. Every region's metrics equal the serial
 * (jobs = 1) warming pass's, whatever the partition count.
 */
TEST_P(WarmStageBitIdentity, EveryPresetMatchesTheSerialWarmingPass)
{
    const Combo combo = GetParam();
    ASSERT_GE(numRegions(), 3u);
    for (const std::string &preset : kPresets) {
        auto ckpt = runPhase(
            nullptr, presetConfig(preset, combo.jobs), combo.constrained);
        EXPECT_EQ(ckpt.warmPartitions,
                  expectedPartitions(preset, combo.jobs))
            << preset;
        EXPECT_EQ(ckpt.regionMetrics,
                  reference(preset, combo.constrained))
            << preset << " without a store";
    }
    ArtifactStore store(freshStoreDir(comboName({combo, 0})));
    StageCache cache(store);
    for (const std::string &preset : kPresets) {
        const SimConfig sim = presetConfig(preset, combo.jobs);
        auto ckpt = runPhase(&cache, sim, combo.constrained);
        const bool hit =
            preset != "baseline" && sharesBaselineWarmState(preset);
        EXPECT_EQ(ckpt.warmStageHit, hit) << preset;
        EXPECT_EQ(ckpt.warmPartitions,
                  hit ? 0u : expectedPartitions(preset, combo.jobs))
            << preset;
        EXPECT_EQ(ckpt.warmHits, hit ? numRegions() : 0u) << preset;
        EXPECT_EQ(ckpt.warmPublished, hit ? 0u : numRegions()) << preset;
        if (hit) {
            EXPECT_EQ(ckpt.checkpointWallSeconds, 0.0) << preset;
        }
        EXPECT_EQ(ckpt.coverage, 1.0) << preset;
        EXPECT_EQ(ckpt.regionMetrics,
                  reference(preset, combo.constrained))
            << preset << " from "
            << (hit ? "stored checkpoints" : "the warming pass");
    }
    // A second pass over the store: every preset now hits.
    for (const char *preset : {"big-l2", "prefetch"}) {
        auto ckpt = runPhase(&cache, presetConfig(preset, combo.jobs),
                             combo.constrained);
        EXPECT_TRUE(ckpt.warmStageHit) << preset;
        EXPECT_EQ(ckpt.regionMetrics,
                  reference(preset, combo.constrained))
            << preset;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, WarmStageBitIdentity,
    testing::Values(Combo{1, false}, Combo{2, false}, Combo{3, false},
                    Combo{4, false}, Combo{1, true}, Combo{2, true},
                    Combo{3, true}, Combo{4, true}),
    comboName);

// ---------------------------------------------------------- miss paths

/**
 * The point of keying the L2 size: big-l2 after baseline must warm its
 * own state. A warm key without it would bind baseline's checkpoints
 * for big-l2 and skip the warming pass.
 */
TEST(WarmStage, BigL2AfterBaselineMissesTheWarmStage)
{
    ArtifactStore store(freshStoreDir("bigl2"));
    StageCache cache(store);
    runPhase(&cache, presetConfig("baseline", 2), false);
    auto ckpt = runPhase(&cache, presetConfig("big-l2", 2), false);
    EXPECT_FALSE(ckpt.warmStageHit);
    EXPECT_EQ(ckpt.warmHits, 0u);
    EXPECT_EQ(ckpt.warmPublished, numRegions());
    EXPECT_GT(ckpt.checkpointWallSeconds, 0.0);
    EXPECT_EQ(ckpt.regionMetrics, reference("big-l2", false));
}

/**
 * A geometry change that keeps the image size (L2 ways) must re-key
 * too: the image-size check cannot catch it, and baseline's tags laid
 * out for 8 ways would silently skew every region.
 */
TEST(WarmStage, SameSizeGeometryChangeWarmsItsOwnState)
{
    ArtifactStore store(freshStoreDir("assoc"));
    StageCache cache(store);
    runPhase(&cache, presetConfig("baseline", 2), false);
    SimConfig wide = presetConfig("baseline", 2);
    wide.l2.assoc = 16;
    auto ckpt = runPhase(&cache, wide, false);
    EXPECT_FALSE(ckpt.warmStageHit);
    EXPECT_EQ(ckpt.warmHits, 0u);
    EXPECT_EQ(ckpt.regionMetrics,
              runPhase(nullptr, wide, false).regionMetrics);
}

/** The object bound to a region's warm key for `sim`. */
std::string
warmObjectPath(ArtifactStore &store, const SimConfig &sim, uint32_t region)
{
    const std::string key = StageCache::warmKey(
        analyzed().lp.stageHashes.cluster, sim, false, region);
    auto hash = store.hashFor("warm", key);
    EXPECT_TRUE(hash.has_value()) << "region " << region;
    return store.dir() + "/objects/" + hash.value_or("");
}

TEST(WarmStage, CorruptCheckpointEvictedAndRecomputedBitIdentical)
{
    ArtifactStore store(freshStoreDir("corrupt"));
    StageCache cache(store);
    runPhase(&cache, presetConfig("baseline", 2), false);

    // Flip one byte inside region 0's microarch image.
    {
        std::fstream f(warmObjectPath(store, SimConfig(), 0),
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(4096);
        f.put('\x5a');
    }
    auto ckpt = runPhase(&cache, presetConfig("small-rob", 2), false);
    EXPECT_TRUE(ckpt.warmStageHit);
    EXPECT_EQ(store.stats().corruptEntries, 1u);
    EXPECT_EQ(ckpt.warmHits, numRegions() - 1);
    EXPECT_EQ(ckpt.warmPublished, 1u) << "the re-warmed region is "
                                         "republished";
    EXPECT_EQ(ckpt.regionMetrics, reference("small-rob", false));

    // Healed: the next point loads every checkpoint again.
    auto healed = runPhase(&cache, presetConfig("narrow", 2), false);
    EXPECT_EQ(healed.warmHits, numRegions());
    EXPECT_EQ(healed.regionMetrics, reference("narrow", false));
}

TEST(WarmStage, MismatchedImageSizeIsAMissNotACrash)
{
    ArtifactStore store(freshStoreDir("mismatch"));
    StageCache cache(store);
    runPhase(&cache, presetConfig("baseline", 2), false);
    runPhase(&cache, presetConfig("big-l2", 2), false);

    // Bind big-l2's (larger) region 0 checkpoint under baseline's key.
    const std::string &cluster = analyzed().lp.stageHashes.cluster;
    auto big = cache.loadWarm(StageCache::warmKey(
        cluster, presetConfig("big-l2"), false, 0));
    ASSERT_TRUE(big.has_value());
    cache.publishWarm(StageCache::warmKey(cluster, SimConfig(), false, 0),
                      *big);

    auto ckpt = runPhase(&cache, presetConfig("inorder", 2), false);
    EXPECT_TRUE(ckpt.warmStageHit);
    EXPECT_EQ(ckpt.warmHits, numRegions() - 1);
    EXPECT_EQ(ckpt.coverage, 1.0);
    EXPECT_EQ(ckpt.regionMetrics, reference("inorder", false));
}

/** A retried region re-runs from a copy of its restored checkpoint. */
TEST(WarmStage, RetryOnTheHitPathRecoversBitIdentical)
{
    ArtifactStore store(freshStoreDir("retry"));
    StageCache cache(store);
    runPhase(&cache, presetConfig("baseline", 2), false);
    SimConfig flaky = presetConfig("narrow", 2);
    flaky.regionRetries = 1;
    flaky.faults = FaultPlan::parse("sim:region=0,kind=throw,times=1");
    auto ckpt = runPhase(&cache, flaky, false);
    EXPECT_TRUE(ckpt.warmStageHit);
    EXPECT_EQ(ckpt.regionOutcomes[0].attempts, 2u);
    EXPECT_EQ(ckpt.coverage, 1.0);
    EXPECT_EQ(ckpt.regionMetrics, reference("narrow", false));
}

RunKey
journalKey()
{
    RunKey key;
    key.app = "628.pop2_s.1";
    key.input = "test";
    key.threads = 4;
    key.waitPolicy = "passive";
    key.seed = 1;
    key.constrained = false;
    key.simFingerprint = 0x5EED;
    return key;
}

/**
 * kind=interrupt parks the hit path at the same region boundary as the
 * warming pass, and --resume on the hit path completes bit-identically.
 */
void
interruptAndResume(uint32_t jobs)
{
    const auto &lp = analyzed().lp;
    ASSERT_GE(lp.regions.size(), 3u);
    // Park at the middle region in program order.
    std::vector<uint32_t> order(lp.regions.size());
    for (uint32_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return lp.regions[a].sliceIndex < lp.regions[b].sliceIndex;
    });
    const uint32_t park = order[order.size() / 2];
    SimConfig parked = presetConfig("slow-mem", jobs);
    parked.faults = FaultPlan::parse("sim:region=" + std::to_string(park) +
                                     ",kind=interrupt");

    // Interrupted + resumed, with (hit) and without (warming pass) a
    // populated store: the same regions complete before the park.
    // Per jobs count: ctest runs the callers in parallel processes.
    ArtifactStore store(freshStoreDir("interrupt_j" + std::to_string(jobs)));
    StageCache cache(store);
    runPhase(&cache, presetConfig("baseline", jobs), false);
    size_t parked_done[2] = {0, 0};
    for (int with_store = 0; with_store < 2; ++with_store) {
        const std::string path = testing::TempDir() +
                                 "lp_warm_interrupt_j" +
                                 std::to_string(jobs) + "_" +
                                 std::to_string(with_store) + ".journal";
        std::remove(path.c_str());
        StageCache *c = with_store ? &cache : nullptr;
        {
            RunJournal journal(path, journalKey());
            auto ckpt = runPhase(c, parked, false, &journal);
            clearShutdownRequest();
            EXPECT_TRUE(ckpt.interrupted);
            EXPECT_EQ(ckpt.warmStageHit, with_store == 1);
            parked_done[with_store] = journal.size();
        }
        RunJournal journal(path, journalKey());
        ASSERT_FALSE(journal.load(/*must_exist=*/true).has_value());
        auto resumed =
            runPhase(c, presetConfig("slow-mem", jobs), false, &journal);
        EXPECT_FALSE(resumed.interrupted);
        EXPECT_EQ(resumed.warmStageHit, with_store == 1);
        EXPECT_EQ(resumed.journalHits, parked_done[with_store]);
        EXPECT_EQ(resumed.coverage, 1.0);
        EXPECT_EQ(resumed.regionMetrics, reference("slow-mem", false));
    }
    EXPECT_EQ(parked_done[0], order.size() / 2);
    EXPECT_EQ(parked_done[1], parked_done[0]);
}

TEST(WarmStage, InterruptAndResumeBehaveTheSameOnTheHitPath)
{
    interruptAndResume(2);
}

/** The same with the warming pass split four ways. */
TEST(PartitionedWarming, InterruptAndResumeAtJobs4)
{
    interruptAndResume(4);
}

/** Retries re-run from a copy of the restored checkpoint. */
TEST(PartitionedWarming, RetriedRegionsMatchAtJobs4)
{
    SimConfig flaky = presetConfig("baseline", 4);
    flaky.regionRetries = 1;
    flaky.faults = FaultPlan::parse("sim:region=0,kind=throw,times=1");
    auto ckpt = runPhase(nullptr, flaky, false);
    EXPECT_EQ(ckpt.warmPartitions, 4u);
    EXPECT_EQ(ckpt.regionOutcomes[0].attempts, 2u);
    EXPECT_EQ(ckpt.coverage, 1.0);
    EXPECT_EQ(ckpt.regionMetrics, reference("baseline", false));
}

/** Observability: one warm.partition span per worker, and the phase
 * names its partition count. */
TEST(PartitionedWarming, TraceHasOnePartitionSpanPerWorker)
{
    Tracer &tracer = Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    runPhase(nullptr, presetConfig("baseline", 3), false);
    std::ostringstream trace;
    tracer.writeChromeTrace(trace);
    tracer.setEnabled(false);
    tracer.clear();
    const std::string t = trace.str();
    size_t spans = 0;
    for (size_t at = t.find("\"warm.partition\""); at != std::string::npos;
         at = t.find("\"warm.partition\"", at + 1))
        ++spans;
    EXPECT_EQ(spans, 3u);
    EXPECT_NE(t.find("\"warm_partitions\": 3"), std::string::npos);
    // Every partition span counts what it applied and what the
    // producer dropped for it; the phase carries the totals.
    auto sum = [&t](const std::string &key) {
        double total = 0.0;
        size_t found = 0;
        const std::string needle = "\"" + key + "\": ";
        for (size_t at = t.find(needle); at != std::string::npos;
             at = t.find(needle, at + 1), ++found)
            total += std::stod(t.substr(at + needle.size()));
        return std::make_pair(found, total);
    };
    const auto shipped = sum("shipped"), dropped = sum("dropped");
    const auto phase_shipped = sum("warm_shipped");
    const auto phase_dropped = sum("warm_dropped");
    EXPECT_EQ(shipped.first, 3u);
    EXPECT_EQ(dropped.first, 3u);
    ASSERT_EQ(phase_shipped.first, 1u);
    ASSERT_EQ(phase_dropped.first, 1u);
    EXPECT_GT(shipped.second, 0.0);
    EXPECT_GT(dropped.second, 0.0);
    EXPECT_EQ(shipped.second, phase_shipped.second);
    EXPECT_EQ(dropped.second, phase_dropped.second);
    // How long the producer waited for a queued region to start.
    EXPECT_EQ(sum("checkpoint_wait_s").first, 1u);
}


TEST(WarmStage, TracedHitPointHasNoFastForwardSpans)
{
    ArtifactStore store(freshStoreDir("trace"));
    StageCache cache(store);
    Tracer &tracer = Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    runPhase(&cache, presetConfig("baseline", 2), false);
    std::ostringstream cold;
    tracer.writeChromeTrace(cold);
    tracer.clear();
    runPhase(&cache, presetConfig("small-rob", 2), false);
    std::ostringstream hit;
    tracer.writeChromeTrace(hit);
    tracer.setEnabled(false);
    tracer.clear();

    EXPECT_NE(cold.str().find("\"warm.fastforward\""), std::string::npos);
    EXPECT_NE(cold.str().find("\"warm.publish\""), std::string::npos);
    EXPECT_EQ(hit.str().find("\"warm.fastforward\""), std::string::npos);
    EXPECT_NE(hit.str().find("\"warm.load\""), std::string::npos);
    EXPECT_NE(hit.str().find("\"region.sim\""), std::string::npos);
}

} // namespace
} // namespace looppoint
