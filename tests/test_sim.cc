/**
 * @file
 * Tests for the timing substrate: caches (geometry, LRU, coherence,
 * inclusion), the Pentium M-style branch predictor, the core models,
 * and MulticoreSim behavior (determinism, policy effects, region
 * tiling).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "isa/program_builder.hh"
#include "sim/branch_predictor.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/multicore.hh"
#include "util/logging.hh"
#include "workload/descriptor.hh"

namespace looppoint {
namespace {

TEST(Cache, HitsAfterFill)
{
    Cache c(CacheConfig{1024, 2, 64, 1});
    EXPECT_FALSE(c.access(0x1000, 0, nullptr)); // miss, fill
    EXPECT_TRUE(c.access(0x1000, 0, nullptr));  // hit
    EXPECT_TRUE(c.access(0x1020, 0, nullptr));  // same line
    EXPECT_EQ(c.stats().accesses, 3u);
    EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, LruEviction)
{
    // 2-way, 64B lines, 1024B => 8 sets. Lines mapping to set 0:
    // 0x0000, 0x0200, 0x0400 (line index multiples of 8).
    Cache c(CacheConfig{1024, 2, 64, 1});
    c.access(0x0000, 0, nullptr);
    c.access(0x0200, 0, nullptr);
    c.access(0x0000, 0, nullptr); // touch: 0x200 becomes LRU
    std::optional<Addr> evicted;
    c.access(0x0400, 0, &evicted); // evicts 0x200
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 0x200u);
    EXPECT_TRUE(c.contains(0x0000));
    EXPECT_FALSE(c.contains(0x0200));
    EXPECT_TRUE(c.contains(0x0400));
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(CacheConfig{1024, 2, 64, 1});
    c.access(0x40, 0, nullptr);
    EXPECT_TRUE(c.contains(0x40));
    EXPECT_TRUE(c.invalidate(0x40));
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_FALSE(c.invalidate(0x40));
}

TEST(Cache, SharerTracking)
{
    Cache c(CacheConfig{1024, 2, 64, 1});
    c.access(0x80, 0, nullptr);
    c.access(0x80, 3, nullptr);
    EXPECT_EQ(c.sharers(0x80), 0b1001ull);
    // The last access left the line in the MRU way.
    EXPECT_EQ(&c.mruSharers(0x80), c.sharerWord(0x80));
    *c.sharerWord(0x80) &= ~1ull;
    EXPECT_EQ(c.sharers(0x80), 0b1000ull);
    EXPECT_EQ(c.sharerWord(0xc0), nullptr);
}

TEST(Hierarchy, LatenciesGrowWithDepth)
{
    SimConfig cfg;
    CacheHierarchy h(cfg, 2);
    auto first = h.access(0, 0x100000, false);
    EXPECT_EQ(first.hitLevel, 4u); // cold: memory
    EXPECT_GE(first.latency, cfg.memLatency);
    auto second = h.access(0, 0x100000, false);
    EXPECT_EQ(second.hitLevel, 1u); // L1 hit
    EXPECT_EQ(second.latency, cfg.l1d.latency);
}

TEST(Hierarchy, WriteInvalidatesRemoteCopies)
{
    SimConfig cfg;
    CacheHierarchy h(cfg, 2);
    h.access(0, 0x4000, false); // core 0 reads
    h.access(1, 0x4000, false); // core 1 reads (L3 hit)
    EXPECT_EQ(h.l1dStats(0).misses, 1u);
    h.access(1, 0x4000, true); // core 1 writes -> invalidate core 0
    auto r = h.access(0, 0x4000, false);
    EXPECT_GT(r.hitLevel, 1u) << "core 0's copy must be invalidated";
    EXPECT_GE(h.l1dStats(0).invalidations, 1u);
}

TEST(Hierarchy, CoherencePingPongCostsCycles)
{
    SimConfig cfg;
    CacheHierarchy h(cfg, 2);
    // Alternating writes to one line from two cores never settle in
    // either L1.
    uint32_t l1_hits = 0;
    for (int i = 0; i < 20; ++i) {
        auto r = h.access(i % 2, 0x9000, true);
        l1_hits += (r.hitLevel == 1);
    }
    EXPECT_LT(l1_hits, 4u);
}

TEST(BranchPredictor, LearnsBias)
{
    PentiumMBranchPredictor bp;
    for (int i = 0; i < 1000; ++i)
        bp.predictAndTrain(0x400100, true);
    // After warmup, an always-taken branch is nearly perfect.
    EXPECT_LT(bp.stats().missRate(), 0.02);
}

TEST(BranchPredictor, LoopDetectorLearnsTripCount)
{
    PentiumMBranchPredictor bp;
    // A loop branch: taken 7 times, then not taken, repeatedly.
    for (int rep = 0; rep < 200; ++rep)
        for (int i = 0; i < 8; ++i)
            bp.predictAndTrain(0x400200, i < 7);
    // The loop detector should nail the exit after warmup: well under
    // the 1/8 misrate a taken-biased predictor would produce.
    EXPECT_LT(bp.stats().missRate(), 0.04);
}

TEST(BranchPredictor, RandomBranchesMispredict)
{
    PentiumMBranchPredictor bp;
    Rng rng(5);
    for (int i = 0; i < 20000; ++i)
        bp.predictAndTrain(0x400300, rng.nextBool(0.5));
    EXPECT_GT(bp.stats().missRate(), 0.35);
}

TEST(BranchPredictor, ExportedImageHasNoIndeterminateBytes)
{
    // Each predictor's tables are allocated from freed heap memory
    // filled with a different byte, and exported over a buffer
    // pre-filled with yet another: identical training must still give
    // identical images, byte for byte (a warm checkpoint's image is
    // content-addressed in the store).
    auto trained = [](unsigned char heap_fill) {
        std::vector<unsigned char>(64 << 10, heap_fill).clear();
        PentiumMBranchPredictor bp;
        Rng rng(11);
        for (int i = 0; i < 5000; ++i)
            bp.predictAndTrain(0x400000 + 4 * (i % 97),
                               rng.nextBool(0.7));
        return bp;
    };
    const PentiumMBranchPredictor a = trained(0xa5);
    const PentiumMBranchPredictor b = trained(0x5a);
    std::vector<unsigned char> image_a(a.stateBytes(), 0x00);
    std::vector<unsigned char> image_b(b.stateBytes(), 0xff);
    a.exportState(image_a.data());
    b.exportState(image_b.data());
    EXPECT_EQ(image_a, image_b);
}

Program
tinyProgram(uint64_t iters = 128, uint64_t steps = 2)
{
    ProgramBuilder b("sim-test", 41);
    uint32_t k = b.beginKernel("work", SchedPolicy::StaticFor, iters);
    b.addStream({.footprintBytes = 1 << 20, .strideBytes = 8});
    b.addBlock({.numInstrs = 40, .fracMem = 0.35, .fracFp = 0.3,
                .streams = {0}});
    b.endKernel();
    b.runKernels({k}, steps);
    return b.build();
}

TEST(MulticoreSim, RunsAndProducesPlausibleIpc)
{
    Program p = tinyProgram();
    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Passive};
    MulticoreSim sim(p, cfg, SimConfig{});
    SimMetrics m = sim.run();
    EXPECT_GT(m.instructions, 10'000u);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_GT(m.ipc(), 0.3);
    EXPECT_LT(m.ipc(), 4.0 * 4); // <= cores x width
    EXPECT_GT(m.branches, 0u);
    EXPECT_GT(m.l1dAccesses, 0u);
}

TEST(MulticoreSim, DeterministicAcrossRuns)
{
    Program p = tinyProgram();
    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Active};
    SimMetrics a = MulticoreSim(p, cfg, SimConfig{}).run();
    SimMetrics b = MulticoreSim(p, cfg, SimConfig{}).run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
}

TEST(MulticoreSim, InOrderIsSlower)
{
    Program p = tinyProgram(256, 2);
    ExecConfig cfg{.numThreads = 2, .waitPolicy = WaitPolicy::Passive};
    SimConfig ooo;
    SimConfig ino;
    ino.coreType = CoreType::InOrder;
    SimMetrics m_ooo = MulticoreSim(p, cfg, ooo).run();
    SimMetrics m_ino = MulticoreSim(p, cfg, ino).run();
    EXPECT_GT(m_ino.cycles, m_ooo.cycles);
}

TEST(MulticoreSim, ActiveWaitBurnsInstructionsNotTime)
{
    // With imbalance, the active policy executes many more
    // instructions (spin) but finishes in roughly the same time as
    // passive (the critical path is the busy thread).
    ProgramBuilder b("imb-sim", 43);
    uint32_t k = b.beginKernel("work", SchedPolicy::StaticFor, 256);
    b.setImbalance(1.5);
    b.addBlock({.numInstrs = 40, .fracMem = 0.3, .streams = {}});
    b.endKernel();
    b.runKernels({k}, 2);
    Program p = b.build();

    ExecConfig act{.numThreads = 4, .waitPolicy = WaitPolicy::Active};
    ExecConfig pas{.numThreads = 4, .waitPolicy = WaitPolicy::Passive};
    SimMetrics m_act = MulticoreSim(p, act, SimConfig{}).run();
    SimMetrics m_pas = MulticoreSim(p, pas, SimConfig{}).run();
    EXPECT_GT(m_act.instructions, m_pas.instructions * 5 / 4);
    EXPECT_NEAR(static_cast<double>(m_act.cycles),
                static_cast<double>(m_pas.cycles),
                0.25 * static_cast<double>(m_pas.cycles));
}

TEST(MulticoreSim, MoreThreadsRunFaster)
{
    Program p = tinyProgram(1024, 2);
    SimConfig sc;
    ExecConfig c1{.numThreads = 1, .waitPolicy = WaitPolicy::Passive};
    ExecConfig c8{.numThreads = 8, .waitPolicy = WaitPolicy::Passive};
    SimMetrics m1 = MulticoreSim(p, c1, sc).run();
    SimMetrics m8 = MulticoreSim(p, c8, sc).run();
    EXPECT_LT(m8.cycles, m1.cycles / 3); // decent parallel scaling
}

TEST(MulticoreSim, RegionsTileTheExecution)
{
    // Simulating [start, mid) and [mid, end) separately must cover the
    // same work as one full run.
    Program p = tinyProgram(512, 4);
    const BlockId wh = p.kernels[0].workerHeader;
    const Addr wh_pc = p.blocks[wh].pc;

    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Passive};
    SimConfig sc;

    SimMetrics full = MulticoreSim(p, cfg, sc).run();

    SimMetrics first =
        MulticoreSim(p, cfg, sc).runRegion(0, 0, wh_pc, 1024);
    SimMetrics second =
        MulticoreSim(p, cfg, sc).runRegion(wh_pc, 1024, 0, 0);
    // The (PC, count) cut conserves marker work exactly, but the
    // positions of the *other* threads at the cut differ slightly
    // between the detailed and fast-forward schedulers, so instruction
    // totals match only to within a small boundary skew.
    double instr_sum =
        static_cast<double>(first.instructions + second.instructions);
    EXPECT_NEAR(instr_sum, static_cast<double>(full.instructions),
                0.01 * static_cast<double>(full.instructions));
    double combined = static_cast<double>(first.cycles + second.cycles);
    EXPECT_NEAR(combined, static_cast<double>(full.cycles),
                0.15 * static_cast<double>(full.cycles));
}

TEST(MulticoreSim, WarmupReducesRegionError)
{
    // A late region simulated with warmup should see fewer cache
    // misses than without.
    Program p = tinyProgram(512, 4);
    const BlockId wh = p.kernels[0].workerHeader;
    const Addr wh_pc = p.blocks[wh].pc;
    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Passive};
    SimConfig sc;

    SimMetrics warm = MulticoreSim(p, cfg, sc)
                          .runRegion(wh_pc, 1024, wh_pc, 1536, true);
    SimMetrics cold = MulticoreSim(p, cfg, sc)
                          .runRegion(wh_pc, 1024, wh_pc, 1536, false);
    EXPECT_LT(warm.l2Misses, cold.l2Misses);
}

TEST(MulticoreSim, RegionOnUnknownPcIsFatal)
{
    Program p = tinyProgram();
    ExecConfig cfg{.numThreads = 2, .waitPolicy = WaitPolicy::Passive};
    MulticoreSim sim(p, cfg, SimConfig{});
    EXPECT_THROW(sim.runRegion(0xdeadbeef, 1, 0, 0), FatalError);
}

TEST(Hierarchy, PrefetcherReducesStreamingMisses)
{
    // Sequential-stream accesses: a next-line prefetcher converts most
    // L2 demand misses into hits.
    SimConfig base;
    SimConfig pf = base;
    pf.prefetchDegree = 2;
    CacheHierarchy h_base(base, 1);
    CacheHierarchy h_pf(pf, 1);
    for (Addr a = 0; a < (4u << 20); a += 64) {
        h_base.access(0, 0x10000000 + a, false);
        h_pf.access(0, 0x10000000 + a, false);
    }
    EXPECT_GT(h_pf.prefetchesIssued(), 0u);
    EXPECT_LT(h_pf.l2Stats(0).misses, h_base.l2Stats(0).misses / 2);
}

TEST(MulticoreSim, PrefetchConfigChangesTiming)
{
    // A streaming workload runs faster with the prefetcher on.
    ProgramBuilder b("stream", 47);
    uint32_t k = b.beginKernel("stream", SchedPolicy::StaticFor, 512);
    b.addStream({.footprintBytes = 32u << 20, .strideBytes = 64,
                 .shared = true});
    b.addBlock({.numInstrs = 32, .fracMem = 0.5, .streams = {0}});
    b.endKernel();
    b.runKernels({k}, 2);
    Program p = b.build();

    ExecConfig cfg{.numThreads = 2, .waitPolicy = WaitPolicy::Passive};
    SimConfig off;
    SimConfig on;
    on.prefetchDegree = 4;
    SimMetrics m_off = MulticoreSim(p, cfg, off).run();
    SimMetrics m_on = MulticoreSim(p, cfg, on).run();
    EXPECT_LT(m_on.cycles, m_off.cycles);
    EXPECT_LT(m_on.l2Misses, m_off.l2Misses);
}

TEST(MulticoreSim, SnapshotResumesIdentically)
{
    // Deep-copying a MulticoreSim mid-run and finishing both must
    // produce identical results (checkpoint-driven simulation).
    Program p = tinyProgram(256, 3);
    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Passive};
    SimConfig sc;
    MulticoreSim sim(p, cfg, sc);
    sim.fastForward(
        [&] { return sim.engine().globalIcount() > 50'000; }, true);

    MulticoreSim snap(sim);
    SimMetrics a = sim.runDetailed();
    SimMetrics b = snap.runDetailed();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
}

TEST(MulticoreSim, StateImageRoundTripMatchesSnapshot)
{
    // A region checkpoint shipped as a flat image — the microarch
    // state image plus ExecutionEngine::save — and adopted into a
    // freshly built sim must simulate the region exactly like a
    // deep-copied snapshot of the warm sim.
    Program p = tinyProgram(512, 4);
    const BlockId wh = p.kernels[0].workerHeader;
    const uint32_t threads = 4;
    ExecConfig cfg{.numThreads = threads,
                   .waitPolicy = WaitPolicy::Passive};
    // A 512 KB L3 under the 1 MB stream evicts throughout the region,
    // so the adopted sharer masks steer back-invalidation.
    SimConfig sc;
    sc.prefetchDegree = 2;
    sc.l3.sizeBytes = 512 * 1024;
    MulticoreSim warm(p, cfg, sc);
    warm.fastForwardUntil(wh, 1024, /*warm=*/true);

    // The layout is a pure function of the geometry: the prefetch
    // counter, one tag word per line of every cache, one sharer mask
    // per L3 line, then each core's predictor tables.
    auto lines = [](const CacheConfig &c) {
        return static_cast<size_t>(c.sizeBytes / c.lineBytes);
    };
    const size_t cache_words =
        1 + threads * (lines(sc.l1i) + lines(sc.l1d) + lines(sc.l2)) +
        2 * lines(sc.l3);
    const size_t bytes = warm.microarchStateBytes();
    EXPECT_EQ(bytes, cache_words * sizeof(uint64_t) +
                         threads * PentiumMBranchPredictor().stateBytes());

    std::vector<uint64_t> image((bytes + 7) / 8);
    warm.exportMicroarchState(image.data());
    std::ostringstream functional;
    warm.engine().save(functional);

    MulticoreSim snap(warm);
    MulticoreSim adopted(p, cfg, sc);
    std::istringstream adopted_in(functional.str());
    adopted.engine() = ExecutionEngine::load(adopted_in, p);
    adopted.adoptMicroarchState(image.data());
    // Same functional state, cold microarchitecture: the image must
    // be what makes the difference.
    MulticoreSim cold(p, cfg, sc);
    std::istringstream cold_in(functional.str());
    cold.engine() = ExecutionEngine::load(cold_in, p);

    const SimMetrics want = snap.runDetailedUntil(wh, 1536);
    EXPECT_EQ(adopted.runDetailedUntil(wh, 1536), want);
    EXPECT_NE(cold.runDetailedUntil(wh, 1536), want);
    EXPECT_GT(want.l1dAccesses, 0u);
}

TEST(SimConfig, DescribeMentionsTableOneParts)
{
    SimConfig cfg;
    std::string desc = cfg.describe();
    EXPECT_NE(desc.find("ROB"), std::string::npos);
    EXPECT_NE(desc.find("L3"), std::string::npos);
    EXPECT_NE(desc.find("2.66"), std::string::npos);
}

TEST(SimMetrics, DerivedRatesAndAccumulation)
{
    SimMetrics m;
    m.cycles = 1000;
    m.instructions = 2000;
    m.branchMispredicts = 10;
    m.l2Misses = 4;
    EXPECT_DOUBLE_EQ(m.ipc(), 2.0);
    EXPECT_DOUBLE_EQ(m.branchMpki(), 5.0);
    EXPECT_DOUBLE_EQ(m.l2Mpki(), 2.0);

    SimMetrics sum;
    sum += m;
    sum += m;
    EXPECT_EQ(sum.cycles, 2000u);
    EXPECT_EQ(sum.instructions, 4000u);
}

} // namespace
} // namespace looppoint
