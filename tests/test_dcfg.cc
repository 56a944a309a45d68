/**
 * @file
 * Tests for DCFG construction and loop discovery: the discovered loops
 * must match the generator's ground truth (worker loops, inner loops,
 * spin self-loops), with correct images, trip counts, and marker sets.
 * A DCFG collected while recording a pinball must equal the one a
 * constrained replay of that pinball builds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "dcfg/dcfg.hh"
#include "exec/driver.hh"
#include "exec/engine.hh"
#include "isa/program_builder.hh"
#include "pinball/pinball.hh"
#include "util/logging.hh"
#include "workload/descriptor.hh"

namespace looppoint {
namespace {

Program
makeLoopProgram(uint64_t iters, uint64_t inner_trips,
                uint64_t timesteps)
{
    ProgramBuilder b("dcfg-test", 17);
    uint32_t k = b.beginKernel("work", SchedPolicy::StaticFor, iters);
    b.addStream({.footprintBytes = 1 << 16, .strideBytes = 8});
    b.addBlock({.numInstrs = 20, .fracMem = 0.3, .streams = {0}});
    if (inner_trips > 0) {
        b.beginInnerLoop(inner_trips);
        b.addBlock({.numInstrs = 12, .fracMem = 0.4, .streams = {0}});
        b.endInnerLoop();
    }
    b.endKernel();
    b.runKernels({k}, timesteps);
    return b.build();
}

Dcfg
buildDcfg(const Program &p, uint32_t threads, WaitPolicy policy)
{
    ExecConfig cfg{.numThreads = threads, .waitPolicy = policy};
    ExecutionEngine e(p, cfg);
    DcfgBuilder builder(p, threads);
    RoundRobinDriver d(e, 200);
    d.run(&builder);
    return builder.build();
}

TEST(Dcfg, FindsWorkerLoop)
{
    Program p = makeLoopProgram(64, 0, 2);
    Dcfg dcfg = buildDcfg(p, 4, WaitPolicy::Passive);

    const BlockId wh = p.kernels[0].workerHeader;
    ASSERT_TRUE(dcfg.isLoopHeader(wh));
    const DcfgLoop &loop = dcfg.loopAt(wh);
    EXPECT_EQ(loop.image, ImageId::Main);
    EXPECT_EQ(loop.headerExecs, 64u * 2u);
    // The loop body contains the header and the latch.
    EXPECT_NE(std::find(loop.body.begin(), loop.body.end(),
                        p.kernels[0].workerLatch),
              loop.body.end());
}

TEST(Dcfg, FindsInnerLoopWithTripCounts)
{
    Program p = makeLoopProgram(32, 5, 1);
    Dcfg dcfg = buildDcfg(p, 2, WaitPolicy::Passive);

    // Find the inner loop item and its header.
    const BodyItem *inner = nullptr;
    for (const auto &item : p.kernels[0].body)
        if (item.kind == BodyItem::Kind::Loop)
            inner = &item;
    ASSERT_NE(inner, nullptr);
    ASSERT_TRUE(dcfg.isLoopHeader(inner->blocks[0]));
    const DcfgLoop &loop = dcfg.loopAt(inner->blocks[0]);
    // 32 iterations, 5 trips each: header executes 160 times, entered
    // 32 times, back edge taken 4 times per entry.
    EXPECT_EQ(loop.headerExecs, 32u * 5u);
    EXPECT_EQ(loop.entries, 32u);
    EXPECT_EQ(loop.backEdgeCount, 32u * 4u);
}

TEST(Dcfg, FindsSpinLoopInLibraryImage)
{
    // Active policy + imbalance: the spin-wait block self-loops.
    ProgramBuilder b("spin-test", 23);
    uint32_t k = b.beginKernel("work", SchedPolicy::StaticFor, 100);
    b.setImbalance(2.0);
    b.addBlock({.numInstrs = 40, .fracMem = 0.2, .streams = {}});
    b.endKernel();
    b.runKernels({k}, 1);
    Program p = b.build();

    Dcfg dcfg = buildDcfg(p, 4, WaitPolicy::Active);
    ASSERT_TRUE(dcfg.isLoopHeader(p.runtime.spinWait));
    EXPECT_EQ(dcfg.loopAt(p.runtime.spinWait).image, ImageId::LibIomp);
}

TEST(Dcfg, MainImageMarkersExcludeSpinLoops)
{
    ProgramBuilder b("spin-test2", 29);
    uint32_t k = b.beginKernel("work", SchedPolicy::StaticFor, 100);
    b.setImbalance(2.0);
    b.addBlock({.numInstrs = 40, .fracMem = 0.2, .streams = {}});
    b.endKernel();
    b.runKernels({k}, 1);
    Program p = b.build();

    Dcfg dcfg = buildDcfg(p, 4, WaitPolicy::Active);
    auto markers = dcfg.mainImageLoopHeaders();
    EXPECT_FALSE(markers.empty());
    for (BlockId m : markers) {
        EXPECT_TRUE(p.inMainImage(m));
        EXPECT_NE(m, p.runtime.spinWait);
    }
}

TEST(Dcfg, MarkersSortedByPc)
{
    Program p = generateProgram(findApp("603.bwaves_s.1"),
                                InputClass::Test);
    Dcfg dcfg = buildDcfg(p, 4, WaitPolicy::Passive);
    auto markers = dcfg.mainImageLoopHeaders();
    ASSERT_GE(markers.size(), 3u); // one worker loop per kernel
    for (size_t i = 1; i < markers.size(); ++i)
        EXPECT_LT(p.blocks[markers[i - 1]].pc, p.blocks[markers[i]].pc);
}

TEST(Dcfg, EdgeCountsConserved)
{
    Program p = makeLoopProgram(16, 3, 2);
    ExecConfig cfg{.numThreads = 2, .waitPolicy = WaitPolicy::Passive};
    ExecutionEngine e(p, cfg);
    DcfgBuilder builder(p, 2);
    RoundRobinDriver d(e, 100);
    d.run(&builder);
    Dcfg dcfg = builder.build();

    // Total edge traversals = total block events - one start per
    // thread (the first block of each thread has no incoming edge).
    uint64_t edge_total = 0;
    for (const auto &edge : dcfg.edges())
        edge_total += edge.count;
    uint64_t block_events = 0;
    for (BlockId bid = 0; bid < p.numBlocks(); ++bid)
        block_events += dcfg.blockExecs(bid);
    EXPECT_EQ(edge_total, block_events - 2);
}

TEST(Dcfg, LoopAtUnknownBlockIsFatal)
{
    Program p = makeLoopProgram(8, 0, 1);
    Dcfg dcfg = buildDcfg(p, 1, WaitPolicy::Passive);
    EXPECT_THROW(dcfg.loopAt(p.kernels[0].entryBlock), FatalError);
}

TEST(Dcfg, WorkerLoopStableAcrossPolicies)
{
    // The discovered main-image loop structure must not depend on the
    // wait policy (spin loops stay in the library image).
    Program p = makeLoopProgram(48, 4, 2);
    Dcfg active = buildDcfg(p, 4, WaitPolicy::Active);
    Dcfg passive = buildDcfg(p, 4, WaitPolicy::Passive);
    EXPECT_EQ(active.mainImageLoopHeaders(),
              passive.mainImageLoopHeaders());
    const BlockId wh = p.kernels[0].workerHeader;
    EXPECT_EQ(active.loopAt(wh).headerExecs,
              passive.loopAt(wh).headerExecs);
}

// ---------------------------------------------------------------------
// Record vs replay: the pipeline builds the DCFG during recording and
// replays only for a store-served pinball, so both must be the same
// graph — and attaching the builder must not change the recording.
// ---------------------------------------------------------------------

void
expectEdgesEqual(const std::vector<DcfgEdge> &a,
                 const std::vector<DcfgEdge> &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].from, b[i].from) << what << " edge " << i;
        EXPECT_EQ(a[i].to, b[i].to) << what << " edge " << i;
        EXPECT_EQ(a[i].count, b[i].count) << what << " edge " << i;
    }
}

void
expectDcfgEqual(const Program &p, const Dcfg &a, const Dcfg &b)
{
    expectEdgesEqual(a.edges(), b.edges(), "raw");
    expectEdgesEqual(a.summaryEdges(), b.summaryEdges(), "summary");
    for (BlockId id = 0; id < p.numBlocks(); ++id)
        EXPECT_EQ(a.blockExecs(id), b.blockExecs(id)) << "block " << id;
    ASSERT_EQ(a.loops().size(), b.loops().size());
    for (size_t i = 0; i < a.loops().size(); ++i) {
        const DcfgLoop &x = a.loops()[i];
        const DcfgLoop &y = b.loops()[i];
        EXPECT_EQ(x.header, y.header) << "loop " << i;
        EXPECT_EQ(x.body, y.body) << "loop " << i;
        EXPECT_EQ(x.backEdgeCount, y.backEdgeCount) << "loop " << i;
        EXPECT_EQ(x.headerExecs, y.headerExecs) << "loop " << i;
        EXPECT_EQ(x.entries, y.entries) << "loop " << i;
        EXPECT_EQ(x.image, y.image) << "loop " << i;
        EXPECT_EQ(x.routine, y.routine) << "loop " << i;
    }
}

void
expectRecordedDcfgMatchesReplay(const std::vector<AppDescriptor> &apps,
                                InputClass input)
{
    constexpr uint64_t kQuantum = 1000; // LoopPointOptions default
    for (const AppDescriptor &app : apps) {
        const Program p = generateProgram(app, input);
        for (WaitPolicy policy : {WaitPolicy::Passive, WaitPolicy::Active})
            for (uint32_t threads : {2u, 4u, 8u}) {
                ExecConfig cfg{.numThreads = app.effectiveThreads(threads),
                               .waitPolicy = policy};
                SCOPED_TRACE(app.name + " threads=" +
                             std::to_string(cfg.numThreads) +
                             (policy == WaitPolicy::Active ? " active"
                                                           : " passive"));
                DcfgBuilder recorded(p, cfg.numThreads);
                Pinball pb = recordPinball(p, cfg, kQuantum, &recorded);
                EXPECT_TRUE(pb == recordPinball(p, cfg, kQuantum));

                DcfgBuilder replayed(p, cfg.numThreads);
                replayPinball(p, pb, kQuantum, &replayed);
                expectDcfgEqual(p, recorded.build(), replayed.build());
            }
    }
}

TEST(DcfgRecordReplay, Spec2017AppsMatch)
{
    expectRecordedDcfgMatchesReplay(spec2017Apps(), InputClass::Test);
}

TEST(DcfgRecordReplay, NpbAppsMatch)
{
    expectRecordedDcfgMatchesReplay(npbApps(), InputClass::NpbA);
}

TEST(DcfgRecordReplay, PthreadAppsMatch)
{
    expectRecordedDcfgMatchesReplay(pthreadApps(), InputClass::Test);
}

} // namespace
} // namespace looppoint
