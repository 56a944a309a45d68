/**
 * @file
 * Tests for the pinball record/replay substrate: deterministic replay
 * under different schedulers, serialization round trips, and error
 * detection for mismatched replays.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "exec/driver.hh"
#include "isa/program_builder.hh"
#include "pinball/pinball.hh"
#include "util/logging.hh"

namespace looppoint {
namespace {

class MainImageCollector : public ExecListener
{
  public:
    explicit MainImageCollector(uint32_t n) : streams(n) {}

    void
    onBlock(uint32_t tid, BlockId block,
            const ExecutionEngine &engine) override
    {
        if (engine.program().inMainImage(block))
            streams[tid].push_back(block);
    }

    std::vector<std::vector<BlockId>> streams;
};

Program
makeContendedProgram()
{
    ProgramBuilder b("contended", 21);
    uint32_t k0 = b.beginKernel("dyn", SchedPolicy::DynamicFor, 120, 4);
    b.addStream({.footprintBytes = 1 << 16, .strideBytes = 8});
    b.addBlock({.numInstrs = 30, .fracMem = 0.3, .streams = {0}});
    b.addCritical(0, {.numInstrs = 10, .streams = {0}});
    b.endKernel();
    uint32_t k1 = b.beginKernel("stat", SchedPolicy::StaticFor, 80);
    b.addStream({.footprintBytes = 1 << 16, .strideBytes = 8});
    b.addCond({.numInstrs = 6, .streams = {}},
              {.numInstrs = 18, .streams = {0}},
              {.numInstrs = 9, .streams = {0}},
              {.numInstrs = 4, .streams = {}}, 0.3);
    b.addCritical(1, {.numInstrs = 8, .streams = {0}});
    b.endKernel();
    b.runKernels({k0, k1}, 3);
    return b.build();
}

TEST(Pinball, RecordCapturesSyncResolutions)
{
    Program p = makeContendedProgram();
    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Passive};
    Pinball pb = recordPinball(p, cfg, 200);
    EXPECT_EQ(pb.programName, p.name);
    ASSERT_EQ(pb.log.lockOrder.size(), 2u);
    // One lock-0 acquisition per dyn-kernel iteration (120 x 3 runs).
    EXPECT_EQ(pb.log.lockOrder[0].size(), 120u * 3u);
    EXPECT_EQ(pb.log.lockOrder[1].size(), 80u * 3u);
    // Dynamic chunks: 120 iters / chunk 4 = 30 grants per instance.
    size_t grants = 0;
    for (const auto &row : pb.log.chunkOrder)
        grants += row.size();
    EXPECT_EQ(grants, 30u * 3u);
    EXPECT_EQ(pb.threadIcounts.size(), 4u);
}

TEST(Pinball, ReplayReproducesMainImageStreamsUnderOtherScheduler)
{
    // Record with one flow-control quantum, replay with a very
    // different one; the per-thread main-image block streams must be
    // identical (the PinPlay reproducibility property).
    Program p = makeContendedProgram();
    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Passive};

    MainImageCollector rec_streams(4);
    Pinball pb = recordPinball(p, cfg, 1000, &rec_streams);

    MainImageCollector rep_streams(4);
    replayPinball(p, pb, 37, &rep_streams);

    EXPECT_EQ(rec_streams.streams, rep_streams.streams);
}

TEST(Pinball, ReplayMatchesUnderActivePolicy)
{
    Program p = makeContendedProgram();
    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Active};

    MainImageCollector rec_streams(4);
    Pinball pb = recordPinball(p, cfg, 500, &rec_streams);

    MainImageCollector rep_streams(4);
    replayPinball(p, pb, 91, &rep_streams);

    EXPECT_EQ(rec_streams.streams, rep_streams.streams);
}

TEST(Pinball, SaveLoadRoundTrip)
{
    Program p = makeContendedProgram();
    ExecConfig cfg{.numThreads = 3, .waitPolicy = WaitPolicy::Active};
    Pinball pb = recordPinball(p, cfg, 300);

    std::stringstream ss;
    pb.save(ss);
    Pinball loaded = Pinball::load(ss);
    EXPECT_EQ(pb, loaded);
}

TEST(Pinball, LoadRejectsJunk)
{
    std::stringstream ss("not a pinball at all");
    EXPECT_THROW(Pinball::load(ss), FatalError);
}

TEST(Pinball, ReplayRejectsWrongProgram)
{
    Program p = makeContendedProgram();
    ExecConfig cfg{.numThreads = 2, .waitPolicy = WaitPolicy::Passive};
    Pinball pb = recordPinball(p, cfg, 100);

    ProgramBuilder b("other", 5);
    uint32_t k = b.beginKernel("k", SchedPolicy::StaticFor, 8);
    b.addBlock({.numInstrs = 8, .streams = {}});
    b.endKernel();
    b.runKernels({k});
    Program other = b.build();

    EXPECT_THROW(replayPinball(other, pb, 100), FatalError);
}

TEST(Pinball, ReplayIsDeterministicAcrossRepeats)
{
    Program p = makeContendedProgram();
    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Passive};
    Pinball pb = recordPinball(p, cfg, 450);

    MainImageCollector s1(4), s2(4);
    replayPinball(p, pb, 77, &s1);
    replayPinball(p, pb, 77, &s2);
    EXPECT_EQ(s1.streams, s2.streams);
}

TEST(Pinball, CheckpointStructHoldsEngineSnapshot)
{
    Program p = makeContendedProgram();
    ExecConfig cfg{.numThreads = 2, .waitPolicy = WaitPolicy::Passive};
    ExecutionEngine e(p, cfg);
    RoundRobinDriver d(e, 100);
    d.run(nullptr, [&] { return e.globalIcount() > 2000; });

    // A mid-run checkpoint is a plain copy of the engine: it starts at
    // the source's position and finishes the program on its own.
    ExecutionEngine ckpt(e);
    EXPECT_EQ(ckpt.globalIcount(), e.globalIcount());
    EXPECT_EQ(ckpt.globalFilteredIcount(), e.globalFilteredIcount());

    RoundRobinDriver d2(ckpt, 100);
    d2.run();
    EXPECT_TRUE(ckpt.allFinished());
    EXPECT_FALSE(e.allFinished()) << "the copy shares no state";
}

} // namespace
} // namespace looppoint
