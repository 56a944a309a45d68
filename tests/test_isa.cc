/**
 * @file
 * Unit tests for the virtual ISA and ProgramBuilder lowering.
 */

#include <gtest/gtest.h>

#include "isa/program.hh"
#include "isa/program_builder.hh"
#include "util/logging.hh"

namespace looppoint {
namespace {

Program
makeTinyProgram()
{
    ProgramBuilder b("tiny", 1);
    uint32_t k = b.beginKernel("k0", SchedPolicy::StaticFor, 16);
    b.addStream({.footprintBytes = 1 << 16, .strideBytes = 8});
    b.addBlock({.numInstrs = 32, .fracMem = 0.4, .streams = {0}});
    b.beginInnerLoop(4);
    b.addBlock({.numInstrs = 16, .fracMem = 0.5, .streams = {0}});
    b.endInnerLoop();
    b.endKernel();
    b.runKernels({k}, 3);
    return b.build();
}

TEST(WaitPolicy, NameParsesBack)
{
    for (WaitPolicy p : {WaitPolicy::Passive, WaitPolicy::Active})
        EXPECT_EQ(parseWaitPolicy(waitPolicyName(p)), p);
    EXPECT_FALSE(parseWaitPolicy("Active"));
    EXPECT_FALSE(parseWaitPolicy(""));
    EXPECT_FALSE(parseWaitPolicy("spin"));
}

TEST(ProgramBuilder, ProducesValidProgram)
{
    Program p = makeTinyProgram();
    EXPECT_EQ(p.kernels.size(), 1u);
    EXPECT_EQ(p.runList.size(), 3u);
    EXPECT_GT(p.numBlocks(), 8u);
    p.validate(); // panics on corruption
}

TEST(ProgramBuilder, ImagesHaveDistinctBases)
{
    Program p = makeTinyProgram();
    ASSERT_EQ(p.images.size(), kNumImages);
    EXPECT_NE(p.images[0].base, p.images[1].base);
    EXPECT_NE(p.images[1].base, p.images[2].base);
}

TEST(ProgramBuilder, PcsAreUniqueAndImageLocal)
{
    Program p = makeTinyProgram();
    std::vector<Addr> pcs;
    for (const auto &bb : p.blocks) {
        pcs.push_back(bb.pc);
        Addr base = p.images[static_cast<size_t>(bb.image)].base;
        EXPECT_GE(bb.pc, base);
    }
    std::sort(pcs.begin(), pcs.end());
    EXPECT_EQ(std::adjacent_find(pcs.begin(), pcs.end()), pcs.end())
        << "block PCs must be unique";
}

TEST(ProgramBuilder, RuntimeBlocksLiveInLibraryImages)
{
    Program p = makeTinyProgram();
    EXPECT_EQ(p.blocks[p.runtime.spinWait].image, ImageId::LibIomp);
    EXPECT_EQ(p.blocks[p.runtime.barrierEnter].image, ImageId::LibIomp);
    EXPECT_EQ(p.blocks[p.runtime.chunkFetch].image, ImageId::LibIomp);
    EXPECT_EQ(p.blocks[p.runtime.lockAcquire].image, ImageId::LibIomp);
    EXPECT_EQ(p.blocks[p.runtime.futexWait].image, ImageId::LibC);
    EXPECT_FALSE(p.inMainImage(p.runtime.spinWait));
}

TEST(ProgramBuilder, WorkerHeaderIsMainImageLoopEntry)
{
    Program p = makeTinyProgram();
    const auto &k = p.kernels[0];
    EXPECT_TRUE(p.inMainImage(k.workerHeader));
    EXPECT_TRUE(p.blocks[k.workerHeader].endsWithBranch());
    EXPECT_TRUE(p.blocks[k.workerLatch].endsWithBranch());
}

TEST(ProgramBuilder, DeterministicForSameSeed)
{
    Program a = makeTinyProgram();
    Program b = makeTinyProgram();
    ASSERT_EQ(a.numBlocks(), b.numBlocks());
    for (size_t i = 0; i < a.numBlocks(); ++i) {
        EXPECT_EQ(a.blocks[i].pc, b.blocks[i].pc);
        ASSERT_EQ(a.blocks[i].instrs.size(), b.blocks[i].instrs.size());
        for (size_t j = 0; j < a.blocks[i].instrs.size(); ++j)
            EXPECT_EQ(a.blocks[i].instrs[j].op, b.blocks[i].instrs[j].op);
    }
}

TEST(ProgramBuilder, InstrMixRoughlyMatchesSpec)
{
    ProgramBuilder b("mix", 9);
    uint32_t k = b.beginKernel("k", SchedPolicy::StaticFor, 1);
    b.addBlock({.numInstrs = 2000, .fracMem = 0.5, .streams = {}});
    b.endKernel();
    b.runKernels({k});
    Program p = b.build();

    // Find the 2000-instruction block and count memory ops.
    for (const auto &bb : p.blocks) {
        if (bb.numInstrs() != 2000)
            continue;
        int mem = 0;
        for (const auto &d : bb.instrs)
            mem += isMemOp(d.op);
        EXPECT_NEAR(mem / 2000.0, 0.5, 0.06);
        return;
    }
    FAIL() << "block not found";
}

TEST(ProgramBuilder, EstimateWorkScalesWithRunList)
{
    ProgramBuilder b1("w", 3);
    uint32_t k = b1.beginKernel("k", SchedPolicy::StaticFor, 100);
    b1.addBlock({.numInstrs = 50, .fracMem = 0.2, .streams = {}});
    b1.endKernel();
    b1.runKernels({k}, 2);
    Program p2 = b1.build();

    ProgramBuilder b2("w", 3);
    k = b2.beginKernel("k", SchedPolicy::StaticFor, 100);
    b2.addBlock({.numInstrs = 50, .fracMem = 0.2, .streams = {}});
    b2.endKernel();
    b2.runKernels({k}, 4);
    Program p4 = b2.build();

    EXPECT_GT(p4.estimateWorkInstrs(8), p2.estimateWorkInstrs(8));
    EXPECT_NEAR(static_cast<double>(p4.estimateWorkInstrs(8)) /
                    static_cast<double>(p2.estimateWorkInstrs(8)),
                2.0, 0.05);
}

TEST(ProgramBuilder, CondLowersFourBlocks)
{
    ProgramBuilder b("cond", 5);
    uint32_t k = b.beginKernel("k", SchedPolicy::StaticFor, 8);
    b.addCond({.numInstrs = 8, .streams = {}}, {.numInstrs = 20, .streams = {}},
              {.numInstrs = 12, .streams = {}}, {.numInstrs = 6, .streams = {}},
              0.5);
    b.endKernel();
    b.runKernels({k});
    Program p = b.build();
    const auto &item = p.kernels[0].body.at(0);
    EXPECT_EQ(item.kind, BodyItem::Kind::Cond);
    EXPECT_TRUE(p.blocks[item.blocks[0]].endsWithBranch());
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(p.inMainImage(item.blocks[i]));
}

TEST(ProgramBuilder, CriticalPatchedToRuntimeStubs)
{
    ProgramBuilder b("crit", 5);
    uint32_t k = b.beginKernel("k", SchedPolicy::StaticFor, 8);
    b.addCritical(0, {.numInstrs = 16, .streams = {}});
    b.endKernel();
    b.runKernels({k});
    Program p = b.build();
    const auto &item = p.kernels[0].body.at(0);
    EXPECT_EQ(item.kind, BodyItem::Kind::Critical);
    EXPECT_EQ(item.blocks[0], p.runtime.lockAcquire);
    EXPECT_EQ(item.blocks[2], p.runtime.lockRelease);
    EXPECT_TRUE(p.inMainImage(item.blocks[1]));
    EXPECT_EQ(p.numLocks, 1u);
}

TEST(ProgramBuilder, FatalOnEmptyRunList)
{
    ProgramBuilder b("bad", 1);
    uint32_t k = b.beginKernel("k", SchedPolicy::StaticFor, 8);
    b.addBlock({.numInstrs = 8, .streams = {}});
    b.endKernel();
    (void)k;
    EXPECT_THROW(b.build(), FatalError);
}

TEST(ProgramBuilder, FatalOnZeroIterations)
{
    ProgramBuilder b("bad2", 1);
    EXPECT_THROW(b.beginKernel("k", SchedPolicy::StaticFor, 0),
                 FatalError);
}

TEST(Program, BodyInstrCountCountsLoopTrips)
{
    Program p = makeTinyProgram();
    const auto &k = p.kernels[0];
    // per-iteration: header(6)+latch(3) + block(32) +
    // loop(4 trips x (header 4 + latch 3 + body 16)) = 133
    EXPECT_EQ(p.bodyInstrCount(k),
              6u + 3u + 32u + 4u * (4u + 3u + 16u));
}

TEST(OpClass, Predicates)
{
    EXPECT_TRUE(isMemOp(OpClass::Load));
    EXPECT_TRUE(isMemOp(OpClass::Store));
    EXPECT_TRUE(isMemOp(OpClass::AtomicRmw));
    EXPECT_FALSE(isMemOp(OpClass::FpMul));
    EXPECT_TRUE(isMemWrite(OpClass::Store));
    EXPECT_FALSE(isMemWrite(OpClass::Load));
    EXPECT_EQ(opClassName(OpClass::FpDiv), "FpDiv");
}

} // namespace
} // namespace looppoint
