/**
 * @file
 * Tests for the execution engine and round-robin driver: determinism,
 * wait-policy behavior, the (PC, count) marker invariance LoopPoint
 * depends on, scheduling policies, and synchronization correctness.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "exec/driver.hh"
#include "exec/engine.hh"
#include "isa/program_builder.hh"
#include "util/logging.hh"
#include "workload/descriptor.hh"

namespace looppoint {
namespace {

/** Collects executed block ids, optionally main-image only. */
class StreamCollector : public ExecListener
{
  public:
    StreamCollector(uint32_t num_threads, bool main_only)
        : streams(num_threads), mainOnly(main_only)
    {}

    void
    onBlock(uint32_t tid, BlockId block,
            const ExecutionEngine &engine) override
    {
        if (!mainOnly || engine.program().inMainImage(block))
            streams[tid].push_back(block);
    }

    std::vector<std::vector<BlockId>> streams;
    bool mainOnly;
};

Program
makeProgram(bool with_critical, bool dynamic_sched, uint64_t iters = 64,
            uint64_t timesteps = 4)
{
    ProgramBuilder b("exec-test", 7);
    uint32_t k = b.beginKernel(
        "work", dynamic_sched ? SchedPolicy::DynamicFor
                              : SchedPolicy::StaticFor,
        iters, 4);
    b.addStream({.footprintBytes = 1 << 18, .strideBytes = 8});
    b.addBlock({.numInstrs = 24, .fracMem = 0.4, .streams = {0}});
    b.addCond({.numInstrs = 6, .streams = {}},
              {.numInstrs = 14, .streams = {0}},
              {.numInstrs = 10, .streams = {0}},
              {.numInstrs = 4, .streams = {}}, 0.4);
    if (with_critical)
        b.addCritical(0, {.numInstrs = 12, .streams = {0}});
    b.endKernel();
    b.runKernels({k}, timesteps);
    return b.build();
}

uint64_t
runToEnd(const Program &p, ExecConfig cfg, ExecListener *l = nullptr,
         uint64_t quantum = 500)
{
    ExecutionEngine e(p, cfg);
    RoundRobinDriver d(e, quantum);
    d.run(l);
    EXPECT_TRUE(e.allFinished());
    return e.globalIcount();
}

TEST(ExecEngine, RunsToCompletion)
{
    Program p = makeProgram(false, false);
    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Passive};
    uint64_t icount = runToEnd(p, cfg);
    EXPECT_GT(icount, 1000u);
}

TEST(ExecEngine, DeterministicAcrossRuns)
{
    Program p = makeProgram(true, false);
    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Passive};
    StreamCollector c1(4, false), c2(4, false);
    uint64_t i1 = runToEnd(p, cfg, &c1);
    uint64_t i2 = runToEnd(p, cfg, &c2);
    EXPECT_EQ(i1, i2);
    EXPECT_EQ(c1.streams, c2.streams);
}

TEST(ExecEngine, WorkerHeaderCountEqualsIterations)
{
    // The fundamental LoopPoint marker property: the global execution
    // count of a main-image loop entry equals the work done and is
    // independent of scheduling, threads, and wait policy.
    Program p = makeProgram(false, false, 64, 4);
    const BlockId wh = p.kernels[0].workerHeader;
    const uint64_t expect = 64 * 4;

    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
        for (auto policy : {WaitPolicy::Passive, WaitPolicy::Active}) {
            ExecConfig cfg{.numThreads = threads, .waitPolicy = policy};
            ExecutionEngine e(p, cfg);
            RoundRobinDriver d(e, 333);
            d.run();
            EXPECT_EQ(e.blockExecCount(wh), expect)
                << "threads=" << threads << " active="
                << (policy == WaitPolicy::Active);
        }
    }
}

TEST(ExecEngine, DynamicSchedCoversAllIterationsOnce)
{
    Program p = makeProgram(false, true, 100, 3);
    const BlockId wh = p.kernels[0].workerHeader;
    ExecConfig cfg{.numThreads = 5, .waitPolicy = WaitPolicy::Passive};
    ExecutionEngine e(p, cfg);
    RoundRobinDriver d(e, 100);
    d.run();
    EXPECT_EQ(e.blockExecCount(wh), 100u * 3u);
}

TEST(ExecEngine, ActivePolicyEmitsSpin)
{
    // With imbalance, early-finishing threads spin under the active
    // policy and block under the passive policy.
    ProgramBuilder b("imb", 3);
    uint32_t k = b.beginKernel("work", SchedPolicy::StaticFor, 200);
    b.setImbalance(1.5);
    b.addBlock({.numInstrs = 40, .fracMem = 0.3, .streams = {}});
    b.endKernel();
    b.runKernels({k}, 2);
    Program p = b.build();

    ExecConfig active{.numThreads = 4, .waitPolicy = WaitPolicy::Active};
    ExecutionEngine ea(p, active);
    RoundRobinDriver da(ea, 200);
    da.run();
    EXPECT_GT(ea.blockExecCount(p.runtime.spinWait), 0u);
    EXPECT_EQ(ea.blockExecCount(p.runtime.futexWait), 0u);

    ExecConfig passive{.numThreads = 4,
                       .waitPolicy = WaitPolicy::Passive};
    ExecutionEngine ep(p, passive);
    RoundRobinDriver dp(ep, 200);
    dp.run();
    EXPECT_EQ(ep.blockExecCount(p.runtime.spinWait), 0u);
    EXPECT_GT(ep.blockExecCount(p.runtime.futexWait), 0u);

    // Filtered (main-image) work is identical despite the very
    // different library activity.
    EXPECT_EQ(ea.globalFilteredIcount(), ep.globalFilteredIcount());
    EXPECT_GT(ea.globalIcount(), ep.globalIcount());
}

TEST(ExecEngine, FilteredIcountExcludesLibraryCode)
{
    Program p = makeProgram(true, true);
    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Active};
    ExecutionEngine e(p, cfg);
    RoundRobinDriver d(e, 100);
    d.run();
    EXPECT_LT(e.globalFilteredIcount(), e.globalIcount());
}

TEST(ExecEngine, StaticImbalanceSkewsWork)
{
    ProgramBuilder b("imb2", 11);
    uint32_t k = b.beginKernel("work", SchedPolicy::StaticFor, 400);
    b.setImbalance(1.0);
    b.addBlock({.numInstrs = 30, .fracMem = 0.2, .streams = {}});
    b.endKernel();
    b.runKernels({k}, 1);
    Program p = b.build();

    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Passive};
    ExecutionEngine e(p, cfg);
    RoundRobinDriver d(e, 100);
    d.run();
    // Thread 0 gets the biggest share, thread 3 the smallest.
    EXPECT_GT(e.filteredIcount(0), e.filteredIcount(3) * 2);
}

TEST(ExecEngine, SerialKernelRunsOnThreadZeroOnly)
{
    ProgramBuilder b("serial", 13);
    uint32_t k = b.beginKernel("init", SchedPolicy::Serial, 50);
    b.addBlock({.numInstrs = 20, .fracMem = 0.2, .streams = {}});
    b.endKernel();
    b.runKernels({k}, 1);
    Program p = b.build();

    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Passive};
    StreamCollector c(4, true);
    runToEnd(p, cfg, &c);
    const BlockId wh = p.kernels[0].workerHeader;
    size_t wh_on_t0 = 0;
    for (BlockId blk : c.streams[0])
        wh_on_t0 += (blk == wh);
    EXPECT_EQ(wh_on_t0, 50u);
    for (uint32_t t = 1; t < 4; ++t)
        for (BlockId blk : c.streams[t])
            EXPECT_NE(blk, wh);
}

TEST(ExecEngine, CriticalSectionsAreExclusiveAndComplete)
{
    Program p = makeProgram(true, false, 80, 2);
    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Passive};
    ExecutionEngine e(p, cfg);
    RoundRobinDriver d(e, 50);
    d.run();
    // One critical section per worker iteration.
    const auto &item = p.kernels[0].body.back();
    ASSERT_EQ(item.kind, BodyItem::Kind::Critical);
    EXPECT_EQ(e.blockExecCount(item.blocks[1]), 80u * 2u);
    EXPECT_EQ(e.blockExecCount(p.runtime.lockAcquire), 80u * 2u);
    EXPECT_EQ(e.blockExecCount(p.runtime.lockRelease), 80u * 2u);
}

TEST(ExecEngine, NestedCriticalSectionsExecuteChildrenUnderLock)
{
    // A critical section built with beginCritical/endCritical executes
    // its child items while the outer lock is held; nested criticals
    // acquire and release in LIFO order.
    ProgramBuilder b("nested-crit", 11);
    uint32_t k = b.beginKernel("work", SchedPolicy::DynamicFor, 40, 2);
    b.addStream({.footprintBytes = 1 << 16, .strideBytes = 8});
    b.beginCritical(0, {.numInstrs = 8, .streams = {0}});
    b.addBlock({.numInstrs = 6, .streams = {0}});
    b.beginCritical(1, {.numInstrs = 5, .streams = {0}});
    b.endCritical();
    b.endCritical();
    b.endKernel();
    b.runKernels({k}, 2);
    Program p = b.build();

    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Passive};
    ExecutionEngine e(p, cfg);
    RoundRobinDriver d(e, 50);
    d.run();
    EXPECT_TRUE(e.allFinished());

    const auto &outer = p.kernels[0].body.back();
    ASSERT_EQ(outer.kind, BodyItem::Kind::Critical);
    ASSERT_EQ(outer.children.size(), 2u);
    const auto &inner = outer.children.back();
    ASSERT_EQ(inner.kind, BodyItem::Kind::Critical);
    // Every iteration runs outer CS, child block, and inner CS once.
    EXPECT_EQ(e.blockExecCount(outer.blocks[1]), 80u);
    EXPECT_EQ(e.blockExecCount(outer.children[0].blocks[0]), 80u);
    EXPECT_EQ(e.blockExecCount(inner.blocks[1]), 80u);
    // Two acquire/release pairs per iteration.
    EXPECT_EQ(e.blockExecCount(p.runtime.lockAcquire), 160u);
    EXPECT_EQ(e.blockExecCount(p.runtime.lockRelease), 160u);
}

TEST(ExecEngine, NestedCriticalStateRoundTripsThroughSaveLoad)
{
    // Stop mid-run with critical-section child frames live on thread
    // stacks, serialize, reload, and check the continuation is
    // bit-identical (the frame path must name Critical items).
    ProgramBuilder b("nested-crit-io", 5);
    uint32_t k = b.beginKernel("work", SchedPolicy::DynamicFor, 24, 1);
    b.addStream({.footprintBytes = 1 << 16, .strideBytes = 8});
    b.beginCritical(0, {.numInstrs = 4, .streams = {0}});
    b.beginInnerLoop(30);
    b.addBlock({.numInstrs = 10, .streams = {0}});
    b.endInnerLoop();
    b.endCritical();
    b.endKernel();
    b.runKernels({k}, 2);
    Program p = b.build();

    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Passive};
    ExecutionEngine e(p, cfg);
    RoundRobinDriver d(e, 25);
    d.run(nullptr, [&] { return e.globalIcount() > 2000; });
    ASSERT_FALSE(e.allFinished());

    std::ostringstream os;
    e.save(os);
    std::istringstream is(os.str());
    ExecutionEngine e2 = ExecutionEngine::load(is, p, nullptr);

    StreamCollector c1(4, false), c2(4, false);
    RoundRobinDriver d1(e, 25);
    d1.run(&c1);
    RoundRobinDriver d2(e2, 25);
    d2.run(&c2);
    EXPECT_TRUE(e.allFinished());
    EXPECT_TRUE(e2.allFinished());
    EXPECT_EQ(c1.streams, c2.streams);
    EXPECT_EQ(e.globalIcount(), e2.globalIcount());
}

TEST(ExecEngine, MemRefsGeneratedWhenEnabled)
{
    Program p = makeProgram(false, false, 16, 1);
    ExecConfig cfg{.numThreads = 2,
                   .waitPolicy = WaitPolicy::Passive,
                   .genAddresses = true};
    ExecutionEngine e(p, cfg);
    uint64_t refs = 0;
    while (!e.allFinished()) {
        for (uint32_t t = 0; t < 2; ++t) {
            if (!e.runnable(t))
                continue;
            StepResult r = e.step(t);
            if (r.kind == StepResult::Kind::Block) {
                const auto &m = e.memRefs(t);
                refs += m.size();
                size_t mem_instrs = 0;
                for (const auto &ins : e.program().block(r.block).instrs)
                    mem_instrs += isMemOp(ins.op);
                EXPECT_EQ(m.size(), mem_instrs);
            }
        }
    }
    EXPECT_GT(refs, 0u);
}

TEST(ExecEngine, SharedStreamAddressesTiedToIteration)
{
    // The same iteration touches the same shared addresses regardless
    // of thread count (iteration-tied data accesses).
    Program p = makeProgram(false, false, 32, 1);
    auto collect = [&](uint32_t threads) {
        ExecConfig cfg{.numThreads = threads,
                       .waitPolicy = WaitPolicy::Passive,
                       .genAddresses = true};
        ExecutionEngine e(p, cfg);
        std::vector<Addr> shared;
        while (!e.allFinished()) {
            for (uint32_t t = 0; t < threads; ++t) {
                if (!e.runnable(t))
                    continue;
                StepResult r = e.step(t);
                if (r.kind != StepResult::Kind::Block)
                    continue;
                for (const auto &m : e.memRefs(t))
                    if (m.addr >= (0x800ull << 36))
                        shared.push_back(m.addr);
            }
        }
        std::sort(shared.begin(), shared.end());
        return shared;
    };
    auto a1 = collect(1);
    auto a4 = collect(4);
    EXPECT_EQ(a1, a4);
}

TEST(ExecEngine, BlockedThreadsReportNotRunnable)
{
    Program p = makeProgram(false, false, 8, 1);
    ExecConfig cfg{.numThreads = 8, .waitPolicy = WaitPolicy::Passive};
    ExecutionEngine e(p, cfg);
    // Run only thread 1 until it can no longer proceed.
    int guard = 100000;
    while (e.runnable(1) && guard-- > 0) {
        StepResult r = e.step(1);
        if (r.kind != StepResult::Kind::Block)
            break;
    }
    // Thread 1 must eventually block at the barrier (thread 0 never
    // ran, so the barrier cannot release).
    EXPECT_FALSE(e.runnable(1));
    EXPECT_FALSE(e.finished(1));
    EXPECT_TRUE(e.runnable(0));
}

TEST(ExecEngine, IcountMonotonicAndConsistent)
{
    Program p = makeProgram(true, true, 40, 2);
    ExecConfig cfg{.numThreads = 3, .waitPolicy = WaitPolicy::Active};
    ExecutionEngine e(p, cfg);
    RoundRobinDriver d(e, 64);
    uint64_t total = 0;
    d.run();
    for (uint32_t t = 0; t < 3; ++t) {
        EXPECT_GE(e.icount(t), e.filteredIcount(t));
        total += e.icount(t);
    }
    EXPECT_EQ(total, e.globalIcount());
}

TEST(Driver, FatalOnZeroQuantum)
{
    Program p = makeProgram(false, false, 4, 1);
    ExecConfig cfg{.numThreads = 1};
    ExecutionEngine e(p, cfg);
    EXPECT_THROW(RoundRobinDriver(e, 0), FatalError);
}

TEST(Driver, StopConditionHonored)
{
    Program p = makeProgram(false, false, 1000, 4);
    ExecConfig cfg{.numThreads = 2, .waitPolicy = WaitPolicy::Passive};
    ExecutionEngine e(p, cfg);
    RoundRobinDriver d(e, 100);
    d.run(nullptr, [&] { return e.globalIcount() > 5000; });
    EXPECT_FALSE(e.allFinished());
    EXPECT_GT(e.globalIcount(), 5000u);
    // Can resume afterwards.
    d.run();
    EXPECT_TRUE(e.allFinished());
}

TEST(ExecEngine, CheckpointCopyResumesIdentically)
{
    Program p = makeProgram(true, false, 64, 3);
    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Passive};

    ExecutionEngine e(p, cfg);
    RoundRobinDriver d(e, 100);
    d.run(nullptr, [&] { return e.globalIcount() > 3000; });

    ExecutionEngine snapshot(e); // checkpoint

    StreamCollector c1(4, true);
    RoundRobinDriver d1(e, 100);
    d1.run(&c1);

    StreamCollector c2(4, true);
    RoundRobinDriver d2(snapshot, 100);
    d2.run(&c2);

    EXPECT_EQ(c1.streams, c2.streams);
    EXPECT_EQ(e.globalIcount(), snapshot.globalIcount());
}

TEST(EngineState, RoundTripMidExecution)
{
    // Engine save/load at an arbitrary mid-execution point, including
    // a deep body-walk stack.
    const AppDescriptor &app = findApp("644.nab_s.1");
    Program prog = generateProgram(app, InputClass::Test);
    ExecConfig cfg;
    cfg.numThreads = app.effectiveThreads(4);
    cfg.seed = 42;
    ExecutionEngine eng(prog, cfg);
    RoundRobinDriver d(eng, 700);
    d.run(nullptr, [&] { return eng.globalIcount() > 123'456; });

    std::stringstream ss;
    eng.save(ss);
    ExecutionEngine loaded = ExecutionEngine::load(ss, prog);
    EXPECT_EQ(loaded.globalIcount(), eng.globalIcount());
    EXPECT_EQ(loaded.globalFilteredIcount(),
              eng.globalFilteredIcount());

    // Both continue identically.
    StreamCollector c1(cfg.numThreads, true), c2(cfg.numThreads, true);
    RoundRobinDriver d1(eng, 700);
    d1.run(&c1);
    RoundRobinDriver d2(loaded, 700);
    d2.run(&c2);
    EXPECT_EQ(c1.streams, c2.streams);
}

TEST(EngineState, LoadRejectsWrongProgram)
{
    Program prog =
        generateProgram(findApp("628.pop2_s.1"), InputClass::Test);
    ExecConfig cfg;
    cfg.numThreads = 2;
    ExecutionEngine eng(prog, cfg);
    std::stringstream ss;
    eng.save(ss);

    Program other =
        generateProgram(findApp("619.lbm_s.1"), InputClass::Test);
    EXPECT_THROW(ExecutionEngine::load(ss, other), FatalError);
}

} // namespace
} // namespace looppoint
