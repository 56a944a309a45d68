/**
 * @file
 * Determinism of the host-parallel phases: the analysis and the
 * checkpointed region simulation must be bit-identical for any jobs
 * count. Runs the full pipeline with jobs=1 (serial path, no pool)
 * and jobs=4 (the shared FIFO pool) on two workloads and compares the
 * outputs with exact equality — including every double in the final
 * MetricPrediction. Also checks that the region executor starts
 * regions in the order they were submitted.
 */

#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "core/looppoint.hh"
#include "core/region_exec.hh"
#include "isa/program_builder.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workload/descriptor.hh"

namespace looppoint {
namespace {

struct PipelineOutput
{
    LoopPointResult lp;
    LoopPointPipeline::CheckpointedSimResult ckpt;
    MetricPrediction pred;
};

PipelineOutput
runWithJobs(const char *app_name, uint32_t jobs)
{
    const AppDescriptor &app = findApp(app_name);
    LoopPointOptions opts;
    opts.numThreads = app.effectiveThreads(4);
    opts.sliceSizePerThread = 20'000;
    opts.jobs = jobs;
    Program prog = generateProgram(app, InputClass::Test);
    LoopPointPipeline pipe(prog, opts);

    PipelineOutput out;
    out.lp = pipe.analyze();
    SimConfig sim_cfg;
    sim_cfg.jobs = jobs;
    out.ckpt = pipe.simulateRegionsCheckpointed(out.lp, sim_cfg);
    out.pred =
        extrapolateMetrics(out.lp, out.ckpt.regionMetrics, sim_cfg);
    return out;
}

void
expectIdentical(const PipelineOutput &a, const PipelineOutput &b)
{
    // Analysis: same model selection, same per-slice assignment, same
    // region boundaries and weights.
    EXPECT_EQ(a.lp.chosenK, b.lp.chosenK);
    EXPECT_EQ(a.lp.assignment, b.lp.assignment);
    ASSERT_EQ(a.lp.regions.size(), b.lp.regions.size());
    for (size_t i = 0; i < a.lp.regions.size(); ++i) {
        EXPECT_EQ(a.lp.regions[i].start, b.lp.regions[i].start);
        EXPECT_EQ(a.lp.regions[i].end, b.lp.regions[i].end);
        // Exact: the multiplier math must not depend on the schedule.
        EXPECT_EQ(a.lp.regions[i].multiplier,
                  b.lp.regions[i].multiplier);
    }

    // Region simulation: every per-region metric identical.
    ASSERT_EQ(a.ckpt.regionMetrics.size(),
              b.ckpt.regionMetrics.size());
    for (size_t i = 0; i < a.ckpt.regionMetrics.size(); ++i) {
        const SimMetrics &ma = a.ckpt.regionMetrics[i];
        const SimMetrics &mb = b.ckpt.regionMetrics[i];
        EXPECT_EQ(ma.cycles, mb.cycles) << "region " << i;
        EXPECT_EQ(ma.instructions, mb.instructions) << "region " << i;
        EXPECT_EQ(ma.filteredInstructions, mb.filteredInstructions)
            << "region " << i;
        EXPECT_EQ(ma.branchMispredicts, mb.branchMispredicts)
            << "region " << i;
        EXPECT_EQ(ma.l1dMisses, mb.l1dMisses) << "region " << i;
        EXPECT_EQ(ma.l2Misses, mb.l2Misses) << "region " << i;
        EXPECT_EQ(ma.l3Misses, mb.l3Misses) << "region " << i;
    }

    // Final prediction: byte-identical doubles (operator== on every
    // field, not EXPECT_NEAR — reductions are per-region, serial).
    EXPECT_EQ(a.pred.runtimeSeconds, b.pred.runtimeSeconds);
    EXPECT_EQ(a.pred.cycles, b.pred.cycles);
    EXPECT_EQ(a.pred.instructions, b.pred.instructions);
    EXPECT_EQ(a.pred.filteredInstructions, b.pred.filteredInstructions);
    EXPECT_EQ(a.pred.branchMispredicts, b.pred.branchMispredicts);
    EXPECT_EQ(a.pred.l1dMisses, b.pred.l1dMisses);
    EXPECT_EQ(a.pred.l2Misses, b.pred.l2Misses);
    EXPECT_EQ(a.pred.l3Misses, b.pred.l3Misses);
}

TEST(ParallelDeterminism, Pop2JobsOneVsFour)
{
    PipelineOutput serial = runWithJobs("628.pop2_s.1", 1);
    PipelineOutput parallel = runWithJobs("628.pop2_s.1", 4);
    EXPECT_EQ(serial.ckpt.jobs, 1u);
    EXPECT_EQ(parallel.ckpt.jobs, 4u);
    expectIdentical(serial, parallel);
}

TEST(ParallelDeterminism, RomsJobsOneVsFour)
{
    PipelineOutput serial = runWithJobs("654.roms_s.1", 1);
    PipelineOutput parallel = runWithJobs("654.roms_s.1", 4);
    expectIdentical(serial, parallel);
}

TEST(ParallelDeterminism, FeatureMatrixAnyPoolWidth)
{
    const AppDescriptor &app = findApp("619.lbm_s.1");
    LoopPointOptions opts;
    opts.numThreads = app.effectiveThreads(4);
    opts.sliceSizePerThread = 20'000;
    Program prog = generateProgram(app, InputClass::Test);
    LoopPointPipeline pipe(prog, opts);
    LoopPointResult lp = pipe.analyze();

    FeatureMatrix serial =
        buildFeatureMatrix(prog, lp.slices, opts.projectionDims,
                           opts.seed, /*pool=*/nullptr);
    ThreadPool pool(3);
    FeatureMatrix parallel = buildFeatureMatrix(
        prog, lp.slices, opts.projectionDims, opts.seed, &pool);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "slice " << i;
}

TEST(ParallelDeterminism, PhaseStatsPopulated)
{
    PipelineOutput parallel = runWithJobs("628.pop2_s.1", 4);
    EXPECT_GT(parallel.ckpt.phaseWallSeconds, 0.0);
    EXPECT_GT(parallel.ckpt.serialEquivalentSeconds(), 0.0);
    EXPECT_GT(parallel.ckpt.hostParallelSpeedup(), 0.0);
    EXPECT_GT(parallel.ckpt.parallelEfficiency(), 0.0);
    EXPECT_EQ(parallel.ckpt.regionWallSeconds.size(),
              parallel.ckpt.regionMetrics.size());
}

/**
 * Regions submitted in priority order start in that order at jobs = 2.
 * The first region holds one worker at its start until every other
 * region has completed, so the rest run one at a time on the second
 * worker and the recorded start order is exact.
 */
TEST(RegionExecutor, StartsRegionsInPriorityOrderAtTwoJobs)
{
    ProgramBuilder b("exec-order", 7);
    uint32_t k = b.beginKernel("work", SchedPolicy::StaticFor, 16);
    b.addStream({.footprintBytes = 1 << 16, .strideBytes = 8});
    b.addBlock({.numInstrs = 20, .fracMem = 0.3, .streams = {0}});
    b.endKernel();
    b.runKernels({k}, 1);
    const Program prog = b.build();
    const MulticoreSim base(prog, ExecConfig{.numThreads = 2},
                            SimConfig{});
    const SyncLog log;
    const ReplayArbiter arbiter(log);

    constexpr uint32_t kRegions = 6;
    std::mutex mtx;
    std::condition_variable cv;
    std::vector<uint32_t> started;
    uint32_t completed = 0;
    bool release = false;
    auto source = [&](const RegionWorkItem &item) {
        std::unique_lock<std::mutex> g(mtx);
        started.push_back(item.index);
        cv.notify_all();
        if (item.index == 0)
            cv.wait(g, [&] { return release; });
        return std::make_shared<WarmSnapshot>(base, arbiter, false);
    };
    std::vector<bool> ok(kRegions, false);
    ThreadPool pool(2);
    RegionExecutor exec(&pool, FaultPlan{},
                        [&](const RegionCompletion &c) {
                            std::lock_guard<std::mutex> g(mtx);
                            ok[c.item.index] = c.result.ok;
                            ++completed;
                            cv.notify_all();
                        });
    auto item = [](uint32_t index) {
        RegionWorkItem it;
        it.index = index;
        return it;
    };

    exec.submit({item(0)}, source);
    {
        // Region 0 holds its worker before the rest are queued.
        std::unique_lock<std::mutex> g(mtx);
        cv.wait(g, [&] { return !started.empty(); });
    }
    std::vector<RegionWorkItem> rest;
    for (uint32_t i = 1; i < kRegions; ++i)
        rest.push_back(item(i));
    exec.submit(std::move(rest), source);
    {
        // finish() helps run queued regions, so it is called only
        // once the second worker has run all of them.
        std::unique_lock<std::mutex> g(mtx);
        cv.wait(g, [&] { return completed == kRegions - 1; });
        release = true;
        cv.notify_all();
    }
    exec.finish();

    EXPECT_EQ(started, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(ok, std::vector<bool>(kRegions, true));
}

} // namespace
} // namespace looppoint
