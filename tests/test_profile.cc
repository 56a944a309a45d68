/**
 * @file
 * Tests for the slice profiler: slice sizing, (PC, count) boundary
 * semantics, spin filtering, per-thread BBV collection, the stability
 * of boundaries across wait policies, and profiling during the
 * recording at statically predicted markers.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "core/looppoint.hh"
#include "dcfg/dcfg.hh"
#include "exec/driver.hh"
#include "exec/engine.hh"
#include "isa/program_builder.hh"
#include "obs/trace.hh"
#include "pinball/pinball.hh"
#include "profile/slicer.hh"
#include "store/artifact_store.hh"
#include "store/stage_cache.hh"
#include "util/logging.hh"
#include "workload/descriptor.hh"

namespace looppoint {
namespace {

Program
makeProgram(uint64_t iters, uint64_t timesteps, double imbalance = 0.0)
{
    ProgramBuilder b("prof-test", 31);
    uint32_t k = b.beginKernel("work", SchedPolicy::StaticFor, iters);
    if (imbalance > 0)
        b.setImbalance(imbalance);
    b.addStream({.footprintBytes = 1 << 16, .strideBytes = 8});
    b.addBlock({.numInstrs = 30, .fracMem = 0.3, .streams = {0}});
    b.endKernel();
    b.runKernels({k}, timesteps);
    return b.build();
}

std::vector<BlockId>
markersOf(const Program &p, uint32_t threads, WaitPolicy policy)
{
    ExecConfig cfg{.numThreads = threads, .waitPolicy = policy};
    ExecutionEngine e(p, cfg);
    DcfgBuilder builder(p, threads);
    RoundRobinDriver d(e, 200);
    d.run(&builder);
    return builder.build().mainImageLoopHeaders();
}

std::vector<SliceRecord>
profileSlices(const Program &p, uint32_t threads, WaitPolicy policy,
              uint64_t slice_size, bool filter = true)
{
    auto markers = markersOf(p, threads, policy);
    ExecConfig cfg{.numThreads = threads, .waitPolicy = policy};
    ExecutionEngine e(p, cfg);
    SliceProfiler profiler(p, markers, slice_size, threads, filter);
    RoundRobinDriver d(e, 200);
    d.run(&profiler);
    profiler.finalize();
    return profiler.slices();
}

TEST(SliceProfiler, SlicesCoverWholeExecution)
{
    Program p = makeProgram(200, 4);
    auto slices = profileSlices(p, 4, WaitPolicy::Passive, 5'000);
    ASSERT_GT(slices.size(), 1u);

    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Passive};
    ExecutionEngine e(p, cfg);
    RoundRobinDriver d(e, 200);
    d.run();

    uint64_t filtered_sum = 0, total_sum = 0;
    for (const auto &s : slices) {
        filtered_sum += s.filteredIcount;
        total_sum += s.totalIcount;
    }
    EXPECT_EQ(filtered_sum, e.globalFilteredIcount());
    EXPECT_EQ(total_sum, e.globalIcount());
}

TEST(SliceProfiler, SliceSizesNearTarget)
{
    Program p = makeProgram(400, 6);
    const uint64_t target = 40'000;
    auto slices = profileSlices(p, 4, WaitPolicy::Passive, target);
    ASSERT_GE(slices.size(), 3u);
    // All but the last slice must be >= target and not wildly larger
    // (the overshoot is bounded by the distance to the next marker).
    for (size_t i = 0; i + 1 < slices.size(); ++i) {
        EXPECT_GE(slices[i].filteredIcount, target);
        EXPECT_LT(slices[i].filteredIcount, target * 3);
    }
}

TEST(SliceProfiler, BoundariesAreMainImageMarkers)
{
    Program p = makeProgram(300, 5);
    auto slices = profileSlices(p, 4, WaitPolicy::Passive, 30'000);
    auto pc_index = buildPcIndex(p);
    for (size_t i = 0; i + 1 < slices.size(); ++i) {
        const Marker &m = slices[i].end;
        EXPECT_FALSE(m.isProgramBoundary());
        ASSERT_TRUE(pc_index.count(m.pc));
        EXPECT_TRUE(p.inMainImage(pc_index[m.pc]));
        EXPECT_GE(m.count, 1u);
        // Consecutive slices share the boundary marker.
        EXPECT_EQ(slices[i].end, slices[i + 1].start);
    }
    EXPECT_TRUE(slices.front().start.isProgramBoundary());
    EXPECT_TRUE(slices.back().end.isProgramBoundary());
}

TEST(SliceProfiler, FilteredCountsExcludeSpin)
{
    Program p = makeProgram(400, 3, /*imbalance=*/1.5);
    auto active = profileSlices(p, 4, WaitPolicy::Active, 30'000);
    auto passive = profileSlices(p, 4, WaitPolicy::Passive, 30'000);

    uint64_t active_filtered = 0, active_total = 0;
    for (const auto &s : active) {
        active_filtered += s.filteredIcount;
        active_total += s.totalIcount;
    }
    uint64_t passive_filtered = 0;
    for (const auto &s : passive)
        passive_filtered += s.filteredIcount;

    // Spin inflates total but not filtered counts; filtered work is
    // identical across policies.
    EXPECT_GT(active_total, active_filtered * 3 / 2);
    EXPECT_EQ(active_filtered, passive_filtered);
}

TEST(SliceProfiler, BoundaryMarkersStableAcrossPolicies)
{
    // The core LoopPoint claim: (PC, count) boundaries computed under
    // one policy identify the same points under the other.
    Program p = makeProgram(500, 4, /*imbalance=*/1.0);
    auto active = profileSlices(p, 4, WaitPolicy::Active, 40'000);
    auto passive = profileSlices(p, 4, WaitPolicy::Passive, 40'000);
    ASSERT_EQ(active.size(), passive.size());
    for (size_t i = 0; i < active.size(); ++i) {
        EXPECT_EQ(active[i].end, passive[i].end) << "slice " << i;
        EXPECT_EQ(active[i].filteredIcount, passive[i].filteredIcount);
    }
}

TEST(SliceProfiler, PerThreadBbvsReflectImbalance)
{
    Program p = makeProgram(600, 2, /*imbalance=*/1.5);
    auto slices = profileSlices(p, 4, WaitPolicy::Passive, 1'000'000);
    ASSERT_GE(slices.size(), 1u);
    const auto &s = slices[0];
    EXPECT_GT(s.threadFilteredIcount[0], s.threadFilteredIcount[3]);
}

TEST(SliceProfiler, UnfilteredModeCountsLibraryCode)
{
    Program p = makeProgram(300, 2, /*imbalance=*/1.0);
    auto filtered =
        profileSlices(p, 4, WaitPolicy::Active, 50'000, true);
    auto unfiltered =
        profileSlices(p, 4, WaitPolicy::Active, 50'000, false);
    uint64_t f = 0, u = 0;
    for (const auto &s : filtered)
        f += s.filteredIcount;
    for (const auto &s : unfiltered)
        u += s.filteredIcount; // "filtered" field counts all code now
    EXPECT_GT(u, f);
}

TEST(SliceProfiler, RejectsLibraryMarkers)
{
    Program p = makeProgram(100, 1);
    EXPECT_THROW(SliceProfiler(p, {p.runtime.spinWait}, 1000, 4),
                 FatalError);
}

TEST(SliceProfiler, RejectsZeroSliceSize)
{
    Program p = makeProgram(100, 1);
    EXPECT_THROW(SliceProfiler(p, {p.kernels[0].workerHeader}, 0, 4),
                 FatalError);
}

TEST(SliceProfiler, MarkerCountsMatchEngineCounts)
{
    Program p = makeProgram(150, 3);
    auto markers = markersOf(p, 2, WaitPolicy::Passive);
    ExecConfig cfg{.numThreads = 2, .waitPolicy = WaitPolicy::Passive};
    ExecutionEngine e(p, cfg);
    SliceProfiler profiler(p, markers, 25'000, 2);
    RoundRobinDriver d(e, 200);
    d.run(&profiler);
    profiler.finalize();
    for (BlockId m : markers)
        EXPECT_EQ(profiler.markerCount(m), e.blockExecCount(m));
}

TEST(PcIndex, MapsEveryBlock)
{
    Program p = makeProgram(10, 1);
    auto index = buildPcIndex(p);
    EXPECT_EQ(index.size(), p.numBlocks());
    for (const auto &bb : p.blocks)
        EXPECT_EQ(index.at(bb.pc), bb.id);
}

// ---------------------------------------------------------------------
// Profiling while recording: analyze() slices the recording at markers
// predicted from the static program and keeps those slices only when
// the prediction equals the DCFG's main-image loop headers.
// ---------------------------------------------------------------------

/** Same slices, same per-thread map contents and iteration order. */
void
expectSlicesIdentical(const std::vector<SliceRecord> &a,
                      const std::vector<SliceRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const SliceRecord &x = a[i];
        const SliceRecord &y = b[i];
        EXPECT_EQ(x.index, y.index) << "slice " << i;
        EXPECT_EQ(x.start, y.start) << "slice " << i;
        EXPECT_EQ(x.end, y.end) << "slice " << i;
        EXPECT_EQ(x.filteredIcount, y.filteredIcount) << "slice " << i;
        EXPECT_EQ(x.totalIcount, y.totalIcount) << "slice " << i;
        EXPECT_EQ(x.threadFilteredIcount, y.threadFilteredIcount)
            << "slice " << i;
        ASSERT_EQ(x.perThread.size(), y.perThread.size());
        for (size_t t = 0; t < x.perThread.size(); ++t) {
            std::vector<std::pair<BlockId, uint64_t>> xs(
                x.perThread[t].counts.begin(),
                x.perThread[t].counts.end());
            std::vector<std::pair<BlockId, uint64_t>> ys(
                y.perThread[t].counts.begin(),
                y.perThread[t].counts.end());
            EXPECT_EQ(xs, ys) << "slice " << i << " thread " << t;
        }
    }
}

/**
 * For every app of `apps` at `input`, each thread count and both wait
 * policies: the static prediction equals the recording's DCFG list,
 * and the slices cut during the recording equal a replay's.
 */
void
expectPredictionHolds(const std::vector<AppDescriptor> &apps,
                      InputClass input,
                      std::initializer_list<uint32_t> thread_counts)
{
    constexpr uint64_t kQuantum = 1000; // LoopPointOptions default
    const uint64_t per_thread = input == InputClass::Test ? 25'000
                                                          : 100'000;
    for (const AppDescriptor &app : apps) {
        const Program p = generateProgram(app, input);
        const std::vector<BlockId> predicted =
            predictMainImageLoopHeaders(p);
        for (WaitPolicy policy : {WaitPolicy::Passive, WaitPolicy::Active})
            for (uint32_t threads : thread_counts) {
                ExecConfig cfg{.numThreads = app.effectiveThreads(threads),
                               .waitPolicy = policy};
                SCOPED_TRACE(p.name + " threads=" +
                             std::to_string(cfg.numThreads) + " " +
                             waitPolicyName(policy));
                const uint64_t slice = per_thread * cfg.numThreads;
                DcfgBuilder dcfg(p, cfg.numThreads);
                SliceProfiler online(p, predicted, slice, cfg.numThreads);
                ListenerPair both(dcfg, online);
                Pinball pb = recordPinball(p, cfg, kQuantum, &both);
                online.finalize();
                ASSERT_EQ(dcfg.build().mainImageLoopHeaders(), predicted);

                SliceProfiler replayed(p, predicted, slice,
                                       cfg.numThreads);
                replayPinball(p, pb, kQuantum, &replayed);
                replayed.finalize();
                expectSlicesIdentical(online.slices(), replayed.slices());
            }
    }
}

TEST(MarkerPrediction, Spec2017TestAndTrain)
{
    expectPredictionHolds(spec2017Apps(), InputClass::Test, {2, 4, 8});
    expectPredictionHolds(spec2017Apps(), InputClass::Train, {2, 4, 8});
}

TEST(MarkerPrediction, NpbTestAndTrain)
{
    expectPredictionHolds(npbApps(), InputClass::Test, {2, 4, 8});
    expectPredictionHolds(npbApps(), InputClass::Train, {2, 4, 8});
}

TEST(MarkerPrediction, PthreadTestAndTrain)
{
    expectPredictionHolds(pthreadApps(), InputClass::Test, {2, 4, 8});
    expectPredictionHolds(pthreadApps(), InputClass::Train, {2, 4, 8});
}

TEST(MarkerPrediction, BackToBackKernelsAtRef)
{
    // At ref the run list repeats these apps' one kernel back to back,
    // so the entry block heads a loop too.
    expectPredictionHolds({findApp("npb-is"), findApp("pt-workqueue")},
                          InputClass::Ref, {4});
}

/**
 * Two kernels in alternation; `once` runs a single iteration per
 * invocation, so its worker header never loops although the static
 * rule predicts that it does.
 */
Program
mispredictedProgram()
{
    ProgramBuilder b("mispredicted", 41);
    uint32_t once = b.beginKernel("once", SchedPolicy::StaticFor, 1);
    b.addStream({.footprintBytes = 1 << 14, .strideBytes = 8});
    b.addBlock({.numInstrs = 40, .fracMem = 0.3, .streams = {0}});
    b.endKernel();
    uint32_t work = b.beginKernel("work", SchedPolicy::StaticFor, 64);
    b.addStream({.footprintBytes = 1 << 16, .strideBytes = 8});
    b.addBlock({.numInstrs = 30, .fracMem = 0.3, .streams = {0}});
    b.endKernel();
    b.runKernels({once, work}, 12);
    return b.build();
}

/** Trace JSON of one analyze() call. */
std::string
tracedAnalyze(LoopPointPipeline &pipe, LoopPointResult &out)
{
    Tracer &tracer = Tracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    out = pipe.analyze();
    std::ostringstream os;
    tracer.writeChromeTrace(os);
    tracer.setEnabled(false);
    tracer.clear();
    return os.str();
}

void
expectAnalysisIdentical(const LoopPointResult &a, const LoopPointResult &b)
{
    expectSlicesIdentical(a.slices, b.slices);
    EXPECT_EQ(a.chosenK, b.chosenK);
    EXPECT_EQ(a.bicByK, b.bicByK);
    EXPECT_EQ(a.assignment, b.assignment);
    ASSERT_EQ(a.regions.size(), b.regions.size());
    for (size_t i = 0; i < a.regions.size(); ++i) {
        EXPECT_EQ(a.regions[i].start, b.regions[i].start);
        EXPECT_EQ(a.regions[i].end, b.regions[i].end);
        EXPECT_EQ(a.regions[i].multiplier, b.regions[i].multiplier);
    }
}

TEST(MarkerPrediction, MispredictionFallsBackToReplay)
{
    const Program p = mispredictedProgram();
    LoopPointOptions opts;
    opts.numThreads = 4;
    opts.sliceSizePerThread = 2'000;
    ExecConfig cfg{.numThreads = opts.numThreads,
                   .waitPolicy = opts.waitPolicy, .seed = opts.seed};

    // The DCFG drops the `once` kernel's worker header.
    DcfgBuilder dcfg(p, cfg.numThreads);
    Pinball pb = recordPinball(p, cfg, opts.flowQuantum, &dcfg);
    const std::vector<BlockId> markers =
        dcfg.build().mainImageLoopHeaders();
    ASSERT_EQ(markers, std::vector<BlockId>{p.kernels[1].workerHeader});
    ASSERT_NE(predictMainImageLoopHeaders(p), markers);

    LoopPointPipeline pipe(p, opts);
    LoopPointResult lp;
    const std::string trace = tracedAnalyze(pipe, lp);
    EXPECT_NE(trace.find("\"profile\": 0"), std::string::npos);
    EXPECT_NE(trace.find("\"reason\": \"marker_mismatch\""),
              std::string::npos);

    // The slices are the replay's at the DCFG's markers.
    SliceProfiler replayed(p, markers,
                           opts.sliceSizePerThread * opts.numThreads,
                           opts.numThreads);
    replayPinball(p, pb, opts.flowQuantum, &replayed);
    replayed.finalize();
    expectSlicesIdentical(lp.slices, replayed.slices());
}

TEST(MarkerPrediction, StorePinballReplaysToTheSameAnalysis)
{
    const AppDescriptor &app = findApp("654.roms_s.1");
    const Program p = generateProgram(app, InputClass::Test);
    LoopPointOptions opts;
    opts.numThreads = 4;
    opts.sliceSizePerThread = 20'000;

    const std::string dir = testing::TempDir() + "lp_marker_store";
    ASSERT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
    ArtifactStore store(dir);
    StageCache cache(store);

    // A cold run profiles while recording: no replay.
    LoopPointPipeline cold(p, opts);
    cold.setStageCache(&cache);
    LoopPointResult cold_lp;
    const std::string cold_trace = tracedAnalyze(cold, cold_lp);
    EXPECT_NE(cold_trace.find("\"profile\": 1"), std::string::npos);
    EXPECT_EQ(cold_trace.find("\"analyze.profile\""), std::string::npos);
    LoopPointResult plain = LoopPointPipeline(p, opts).analyze();
    expectAnalysisIdentical(cold_lp, plain);

    // Another slice size reuses the stored pinball but not the
    // profile: the slices come from a replay, equal to a fresh run's.
    opts.sliceSizePerThread = 15'000;
    LoopPointPipeline served(p, opts);
    served.setStageCache(&cache);
    LoopPointResult served_lp;
    const std::string served_trace = tracedAnalyze(served, served_lp);
    EXPECT_TRUE(served_lp.stageHashes.recordHit);
    EXPECT_FALSE(served_lp.stageHashes.profileHit);
    EXPECT_NE(served_trace.find("\"reason\": \"store_pinball\""),
              std::string::npos);
    expectAnalysisIdentical(served_lp,
                            LoopPointPipeline(p, opts).analyze());
}

} // namespace
} // namespace looppoint
