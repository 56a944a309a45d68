/**
 * @file
 * Tests for the slice profiler: slice sizing, (PC, count) boundary
 * semantics, spin filtering, per-thread BBV collection, the stability
 * of boundaries across wait policies, and profiling during the
 * recording at statically predicted markers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "core/looppoint.hh"
#include "dcfg/dcfg.hh"
#include "exec/block_pipe.hh"
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

// ---------------------------------------------------------------------
// Pipelined analysis: with jobs > 1 a cold analyze() records on a
// helper thread and feeds its block events through a BlockPipe to the
// DCFG builder (second helper) and the slice profiler (this thread).
// Its outputs must equal the inline (jobs == 1) analysis bit for bit.
// ---------------------------------------------------------------------

/** analyze() at `jobs` over a fresh store, so every stage hash is
 * computed from this run's own artifacts. */
LoopPointResult
analyzeAtJobs(const Program &p, LoopPointOptions opts, uint32_t jobs,
              const std::string &tag)
{
    opts.jobs = jobs;
    const std::string dir = testing::TempDir() + "lp_pipe_" + tag + "_j" +
                            std::to_string(jobs);
    EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
    ArtifactStore store(dir);
    StageCache cache(store);
    LoopPointPipeline pipe(p, opts);
    pipe.setStageCache(&cache);
    return pipe.analyze();
}

/** analyze() at jobs 1, 2 and 4 agree on slices (map order too),
 * markers, regions, the BIC curve and the stage hashes. */
void
expectJobsInvariant(const Program &p, const LoopPointOptions &opts)
{
    SCOPED_TRACE(p.name);
    const LoopPointResult serial = analyzeAtJobs(p, opts, 1, p.name);
    ASSERT_FALSE(serial.stageHashes.record.empty());
    for (uint32_t jobs : {2u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        const LoopPointResult piped = analyzeAtJobs(p, opts, jobs, p.name);
        expectAnalysisIdentical(serial, piped);
        EXPECT_EQ(serial.pinball, piped.pinball);
        EXPECT_EQ(serial.stageHashes.record, piped.stageHashes.record);
        EXPECT_EQ(serial.stageHashes.profile, piped.stageHashes.profile);
        EXPECT_EQ(serial.stageHashes.cluster, piped.stageHashes.cluster);
    }
}

void
expectSuiteJobsInvariant(const std::vector<AppDescriptor> &apps)
{
    for (const AppDescriptor &app : apps) {
        const Program p = generateProgram(app, InputClass::Train);
        LoopPointOptions opts;
        opts.numThreads = app.effectiveThreads(4);
        opts.sliceSizePerThread = 25'000;
        expectJobsInvariant(p, opts);
    }
}

TEST(PipelinedAnalysis, Spec2017TrainMatchesInlineAtJobs2And4)
{
    expectSuiteJobsInvariant(spec2017Apps());
}

TEST(PipelinedAnalysis, NpbTrainMatchesInlineAtJobs2And4)
{
    expectSuiteJobsInvariant(npbApps());
}

TEST(PipelinedAnalysis, PthreadTrainMatchesInlineAtJobs2And4)
{
    expectSuiteJobsInvariant(pthreadApps());
}

TEST(PipelinedAnalysis, RomsRefMatchesInlineAtJobs2And4)
{
    const AppDescriptor &app = findApp("654.roms_s.1");
    LoopPointOptions opts;
    opts.numThreads = app.effectiveThreads(4);
    expectJobsInvariant(generateProgram(app, InputClass::Ref), opts);
}

TEST(PipelinedAnalysis, TraceNamesTheListenerThreads)
{
    const Program p = generateProgram(findApp("654.roms_s.1"),
                                      InputClass::Test);
    LoopPointOptions opts;
    opts.numThreads = 4;
    opts.sliceSizePerThread = 20'000;
    LoopPointResult lp;
    opts.jobs = 1;
    LoopPointPipeline serial(p, opts);
    EXPECT_NE(tracedAnalyze(serial, lp).find("\"listener_threads\": 0"),
              std::string::npos);
    opts.jobs = 2;
    LoopPointPipeline piped(p, opts);
    const std::string trace = tracedAnalyze(piped, lp);
    EXPECT_NE(trace.find("\"listener_threads\": 2"), std::string::npos);
    EXPECT_NE(trace.find("\"record_wait_s\""), std::string::npos);
    EXPECT_NE(trace.find("\"dcfg_idle_s\""), std::string::npos);
    EXPECT_NE(trace.find("\"profile_idle_s\""), std::string::npos);
}

TEST(PipelinedAnalysis, MarkerMismatchReplaysAtAnyJobs)
{
    const Program p = mispredictedProgram();
    LoopPointOptions opts;
    opts.numThreads = 4;
    opts.sliceSizePerThread = 2'000;
    const LoopPointResult serial = analyzeAtJobs(p, opts, 1, "mismatch");
    for (uint32_t jobs : {2u, 4u}) {
        opts.jobs = jobs;
        LoopPointPipeline pipe(p, opts);
        LoopPointResult lp;
        const std::string trace = tracedAnalyze(pipe, lp);
        EXPECT_NE(trace.find("\"reason\": \"marker_mismatch\""),
                  std::string::npos);
        expectAnalysisIdentical(serial, lp);
    }
}

TEST(PipelinedAnalysis, StorePinballReplaysAtAnyJobs)
{
    const Program p = generateProgram(findApp("654.roms_s.1"),
                                      InputClass::Test);
    LoopPointOptions opts;
    opts.numThreads = 4;
    opts.sliceSizePerThread = 20'000;
    for (uint32_t jobs : {1u, 2u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        opts.jobs = jobs;
        const std::string dir = testing::TempDir() +
                                "lp_pipe_served_j" + std::to_string(jobs);
        ASSERT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
        ArtifactStore store(dir);
        StageCache cache(store);
        LoopPointPipeline cold(p, opts);
        cold.setStageCache(&cache);
        const LoopPointResult cold_lp = cold.analyze();

        // Another slice size: the pinball comes from the store, the
        // slices from a replay.
        LoopPointOptions other = opts;
        other.sliceSizePerThread = 15'000;
        LoopPointPipeline served(p, other);
        served.setStageCache(&cache);
        LoopPointResult served_lp;
        const std::string trace = tracedAnalyze(served, served_lp);
        EXPECT_TRUE(served_lp.stageHashes.recordHit);
        EXPECT_EQ(served_lp.stageHashes.record, cold_lp.stageHashes.record);
        EXPECT_NE(trace.find("\"reason\": \"store_pinball\""),
                  std::string::npos);
        other.jobs = 1;
        expectAnalysisIdentical(served_lp,
                                LoopPointPipeline(p, other).analyze());
    }
}

/**
 * A sink that throws FatalError at its `limit`-th event, after a pause
 * long enough for the recording to fill the ring and wait on it: the
 * failure must wake that wait.
 */
struct FailingSink
{
    uint64_t limit;
    uint64_t seen = 0;

    void
    onBlock(uint32_t, BlockId)
    {
        if (++seen < limit)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        fatal("sink failed at event %llu",
              static_cast<unsigned long long>(seen));
    }
};

struct CountingSink
{
    uint64_t seen = 0;
    void onBlock(uint32_t, BlockId) { ++seen; }
};

/** Record roms train — many more events than the ring holds —
 * through a pipe with the given sinks. */
template <typename HelperSink, typename CallerSink>
void
recordThroughPipe(HelperSink &helper, CallerSink &caller)
{
    static const Program p = generateProgram(findApp("654.roms_s.1"),
                                             InputClass::Train);
    ExecConfig cfg{.numThreads = 4};
    runBlockPipe(
        [&](ExecListener &listener) {
            recordPinball(p, cfg, 1000, &listener);
        },
        helper, caller);
}

TEST(PipelinedAnalysis, HelperThreadFatalErrorReachesTheCaller)
{
    // The failing sink stops draining early, so the recording fills
    // the ring and would wait forever without the abort.
    FailingSink helper{1000};
    CountingSink caller;
    EXPECT_THROW(recordThroughPipe(helper, caller), FatalError);
    EXPECT_EQ(helper.seen, 1000u);
}

TEST(PipelinedAnalysis, CallerSinkFatalErrorStopsTheHelpers)
{
    CountingSink helper;
    FailingSink caller{5000};
    EXPECT_THROW(recordThroughPipe(helper, caller), FatalError);
    EXPECT_EQ(caller.seen, 5000u);
}

TEST(PipelinedAnalysis, RecordingFatalErrorReachesTheCaller)
{
    CountingSink helper, caller;
    std::atomic<uint64_t> emitted{0};
    EXPECT_THROW(runBlockPipe(
                     [&](ExecListener &listener) {
                         const Program p = makeProgram(8, 2);
                         ExecConfig cfg{.numThreads = 2};
                         ExecutionEngine engine(p, cfg);
                         for (uint32_t i = 0;
                              i < 3 * BlockPipe::kChunkEvents; ++i) {
                             listener.onBlock(i % 2, 0, engine);
                             emitted.fetch_add(1);
                         }
                         fatal("recording failed");
                     },
                     helper, caller),
                 FatalError);
    // Whatever the recording queued before failing may or may not
    // have been delivered; nothing beyond it was.
    EXPECT_LE(helper.seen, emitted.load());
    EXPECT_LE(caller.seen, emitted.load());
}

TEST(PipelinedAnalysis, PipeDeliversEveryEventInOrder)
{
    // Both sinks see the inline listener's exact sequence, including a
    // final partial chunk.
    struct Recorder
    {
        std::vector<std::pair<uint32_t, BlockId>> events;
        void onBlock(uint32_t tid, BlockId block)
        {
            events.emplace_back(tid, block);
        }
    };
    const Program p = generateProgram(findApp("654.roms_s.1"),
                                      InputClass::Test);
    ExecConfig cfg{.numThreads = 4};
    struct InlineRecorder : ExecListener
    {
        Recorder r;
        void onBlock(uint32_t tid, BlockId block,
                     const ExecutionEngine &) override
        {
            r.onBlock(tid, block);
        }
    } inline_rec;
    const Pinball want = recordPinball(p, cfg, 1000, &inline_rec);
    ASSERT_GT(inline_rec.r.events.size(), 2u * BlockPipe::kChunkEvents);
    ASSERT_NE(inline_rec.r.events.size() % BlockPipe::kChunkEvents, 0u);

    Recorder helper, caller;
    Pinball got;
    const BlockPipeStats stats = runBlockPipe(
        [&](ExecListener &listener) {
            got = recordPinball(p, cfg, 1000, &listener);
        },
        helper, caller);
    EXPECT_EQ(got, want);
    EXPECT_EQ(helper.events, inline_rec.r.events);
    EXPECT_EQ(caller.events, inline_rec.r.events);
    EXPECT_GE(stats.producerWaitSeconds, 0.0);
    EXPECT_GE(stats.helperIdleSeconds, 0.0);
    EXPECT_GE(stats.callerIdleSeconds, 0.0);
}

} // namespace
} // namespace looppoint
