/**
 * @file
 * Equivalence tests for the hot-path optimizations: every fast path
 * (shift/mask recency-ordered caches, the mask-filtered cache
 * hierarchy, the event-driven detailed scheduler, dense slice
 * accumulation, devirtualized region stop conditions) is checked
 * bit-identical against its reference implementation — exact equality
 * on every counter and double, never EXPECT_NEAR. Also covers the
 * evicted-line optional at address 0, a save/load round trip taken
 * while a thread is blocked mid-wait, and the memory-ref-driven warm
 * loop against the instruction walk it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/looppoint.hh"
#include "dcfg/dcfg.hh"
#include "exec/driver.hh"
#include "exec/engine.hh"
#include "isa/program_builder.hh"
#include "profile/slicer.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/core_model.hh"
#include "sim/multicore.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "workload/descriptor.hh"

namespace looppoint {

/**
 * The original scan-based detailed scheduler, kept as the oracle for
 * MulticoreSim's event-driven one: each step scans every core for the
 * runnable thread with the smallest core-local time (ties to the
 * lowest tid), and every step rescans sleepers for wake-ups.
 */
struct MulticoreSimPeer
{
    static SimMetrics
    runReference(MulticoreSim &sim, const std::function<bool()> &stop)
    {
        // Align clocks and reset statistics at the region start.
        sim.hierarchy.resetStats();
        for (auto &core : sim.cores) {
            core.resetTime();
            core.resetStats();
        }
        ExecutionEngine &eng = sim.eng;
        auto &cores = sim.cores;
        const uint32_t num_threads = sim.numThreads;
        const uint64_t icount_base = eng.globalIcount();
        const uint64_t filtered_base = eng.globalFilteredIcount();

        std::vector<char> asleep(num_threads, 0);
        bool done = false;
        while (!done) {
            // Pick the runnable thread with the smallest core time.
            uint32_t best = num_threads;
            uint64_t best_time = std::numeric_limits<uint64_t>::max();
            for (uint32_t tid = 0; tid < num_threads; ++tid) {
                if (eng.finished(tid) || asleep[tid])
                    continue;
                if (!eng.runnable(tid)) {
                    asleep[tid] = 1;
                    continue;
                }
                uint64_t t = cores[tid].time();
                if (t < best_time) {
                    best_time = t;
                    best = tid;
                }
            }
            if (best == num_threads) {
                if (eng.allFinished())
                    break;
                // Everyone is asleep or finished: wake the runnable
                // ones (a prior step may have released them).
                bool woke = false;
                for (uint32_t tid = 0; tid < num_threads; ++tid) {
                    if (asleep[tid] && eng.runnable(tid)) {
                        asleep[tid] = 0;
                        woke = true;
                    }
                }
                if (!woke)
                    panic("reference scheduler: deadlock");
                continue;
            }

            StepResult r = eng.step(best);
            switch (r.kind) {
              case StepResult::Kind::Block: {
                cores[best].executeBlock(sim.prog->blocks[r.block],
                                         eng.memRefs(best),
                                         eng.branchTaken(best));
                // Wake threads this step may have released; they
                // resume at the waker's current time.
                uint64_t now = cores[best].time();
                for (uint32_t tid = 0; tid < num_threads; ++tid) {
                    if (asleep[tid] && eng.runnable(tid)) {
                        asleep[tid] = 0;
                        cores[tid].advanceTo(now);
                    }
                }
                if (stop && stop())
                    done = true;
                break;
              }
              case StepResult::Kind::Blocked:
                asleep[best] = 1;
                break;
              case StepResult::Kind::Finished:
                break;
            }
        }
        return sim.collectMetrics(icount_base, filtered_base);
    }
};

namespace {

/** The reference scheduler until `block` has run `count` times. */
SimMetrics
runReferenceUntil(MulticoreSim &sim, BlockId block, uint64_t count)
{
    const ExecutionEngine &eng = sim.engine();
    return MulticoreSimPeer::runReference(sim, [&] {
        return eng.blockExecCount(block) >= count;
    });
}

void
expectMetricsIdentical(const SimMetrics &a, const SimMetrics &b,
                       const char *what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.filteredInstructions, b.filteredInstructions) << what;
    EXPECT_EQ(a.runtimeSeconds, b.runtimeSeconds) << what;
    EXPECT_EQ(a.branches, b.branches) << what;
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts) << what;
    EXPECT_EQ(a.l1dAccesses, b.l1dAccesses) << what;
    EXPECT_EQ(a.l1dMisses, b.l1dMisses) << what;
    EXPECT_EQ(a.l2Accesses, b.l2Accesses) << what;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << what;
    EXPECT_EQ(a.l3Accesses, b.l3Accesses) << what;
    EXPECT_EQ(a.l3Misses, b.l3Misses) << what;
}

// ---------------------------------------------------------------------
// Golden metrics: the full pipeline under the reference scan scheduler
// must match the event-driven scheduler bit for bit, at any jobs count.
// ---------------------------------------------------------------------

struct PipelineOutput
{
    LoopPointResult lp;
    LoopPointPipeline::CheckpointedSimResult ckpt;
    MetricPrediction pred;
};

/**
 * Region metrics the plain serial way, under the reference scheduler:
 * one warming pass stops at each region start in program order, and
 * each region simulates from a deep copy of the warmed sim.
 */
std::vector<SimMetrics>
referenceRegionMetrics(const Program &prog, const LoopPointOptions &opts,
                       const LoopPointResult &lp, const SimConfig &sim_cfg)
{
    ExecConfig exec_cfg;
    exec_cfg.numThreads = opts.numThreads;
    exec_cfg.waitPolicy = opts.waitPolicy;
    exec_cfg.seed = opts.seed;
    std::vector<size_t> order(lp.regions.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return lp.regions[a].sliceIndex < lp.regions[b].sliceIndex;
    });
    const auto pc_index = buildPcIndex(prog);
    MulticoreSim warming(prog, exec_cfg, sim_cfg);
    std::vector<SimMetrics> metrics(lp.regions.size());
    for (size_t idx : order) {
        const LoopPointRegion &r = lp.regions[idx];
        if (r.start.pc != 0 && r.start.count > 0)
            warming.fastForwardUntil(pc_index.at(r.start.pc),
                                     r.start.count, /*warm=*/true);
        MulticoreSim region(warming);
        metrics[idx] =
            r.end.pc == 0
                ? MulticoreSimPeer::runReference(region, {})
                : runReferenceUntil(region, pc_index.at(r.end.pc),
                                    r.end.count);
    }
    return metrics;
}

PipelineOutput
runPipeline(const char *app_name, uint32_t jobs, bool reference)
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
    if (reference)
        out.ckpt.regionMetrics =
            referenceRegionMetrics(prog, opts, out.lp, sim_cfg);
    else
        out.ckpt = pipe.simulateRegionsCheckpointed(out.lp, sim_cfg);
    out.pred =
        extrapolateMetrics(out.lp, out.ckpt.regionMetrics, sim_cfg);
    return out;
}

void
expectPipelineIdentical(const PipelineOutput &a, const PipelineOutput &b)
{
    // Slice boundaries and BBVs.
    ASSERT_EQ(a.lp.slices.size(), b.lp.slices.size());
    for (size_t i = 0; i < a.lp.slices.size(); ++i) {
        const SliceRecord &sa = a.lp.slices[i];
        const SliceRecord &sb = b.lp.slices[i];
        EXPECT_EQ(sa.start, sb.start) << "slice " << i;
        EXPECT_EQ(sa.end, sb.end) << "slice " << i;
        EXPECT_EQ(sa.filteredIcount, sb.filteredIcount) << "slice " << i;
        EXPECT_EQ(sa.totalIcount, sb.totalIcount) << "slice " << i;
        EXPECT_EQ(sa.perThread, sb.perThread) << "slice " << i;
    }

    // Clustering and region selection.
    EXPECT_EQ(a.lp.chosenK, b.lp.chosenK);
    EXPECT_EQ(a.lp.assignment, b.lp.assignment);
    ASSERT_EQ(a.lp.regions.size(), b.lp.regions.size());
    for (size_t i = 0; i < a.lp.regions.size(); ++i) {
        EXPECT_EQ(a.lp.regions[i].start, b.lp.regions[i].start);
        EXPECT_EQ(a.lp.regions[i].end, b.lp.regions[i].end);
        EXPECT_EQ(a.lp.regions[i].multiplier,
                  b.lp.regions[i].multiplier);
    }

    // Per-region detailed metrics: every field, exactly.
    ASSERT_EQ(a.ckpt.regionMetrics.size(), b.ckpt.regionMetrics.size());
    for (size_t i = 0; i < a.ckpt.regionMetrics.size(); ++i)
        expectMetricsIdentical(a.ckpt.regionMetrics[i],
                               b.ckpt.regionMetrics[i], "region");

    // Extrapolated prediction: byte-identical doubles.
    EXPECT_EQ(a.pred.runtimeSeconds, b.pred.runtimeSeconds);
    EXPECT_EQ(a.pred.cycles, b.pred.cycles);
    EXPECT_EQ(a.pred.instructions, b.pred.instructions);
    EXPECT_EQ(a.pred.filteredInstructions, b.pred.filteredInstructions);
    EXPECT_EQ(a.pred.branchMispredicts, b.pred.branchMispredicts);
    EXPECT_EQ(a.pred.l1dMisses, b.pred.l1dMisses);
    EXPECT_EQ(a.pred.l2Misses, b.pred.l2Misses);
    EXPECT_EQ(a.pred.l3Misses, b.pred.l3Misses);
}

TEST(HotpathGolden, Pop2ReferenceVsOptimizedJobsOneAndFour)
{
    PipelineOutput ref = runPipeline("628.pop2_s.1", 1, true);
    PipelineOutput opt1 = runPipeline("628.pop2_s.1", 1, false);
    PipelineOutput opt4 = runPipeline("628.pop2_s.1", 4, false);
    expectPipelineIdentical(ref, opt1);
    expectPipelineIdentical(ref, opt4);
}

TEST(HotpathGolden, RomsReferenceVsOptimized)
{
    PipelineOutput ref = runPipeline("654.roms_s.1", 1, true);
    PipelineOutput opt = runPipeline("654.roms_s.1", 4, false);
    expectPipelineIdentical(ref, opt);
}

// ---------------------------------------------------------------------
// Scheduler equivalence at the MulticoreSim level: full runs and
// region runs under both wait policies.
// ---------------------------------------------------------------------

Program
syncHeavyProgram(uint64_t iters, uint64_t timesteps)
{
    ProgramBuilder b("hotpath-test", 23);
    uint32_t k = b.beginKernel("work", SchedPolicy::DynamicFor, iters);
    b.addStream({.footprintBytes = 1 << 18, .strideBytes = 8});
    b.addBlock({.numInstrs = 24, .fracMem = 0.4, .streams = {0}});
    b.addCond({.numInstrs = 6, .streams = {}},
              {.numInstrs = 14, .streams = {0}},
              {.numInstrs = 10, .streams = {0}},
              {.numInstrs = 4, .streams = {}}, 0.4);
    b.addCritical(0, {.numInstrs = 12, .streams = {0}});
    b.endKernel();
    b.runKernels({k}, timesteps);
    return b.build();
}

SimMetrics
runScheduler(const Program &p, WaitPolicy policy, uint32_t threads,
             bool reference)
{
    ExecConfig cfg{.numThreads = threads, .waitPolicy = policy};
    MulticoreSim sim(p, cfg, SimConfig{});
    return reference ? MulticoreSimPeer::runReference(sim, {}) : sim.run();
}

TEST(HotpathScheduler, FullRunMatchesReferencePassive)
{
    Program p = syncHeavyProgram(96, 3);
    SimMetrics ref = runScheduler(p, WaitPolicy::Passive, 4, true);
    SimMetrics opt = runScheduler(p, WaitPolicy::Passive, 4, false);
    expectMetricsIdentical(ref, opt, "passive full run");
}

TEST(HotpathScheduler, FullRunMatchesReferenceActive)
{
    Program p = syncHeavyProgram(96, 3);
    SimMetrics ref = runScheduler(p, WaitPolicy::Active, 4, true);
    SimMetrics opt = runScheduler(p, WaitPolicy::Active, 4, false);
    expectMetricsIdentical(ref, opt, "active full run");
}

TEST(HotpathScheduler, SingleThreadMatchesReference)
{
    Program p = syncHeavyProgram(64, 2);
    SimMetrics ref = runScheduler(p, WaitPolicy::Passive, 1, true);
    SimMetrics opt = runScheduler(p, WaitPolicy::Passive, 1, false);
    expectMetricsIdentical(ref, opt, "single thread");
}

TEST(HotpathScheduler, RegionRunMatchesReference)
{
    Program p = syncHeavyProgram(256, 3);
    const BlockId wh = p.kernels[0].workerHeader;
    const Addr wh_pc = p.blocks[wh].pc;
    ExecConfig cfg{.numThreads = 4, .waitPolicy = WaitPolicy::Passive};

    MulticoreSim ref_sim(p, cfg, SimConfig{});
    ref_sim.fastForwardUntil(wh, 256, /*warm=*/true);
    SimMetrics ref = runReferenceUntil(ref_sim, wh, 640);
    SimMetrics opt = MulticoreSim(p, cfg, SimConfig{})
                         .runRegion(wh_pc, 256, wh_pc, 640, true);
    expectMetricsIdentical(ref, opt, "warmed region");
}

// ---------------------------------------------------------------------
// Slicer equivalence: dense epoch-stamped accumulation vs direct
// per-slice hash maps — contents AND iteration order.
// ---------------------------------------------------------------------

Program
profileProgram(uint64_t iters, uint64_t timesteps)
{
    ProgramBuilder b("hotpath-prof", 31);
    uint32_t k = b.beginKernel("work", SchedPolicy::StaticFor, iters);
    b.addStream({.footprintBytes = 1 << 16, .strideBytes = 8});
    b.addBlock({.numInstrs = 30, .fracMem = 0.3, .streams = {0}});
    b.addCond({.numInstrs = 8, .streams = {}},
              {.numInstrs = 12, .streams = {0}},
              {.numInstrs = 9, .streams = {0}},
              {.numInstrs = 5, .streams = {}}, 0.3);
    b.endKernel();
    b.runKernels({k}, timesteps);
    return b.build();
}

/**
 * Reference slicer: the same marker-bounded slicing as SliceProfiler,
 * but counting each filtered block directly into the current slice's
 * per-thread hash maps.
 */
class RefSliceProfiler : public ExecListener
{
  public:
    RefSliceProfiler(const Program &p, const std::vector<BlockId> &markers,
                     uint64_t slice_size, uint32_t threads)
        : prog(p), isMarker(p.numBlocks(), 0),
          markerCounts(p.numBlocks(), 0), sliceTarget(slice_size),
          numThreads(threads)
    {
        for (BlockId b : markers)
            isMarker[b] = 1;
        begin(Marker{0, 0});
    }

    void
    onBlock(uint32_t tid, BlockId block, const ExecutionEngine &) override
    {
        const uint32_t instrs = prog.instrCounts[block];
        if (isMarker[block]) {
            if (current.filteredIcount >= sliceTarget) {
                Marker boundary{prog.blocks[block].pc,
                                markerCounts[block] + 1};
                close(boundary);
                begin(boundary);
            }
            ++markerCounts[block];
        }
        current.totalIcount += instrs;
        if (prog.mainImageFlags[block]) {
            current.perThread[tid].add(block);
            current.threadFilteredIcount[tid] += instrs;
            current.filteredIcount += instrs;
        }
    }

    std::vector<SliceRecord>
    finish()
    {
        if (current.filteredIcount > 0 || current.totalIcount > 0 ||
            slices.empty())
            close(Marker{0, 0});
        return std::move(slices);
    }

  private:
    void
    begin(const Marker &start)
    {
        current = SliceRecord{};
        current.index = slices.size();
        current.start = start;
        current.perThread.assign(numThreads, ThreadBbv{});
        current.threadFilteredIcount.assign(numThreads, 0);
    }

    void
    close(const Marker &end)
    {
        current.end = end;
        slices.push_back(std::move(current));
    }

    const Program &prog;
    std::vector<char> isMarker;
    std::vector<uint64_t> markerCounts;
    uint64_t sliceTarget;
    uint32_t numThreads;
    SliceRecord current;
    std::vector<SliceRecord> slices;
};

void
runPassive(const Program &p, uint32_t threads, ExecListener &listener)
{
    ExecConfig cfg{.numThreads = threads,
                   .waitPolicy = WaitPolicy::Passive};
    ExecutionEngine e(p, cfg);
    RoundRobinDriver d(e, 200);
    d.run(&listener);
}

TEST(HotpathSlicer, DenseAccumulationMatchesReference)
{
    Program p = profileProgram(300, 4);
    DcfgBuilder builder(p, 4);
    runPassive(p, 4, builder);
    const auto markers = builder.build().mainImageLoopHeaders();

    RefSliceProfiler ref_profiler(p, markers, 5'000, 4);
    runPassive(p, 4, ref_profiler);
    auto ref = ref_profiler.finish();

    SliceProfiler profiler(p, markers, 5'000, 4);
    runPassive(p, 4, profiler);
    profiler.finalize();
    auto fast = profiler.slices();

    ASSERT_EQ(ref.size(), fast.size());
    ASSERT_GT(ref.size(), 1u);
    for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(ref[i].start, fast[i].start) << "slice " << i;
        EXPECT_EQ(ref[i].end, fast[i].end) << "slice " << i;
        EXPECT_EQ(ref[i].filteredIcount, fast[i].filteredIcount);
        EXPECT_EQ(ref[i].totalIcount, fast[i].totalIcount);
        EXPECT_EQ(ref[i].threadFilteredIcount,
                  fast[i].threadFilteredIcount);
        ASSERT_EQ(ref[i].perThread.size(), fast[i].perThread.size());
        for (size_t t = 0; t < ref[i].perThread.size(); ++t) {
            // Same contents...
            EXPECT_EQ(ref[i].perThread[t], fast[i].perThread[t])
                << "slice " << i << " thread " << t;
            // ...and the same hash-map iteration order. Downstream
            // feature projection sums doubles in iteration order, so
            // order equality is what makes the fast path bit-identical
            // end to end, not just count-equal.
            std::vector<BlockId> ref_order, fast_order;
            for (const auto &[b, n] : ref[i].perThread[t].counts)
                ref_order.push_back(b);
            for (const auto &[b, n] : fast[i].perThread[t].counts)
                fast_order.push_back(b);
            EXPECT_EQ(ref_order, fast_order)
                << "slice " << i << " thread " << t;
        }
    }
}

// ---------------------------------------------------------------------
// Cache property test: the shift/mask, recency-ordered cache against
// a straightforward modulo-indexed timestamp-LRU reference model.
// ---------------------------------------------------------------------

/** Textbook set-associative LRU: modulo set index, timestamp scan. */
class RefLruCache
{
  public:
    explicit RefLruCache(const CacheConfig &cfg_)
        : cfg(cfg_), numSets(cfg.sizeBytes / (cfg.lineBytes * cfg.assoc)),
          lines(static_cast<size_t>(numSets) * cfg.assoc)
    {}

    bool
    access(Addr addr, uint32_t core, std::optional<Addr> *evicted)
    {
        ++accesses;
        const uint64_t line = addr / cfg.lineBytes;
        Line *s = setOf(line);
        for (uint32_t w = 0; w < cfg.assoc; ++w) {
            if (s[w].valid && s[w].tag == line) {
                s[w].lru = ++clock;
                s[w].sharers |= (1ull << core);
                return true;
            }
        }
        ++misses;
        uint32_t victim = cfg.assoc;
        for (uint32_t w = 0; w < cfg.assoc; ++w) {
            if (!s[w].valid) {
                victim = w;
                break;
            }
        }
        if (victim == cfg.assoc) {
            victim = 0;
            for (uint32_t w = 1; w < cfg.assoc; ++w)
                if (s[w].lru < s[victim].lru)
                    victim = w;
            if (evicted)
                *evicted = s[victim].tag * cfg.lineBytes;
        }
        s[victim] = Line{line, ++clock, 1ull << core, true};
        return false;
    }

    std::optional<Addr>
    fill(Addr addr, uint32_t core)
    {
        const uint64_t line = addr / cfg.lineBytes;
        Line *s = setOf(line);
        for (uint32_t w = 0; w < cfg.assoc; ++w) {
            if (s[w].valid && s[w].tag == line) {
                s[w].sharers |= (1ull << core);
                return std::nullopt;
            }
        }
        std::optional<Addr> evicted;
        uint32_t victim = cfg.assoc;
        for (uint32_t w = 0; w < cfg.assoc; ++w) {
            if (!s[w].valid) {
                victim = w;
                break;
            }
        }
        if (victim == cfg.assoc) {
            victim = 0;
            for (uint32_t w = 1; w < cfg.assoc; ++w)
                if (s[w].lru < s[victim].lru)
                    victim = w;
            evicted = s[victim].tag * cfg.lineBytes;
        }
        s[victim] = Line{line, ++clock, 1ull << core, true};
        return evicted;
    }

    bool
    invalidate(Addr addr)
    {
        const uint64_t line = addr / cfg.lineBytes;
        Line *s = setOf(line);
        for (uint32_t w = 0; w < cfg.assoc; ++w) {
            if (s[w].valid && s[w].tag == line) {
                s[w] = Line{};
                ++invalidations;
                return true;
            }
        }
        return false;
    }

    bool
    contains(Addr addr) const
    {
        const uint64_t line = addr / cfg.lineBytes;
        const Line *s = setOf(line);
        for (uint32_t w = 0; w < cfg.assoc; ++w)
            if (s[w].valid && s[w].tag == line)
                return true;
        return false;
    }

    uint64_t
    sharers(Addr addr) const
    {
        const uint64_t line = addr / cfg.lineBytes;
        const Line *s = setOf(line);
        for (uint32_t w = 0; w < cfg.assoc; ++w)
            if (s[w].valid && s[w].tag == line)
                return s[w].sharers;
        return 0;
    }

    void
    removeSharer(Addr addr, uint32_t core)
    {
        const uint64_t line = addr / cfg.lineBytes;
        Line *s = setOf(line);
        for (uint32_t w = 0; w < cfg.assoc; ++w)
            if (s[w].valid && s[w].tag == line)
                s[w].sharers &= ~(1ull << core);
    }

    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lru = 0;
        uint64_t sharers = 0;
        bool valid = false;
    };

    Line *setOf(uint64_t line)
    {
        return &lines[static_cast<size_t>(line % numSets) * cfg.assoc];
    }
    const Line *setOf(uint64_t line) const
    {
        return &lines[static_cast<size_t>(line % numSets) * cfg.assoc];
    }

    CacheConfig cfg;
    uint32_t numSets;
    std::vector<Line> lines;
    uint64_t clock = 0;
};

TEST(HotpathCache, PropertyMatchesReferenceLru)
{
    // Small geometry so sets fill and evict constantly: 4 sets, 4-way.
    // The address pool spans 32 distinct lines (8 lines per set) and
    // includes line 0, so the evicted-optional-at-address-0 case is
    // exercised, not just constructed.
    const CacheConfig geo{1024, 4, 64, 1};
    Cache opt(geo);
    RefLruCache ref(geo);
    Rng rng(12345);

    for (int step = 0; step < 20'000; ++step) {
        const Addr addr = rng.nextBounded(32) * 64 + rng.nextBounded(64);
        const uint32_t core = static_cast<uint32_t>(rng.nextBounded(4));
        const uint64_t op = rng.nextBounded(10);
        if (op < 7) {
            std::optional<Addr> ev_opt, ev_ref;
            const bool is_write = rng.nextBounded(2) != 0;
            const bool hit_opt = opt.access(addr, core, is_write, &ev_opt);
            const bool hit_ref = ref.access(addr, core, &ev_ref);
            ASSERT_EQ(hit_opt, hit_ref) << "step " << step;
            ASSERT_EQ(ev_opt.has_value(), ev_ref.has_value())
                << "step " << step;
            if (ev_opt) {
                ASSERT_EQ(*ev_opt, *ev_ref) << "step " << step;
            }
        } else if (op < 8) {
            ASSERT_EQ(opt.fill(addr, core), ref.fill(addr, core))
                << "step " << step;
        } else if (op < 9) {
            ASSERT_EQ(opt.invalidate(addr), ref.invalidate(addr))
                << "step " << step;
        } else {
            ASSERT_EQ(opt.contains(addr), ref.contains(addr))
                << "step " << step;
            ASSERT_EQ(opt.sharers(addr), ref.sharers(addr))
                << "step " << step;
        }
    }
    EXPECT_EQ(opt.stats().accesses, ref.accesses);
    EXPECT_EQ(opt.stats().misses, ref.misses);
    EXPECT_EQ(opt.stats().invalidations, ref.invalidations);
}

TEST(HotpathCache, EvictedOptionalDisambiguatesLineZero)
{
    // One set, two ways: lines 0x0, 0x40, 0x80 all collide. Evicting
    // the line at address 0 must yield an *engaged* optional holding 0,
    // distinguishable from "nothing evicted".
    Cache c(CacheConfig{128, 2, 64, 1});
    EXPECT_FALSE(c.access(0x00, 0, false, nullptr));
    EXPECT_FALSE(c.access(0x40, 0, false, nullptr));

    std::optional<Addr> evicted;
    EXPECT_FALSE(c.access(0x80, 0, false, &evicted));
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 0u);
    EXPECT_FALSE(c.contains(0x00));

    // Same through the prefetch-fill path.
    Cache f(CacheConfig{128, 2, 64, 1});
    EXPECT_FALSE(f.fill(0x00, 0).has_value()); // invalid way: no victim
    EXPECT_FALSE(f.fill(0x40, 0).has_value());
    EXPECT_FALSE(f.fill(0x40, 1).has_value()); // resident: no victim
    std::optional<Addr> ev = f.fill(0x80, 0);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(*ev, 0u);
    EXPECT_FALSE(f.contains(0x00));
}

// ---------------------------------------------------------------------
// Hierarchy oracle: CacheHierarchy (packed tags, L3-only sharer masks,
// mask-filtered back-invalidation) against a textbook hierarchy built
// from RefLruCache that back-invalidates by scanning every private
// cache on every core.
// ---------------------------------------------------------------------

class RefHierarchy
{
  public:
    RefHierarchy(const SimConfig &cfg_, uint32_t num_cores)
        : l3(cfg_.l3), cfg(cfg_)
    {
        for (uint32_t c = 0; c < num_cores; ++c) {
            l1d.emplace_back(cfg.l1d);
            l1i.emplace_back(cfg.l1i);
            l2.emplace_back(cfg.l2);
        }
    }

    MemAccessResult
    access(uint32_t core, Addr addr, bool is_write)
    {
        MemAccessResult r = lookup(l1d[core], cfg.l1d.latency, core, addr);
        if (is_write) {
            // Write-invalidate: other sharers lose their data copies.
            for (uint32_t c = 0; c < l1d.size(); ++c) {
                if (c == core || !((l3.sharers(addr) >> c) & 1))
                    continue;
                l1d[c].invalidate(addr);
                l2[c].invalidate(addr);
                l3.removeSharer(addr, c);
            }
        }
        if (cfg.prefetchDegree > 0 && r.hitLevel >= 3 && !is_write) {
            for (uint32_t d = 1; d <= cfg.prefetchDegree; ++d) {
                const Addr pf = addr + d * cfg.l2.lineBytes;
                if (auto ev = l3.fill(pf, core))
                    backInvalidate(*ev);
                l2[core].fill(pf, core);
                ++prefetches;
            }
        }
        return r;
    }

    MemAccessResult
    fetch(uint32_t core, Addr pc)
    {
        return lookup(l1i[core], cfg.l1i.latency, core, pc);
    }

    std::vector<RefLruCache> l1d, l1i, l2;
    RefLruCache l3;
    uint64_t memAccesses = 0;
    uint64_t prefetches = 0;

  private:
    MemAccessResult
    lookup(RefLruCache &l1, uint32_t l1_latency, uint32_t core, Addr addr)
    {
        MemAccessResult r;
        std::optional<Addr> ev;
        r.latency = l1_latency;
        r.hitLevel = 1;
        if (l1.access(addr, core, nullptr))
            return r;
        r.latency += cfg.l2.latency;
        r.hitLevel = 2;
        if (l2[core].access(addr, core, nullptr))
            return r;
        r.latency += cfg.l3.latency;
        r.hitLevel = 3;
        if (l3.access(addr, core, &ev))
            return r;
        r.latency += cfg.memLatency;
        r.hitLevel = 4;
        ++memAccesses;
        if (ev)
            backInvalidate(*ev);
        return r;
    }

    void
    backInvalidate(Addr addr)
    {
        for (uint32_t c = 0; c < l1d.size(); ++c) {
            l1d[c].invalidate(addr);
            l1i[c].invalidate(addr);
            l2[c].invalidate(addr);
        }
    }

    SimConfig cfg;
};

void
expectStatsEqual(const CacheStats &opt, const RefLruCache &ref,
                 const std::string &what)
{
    EXPECT_EQ(opt.accesses, ref.accesses) << what;
    EXPECT_EQ(opt.misses, ref.misses) << what;
    EXPECT_EQ(opt.invalidations, ref.invalidations) << what;
}

TEST(HotpathCache, HierarchyMatchesReference)
{
    // Tiny geometries so the L3 (16 lines) evicts constantly and
    // back-invalidation runs on most misses. Instruction fetches and
    // data accesses share one 48-line pool, so writes hit lines other
    // cores hold in L1-I — the case where a sharer bit cleared by a
    // write would hide a live L1-I copy from a mask-filtered
    // back-invalidation.
    SimConfig cfg;
    cfg.l1i = CacheConfig{256, 2, 64, 1};
    cfg.l1d = CacheConfig{256, 2, 64, 3};
    cfg.l2 = CacheConfig{512, 2, 64, 9};
    cfg.l3 = CacheConfig{1024, 4, 64, 34};
    cfg.prefetchDegree = 2;
    const uint32_t cores = 4;
    const uint64_t pool_lines = 48;
    CacheHierarchy opt(cfg, cores);
    RefHierarchy ref(cfg, cores);
    Rng rng(2024);

    for (int step = 0; step < 200'000; ++step) {
        const Addr addr =
            rng.nextBounded(pool_lines) * 64 + rng.nextBounded(64);
        const uint32_t core = static_cast<uint32_t>(rng.nextBounded(cores));
        const uint64_t op = rng.nextBounded(10);
        MemAccessResult a, b;
        if (op < 4) {
            a = opt.fetch(core, addr);
            b = ref.fetch(core, addr);
        } else {
            const bool is_write = op >= 7;
            a = opt.access(core, addr, is_write);
            b = ref.access(core, addr, is_write);
        }
        ASSERT_EQ(a.hitLevel, b.hitLevel) << "step " << step;
        ASSERT_EQ(a.latency, b.latency) << "step " << step;
    }

    EXPECT_EQ(opt.memAccesses(), ref.memAccesses);
    EXPECT_EQ(opt.prefetchesIssued(), ref.prefetches);
    EXPECT_GT(opt.l3Stats().misses, 10'000u);
    for (uint32_t c = 0; c < cores; ++c) {
        const std::string core = " core " + std::to_string(c);
        expectStatsEqual(opt.l1dStats(c), ref.l1d[c], "l1d" + core);
        expectStatsEqual(opt.l1iStats(c), ref.l1i[c], "l1i" + core);
        expectStatsEqual(opt.l2Stats(c), ref.l2[c], "l2" + core);
        EXPECT_GT(opt.l1iStats(c).invalidations, 0u) << core;
    }
    expectStatsEqual(opt.l3Stats(), ref.l3, "l3");
    // The prefetcher reaches up to two lines past the pool.
    for (uint64_t line = 0; line < pool_lines + cfg.prefetchDegree;
         ++line) {
        const Addr addr = line * 64;
        for (uint32_t c = 0; c < cores; ++c) {
            EXPECT_EQ(opt.l1dCache(c).contains(addr),
                      ref.l1d[c].contains(addr))
                << "l1d core " << c << " line " << line;
            EXPECT_EQ(opt.l1iCache(c).contains(addr),
                      ref.l1i[c].contains(addr))
                << "l1i core " << c << " line " << line;
            EXPECT_EQ(opt.l2Cache(c).contains(addr),
                      ref.l2[c].contains(addr))
                << "l2 core " << c << " line " << line;
        }
        EXPECT_EQ(opt.l3Cache().contains(addr), ref.l3.contains(addr))
            << "l3 line " << line;
    }
}

// ---------------------------------------------------------------------
// Checkpoint round trip while a thread is blocked mid-wait.
// ---------------------------------------------------------------------

/** Per-thread executed-block streams. */
class BlockCollector : public ExecListener
{
  public:
    explicit BlockCollector(uint32_t num_threads) : streams(num_threads)
    {}

    void
    onBlock(uint32_t tid, BlockId block,
            const ExecutionEngine &engine) override
    {
        (void)engine;
        streams[tid].push_back(block);
    }

    std::vector<std::vector<BlockId>> streams;
};

TEST(HotpathCheckpoint, SaveLoadWhileBlockedMidWait)
{
    // Critical sections + end-of-kernel barriers under the passive
    // policy guarantee threads genuinely block (step() == Blocked).
    Program p = syncHeavyProgram(64, 3);
    const uint32_t threads = 4;
    ExecConfig cfg{.numThreads = threads,
                   .waitPolicy = WaitPolicy::Passive};
    ExecutionEngine e(p, cfg);

    // Step round-robin until some thread reports Blocked — it is then
    // parked on a lock or barrier, the state the checkpoint must
    // capture (wait kind, wake bookkeeping, partial barrier arrivals).
    bool blocked = false;
    for (int round = 0; round < 100'000 && !blocked; ++round) {
        for (uint32_t tid = 0; tid < threads; ++tid) {
            if (e.finished(tid))
                continue;
            if (e.step(tid).kind == StepResult::Kind::Blocked) {
                blocked = true;
                break;
            }
        }
        ASSERT_FALSE(e.allFinished())
            << "program ended before any thread blocked";
    }
    ASSERT_TRUE(blocked);

    std::stringstream ss;
    e.save(ss);
    ExecutionEngine restored = ExecutionEngine::load(ss, p);

    // Both engines must now produce the same continuation under the
    // same schedule: identical per-thread block streams and counters.
    BlockCollector ce(threads), cr(threads);
    RoundRobinDriver de(e, 200);
    de.run(&ce);
    RoundRobinDriver dr(restored, 200);
    dr.run(&cr);

    EXPECT_TRUE(e.allFinished());
    EXPECT_TRUE(restored.allFinished());
    EXPECT_EQ(ce.streams, cr.streams);
    EXPECT_EQ(e.globalIcount(), restored.globalIcount());
    EXPECT_EQ(e.globalFilteredIcount(),
              restored.globalFilteredIcount());
    for (uint32_t tid = 0; tid < threads; ++tid) {
        EXPECT_EQ(e.icount(tid), restored.icount(tid)) << tid;
        EXPECT_EQ(e.filteredIcount(tid), restored.filteredIcount(tid))
            << tid;
    }
    for (BlockId b = 0; b < p.numBlocks(); ++b)
        EXPECT_EQ(e.blockExecCount(b), restored.blockExecCount(b)) << b;
}


// ---------------------------------------------------------------------
// The warm loop: CoreModel::warmBlockVia is driven by the engine's
// memory refs and the block's branch list. The instruction walk it
// replaced is the oracle: same cache image, same predictor image.
// ---------------------------------------------------------------------

/**
 * The original warm loop: walk every instruction; a memory op issues
 * the next ref if it belongs to that instruction, with the op's
 * direction; a branch trains the predictor at its own pc.
 */
void
instructionWalkWarm(CacheHierarchy &mem, PentiumMBranchPredictor &bp,
                    uint32_t core, const BasicBlock &bb,
                    const std::vector<MemRef> &refs, bool branch_taken)
{
    mem.fetch(core, bb.pc);
    size_t ref_cursor = 0;
    for (size_t i = 0; i < bb.instrs.size(); ++i) {
        const InstrDesc &d = bb.instrs[i];
        if (isMemOp(d.op)) {
            if (ref_cursor < refs.size() &&
                refs[ref_cursor].instrIndex == i) {
                mem.access(core, refs[ref_cursor].addr, isMemWrite(d.op));
                ++ref_cursor;
            }
        } else if (d.op == OpClass::Branch) {
            bp.predictAndTrain(bb.pc + 4 * static_cast<Addr>(i),
                               branch_taken);
        }
    }
}

/** Two warm states fed the same blocks: CoreModel's and the oracle's. */
struct WarmPair
{
    WarmPair(const SimConfig &cfg_, uint32_t cores)
        : cfg(cfg_), fast(cfg_, cores), oracle(cfg_, cores),
          oracleBp(cores)
    {
        models.reserve(cores);
        for (uint32_t c = 0; c < cores; ++c)
            models.emplace_back(cfg, c, fast);
    }

    WarmPair(const WarmPair &) = delete;
    WarmPair &operator=(const WarmPair &) = delete;

    void
    warm(uint32_t core, const BasicBlock &bb,
         const std::vector<MemRef> &refs, bool taken)
    {
        models[core].warmBlock(bb, refs, taken);
        instructionWalkWarm(oracle, oracleBp[core], core, bb, refs, taken);
    }

    static std::vector<unsigned char>
    image(const CacheHierarchy &h)
    {
        std::vector<unsigned char> bytes(h.stateBytes());
        h.exportState(bytes.data());
        return bytes;
    }

    static std::vector<unsigned char>
    image(const PentiumMBranchPredictor &bp)
    {
        std::vector<unsigned char> bytes(bp.stateBytes());
        bp.exportState(bytes.data());
        return bytes;
    }

    void
    expectEqual() const
    {
        EXPECT_TRUE(image(fast) == image(oracle)) << "cache image";
        for (uint32_t c = 0; c < models.size(); ++c) {
            EXPECT_TRUE(image(models[c].predictor()) == image(oracleBp[c]))
                << "predictor image of core " << c;
            EXPECT_EQ(models[c].branchStats().branches,
                      oracleBp[c].stats().branches);
            EXPECT_EQ(models[c].branchStats().mispredicts,
                      oracleBp[c].stats().mispredicts);
            EXPECT_EQ(fast.l1dStats(c).accesses,
                      oracle.l1dStats(c).accesses);
            EXPECT_EQ(fast.l1dStats(c).misses, oracle.l1dStats(c).misses);
            EXPECT_EQ(fast.l2Stats(c).misses, oracle.l2Stats(c).misses);
        }
        EXPECT_EQ(fast.l3Stats().misses, oracle.l3Stats().misses);
    }

    SimConfig cfg;
    CacheHierarchy fast;
    CacheHierarchy oracle;
    std::vector<PentiumMBranchPredictor> oracleBp;
    std::vector<CoreModel> models; ///< bound to `fast`
};

/** Warms a WarmPair from every block of an execution. */
class WarmPairListener : public ExecListener
{
  public:
    explicit WarmPairListener(WarmPair &pair) : w(pair) {}

    void
    onBlock(uint32_t tid, BlockId block,
            const ExecutionEngine &engine) override
    {
        w.warm(tid, engine.program().blocks[block], engine.memRefs(tid),
               engine.branchTaken(tid));
        ++blocks;
    }

    uint64_t blocks = 0;

  private:
    WarmPair &w;
};

TEST(WarmBlock, RefWalkEqualsInstructionWalk)
{
    // Small caches so evictions and back-invalidations are frequent.
    SimConfig cfg;
    cfg.l1i = CacheConfig{1024, 2, 64, 1};
    cfg.l1d = CacheConfig{1024, 2, 64, 3};
    cfg.l2 = CacheConfig{4096, 4, 64, 9};
    cfg.l3 = CacheConfig{16384, 8, 64, 34};
    for (const auto *suite : {&spec2017Apps(), &npbApps(), &pthreadApps()})
        for (const AppDescriptor &app : *suite) {
            const Program p = generateProgram(app, InputClass::Test);
            SCOPED_TRACE(p.name);
            ExecConfig exec{.numThreads = app.effectiveThreads(4),
                            .waitPolicy = WaitPolicy::Active,
                            .genAddresses = true};
            WarmPair pair(cfg, exec.numThreads);
            WarmPairListener listener(pair);
            ExecutionEngine e(p, exec);
            RoundRobinDriver d(e, 1000);
            d.run(&listener);
            ASSERT_GT(listener.blocks, 0u);
            pair.expectEqual();
        }
}

TEST(WarmBlock, MidBlockBranchesTrainAtTheirOwnPcs)
{
    // A hand-built block with branches in the middle and at the end,
    // and memory ops on both sides of them.
    Program p;
    BasicBlock bb;
    bb.id = 0;
    bb.pc = 0x401000;
    for (OpClass op :
         {OpClass::IntAlu, OpClass::Load, OpClass::Branch, OpClass::Store,
          OpClass::Load, OpClass::Branch, OpClass::AtomicRmw,
          OpClass::IntAlu, OpClass::Branch})
        bb.instrs.push_back(InstrDesc{.op = op});
    p.blocks.push_back(bb);
    p.finalizeDerived();
    const BasicBlock &block = p.blocks[0];
    ASSERT_EQ(block.branches, (std::vector<uint16_t>{2, 5, 8}));
    ASSERT_EQ(block.memOps.size(), 4u);

    SimConfig cfg;
    cfg.l1d = CacheConfig{1024, 2, 64, 3};
    cfg.l2 = CacheConfig{2048, 2, 64, 9};
    cfg.l3 = CacheConfig{4096, 4, 64, 34};
    WarmPair pair(cfg, 2);
    Rng rng(7);
    std::vector<MemRef> refs;
    for (int step = 0; step < 20'000; ++step) {
        refs.clear();
        for (const BlockMemOp &op : block.memOps)
            refs.push_back({0x10000000 + 8 * rng.nextBounded(4096),
                            op.index, op.isWrite});
        pair.warm(step % 2, block, refs, rng.nextBool(0.7));
    }
    pair.expectEqual();
}

} // namespace
} // namespace looppoint
