/**
 * @file
 * End-to-end LoopPoint benchmark program.
 *
 * Runs one named workload through the public library API for a fixed
 * time budget, checks the simulated outputs against recorded
 * fingerprints, and prints every metric by name. Untraced iterations
 * call the product path: runExperiment() once per point, as a
 * run_looppoint or campaign job does. Traced iterations run the same
 * work through a mirror of runExperiment() with the analysis
 * decomposed into the calls analyze() makes into each layer, every
 * call wrapped in a span kept in memory; their outputs must equal the
 * untraced ones bit for bit. See README.md for the workloads and the
 * metric -> layer -> workload table.
 *
 *   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
 *             [--workload-seed W] [--expected FILE]
 *
 * Two seeds: --workload-seed is forwarded to LoopPointOptions::seed
 * and so defines the simulated inputs (default 42, the pipeline's);
 * --seed orders the sweep's points and changes no simulated output.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cluster/kmeans.hh"
#include "core/experiment.hh"
#include "core/looppoint.hh"
#include "dcfg/dcfg.hh"
#include "pinball/pinball.hh"
#include "profile/bbv.hh"
#include "profile/slicer.hh"
#include "sim/multicore.hh"
#include "store/artifact_store.hh"
#include "store/stage_cache.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/sha1.hh"
#include "util/stats.hh"
#include "util/thread_pool.hh"
#include "workload/descriptor.hh"

using namespace looppoint;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

// The guard: timings from a debug or instrumented build mislead.
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
constexpr bool kOptimizedBuild = false;
#else
constexpr bool kOptimizedBuild = true;
#endif
#if LPBENCH_SANITIZED || defined(__SANITIZE_ADDRESS__) ||                \
    defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = false;
#endif
#else
constexpr bool kSanitizedBuild = false;
#endif

/** Simulated (guest) threads of every workload. */
constexpr uint32_t kSimThreads = 4;
/** Host workers for the parallel phases (capped at nproc). */
constexpr uint32_t kHostJobs = 2;
/** Stand-alone setups per setup_s sample: one sample is the mean of a
 * batch, and a batch runs before every run. */
constexpr int kSetupBatch = 200;
/** Scratch directory (stores, span files), relative to the checkout. */
constexpr const char *kWorkDir = ".bench_work";
/**
 * Reconciliation tolerance: in a traced iteration, the self times of
 * the layer spans inside a stage must add up to the stage's wall time
 * to within this share of it (or kReconFloorSeconds, for stages of a
 * few milliseconds). The remainder is benchmark glue between calls.
 */
constexpr double kReconTolerance = 0.02;
constexpr double kReconFloorSeconds = 0.002;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> xs)
{
    return xs.empty() ? 0.0 : percentile(std::move(xs), 50.0);
}

std::string
fmt17(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------------
// Spans: name, start, end, parent. Kept in memory, written at the end.

struct Span
{
    std::string name; ///< "stage.<x>", "run", or "<layer>.<op>"
    int parent = -1;
    int point = -1; ///< sweep point index, -1 outside points
    double start = 0.0;
    double end = 0.0;
    /** Duration reported by the layer itself (placed at the parent's
     * start); its interval is nominal. */
    bool derived = false;
};

class SpanLog
{
  public:
    explicit SpanLog(bool on_) : on(on_), epoch(Clock::now()) {}

    bool enabled() const { return on; }

    int
    open(const std::string &name)
    {
        if (!on)
            return -1;
        Span s;
        s.name = name;
        s.parent = stack.empty() ? -1 : stack.back();
        s.point = point;
        s.start = now();
        spans.push_back(std::move(s));
        stack.push_back(static_cast<int>(spans.size()) - 1);
        return stack.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans[id].end = now();
        LP_ASSERT(!stack.empty() && stack.back() == id);
        stack.pop_back();
    }

    /** A child of `parent` whose duration the layer measured. */
    void
    derived(int parent, const std::string &name, double seconds)
    {
        if (parent < 0)
            return;
        Span s;
        s.name = name;
        s.parent = parent;
        s.point = point;
        s.start = spans[parent].start;
        s.end = s.start + seconds;
        s.derived = true;
        spans.push_back(std::move(s));
    }

    /** RAII span around one call into a layer. */
    class Scope
    {
      public:
        Scope(SpanLog &log_, const std::string &name)
            : log(&log_), id(log_.open(name))
        {
        }
        ~Scope() { log->close(id); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log;
        int id;
    };

    std::vector<Span> spans;
    int point = -1;

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - epoch)
            .count();
    }

    bool on;
    Clock::time_point epoch;
    std::vector<int> stack;
};

double
duration(const Span &s)
{
    return s.end - s.start;
}

// ---------------------------------------------------------------------
// Workloads.

struct Workload
{
    std::string name;
    std::string app;
    InputClass input;
    /** Run the full detailed reference simulation per point. */
    bool reference;
    /** Uarch presets, one point each; a sweep runs them twice
     * against one store that starts empty. */
    std::vector<std::string> presets;
    bool sweep;
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> list = {
        {"validate-lbm-train", "619.lbm_s.1", InputClass::Train, true,
         {"baseline"}, false},
        {"analyze-roms-ref", "654.roms_s.1", InputClass::Ref, false,
         {"baseline"}, false},
        {"sweep-roms-train", "654.roms_s.1", InputClass::Train, true,
         {"baseline", "big-l2", "small-rob", "slow-mem", "prefetch",
          "narrow", "inorder"},
         true},
    };
    return list;
}

struct Options
{
    std::string workload;
    uint64_t seed = 42;
    uint64_t workloadSeed = 42;
    double seconds = 10.0;
    bool trace = false;
    uint32_t jobs = kHostJobs; ///< resolved against nproc at start
    std::string expectedPath;
};

// ---------------------------------------------------------------------
// One prediction point and one whole run.

struct PointResult
{
    std::string preset;
    double pointSeconds = 0.0; ///< whole point, all stages
    double predictSeconds = 0.0;
    double referenceSeconds = -1.0; ///< < 0: no reference ran
    bool analysisHit = false;
    bool simHit = false;
    bool referenceHit = false;
    double errorPct = 0.0;
    std::string fingerprint;
    size_t regions = 0;
    size_t failedRegions = 0;
    double coverage = 1.0;
    // Checkpointed phase (when computed, not store-served).
    bool phaseRan = false;
    double warmPassSeconds = 0.0;
    double phaseSeconds = 0.0;
    double hostSpeedup = 0.0;
    std::vector<double> regionSeconds;
    uint64_t regionInstructions = 0;
    uint64_t referenceInstructions = 0;
    double l2Mpki = 0.0;
    double branchMpki = 0.0;
    // Analysis shape (for per-layer rates).
    uint64_t totalIcount = 0;
    size_t slices = 0;
    uint32_t chosenK = 0;
};

struct RunResult
{
    double runSeconds = 0.0;
    std::vector<PointResult> points;
    StoreStats store;
    /** Pass-1 points, concatenated: the run's output fingerprint. */
    std::string fingerprint;
    std::vector<std::string> problems;
    // Probes (traced runs only; outside the run's wall time).
    double ffMips = 0.0;
    double warmMips = 0.0;
    double snapshotSeconds = 0.0;
    double snapshotMb = 0.0;
};

void
appendMetrics(std::string &fp, const char *tag, const SimMetrics &m)
{
    fp += tag;
    for (double v : {static_cast<double>(m.cycles),
                     static_cast<double>(m.instructions),
                     static_cast<double>(m.filteredInstructions),
                     m.runtimeSeconds, static_cast<double>(m.branches),
                     static_cast<double>(m.branchMispredicts),
                     static_cast<double>(m.l1dAccesses),
                     static_cast<double>(m.l1dMisses),
                     static_cast<double>(m.l2Accesses),
                     static_cast<double>(m.l2Misses),
                     static_cast<double>(m.l3Accesses),
                     static_cast<double>(m.l3Misses)}) {
        fp += ' ';
        fp += fmt17(v);
    }
    fp += '\n';
}

std::string
fingerprintPoint(const std::string &preset, const LoopPointResult &lp,
                 const std::vector<SimMetrics> &region_metrics,
                 const MetricPrediction &pred, const SimMetrics *ref)
{
    std::string fp = "point " + preset + " k " +
                     std::to_string(lp.chosenK) + "\n";
    for (size_t i = 0; i < lp.regions.size(); ++i) {
        fp += "region " + std::to_string(lp.regions[i].sliceIndex) +
              " " + fmt17(lp.regions[i].multiplier);
        appendMetrics(fp, "", region_metrics[i]);
    }
    fp += "prediction";
    for (double v : {pred.coverage, pred.runtimeSeconds, pred.cycles,
                     pred.instructions, pred.filteredInstructions,
                     pred.branchMispredicts, pred.l1dMisses,
                     pred.l2Misses, pred.l3Misses}) {
        fp += ' ';
        fp += fmt17(v);
    }
    fp += '\n';
    if (ref)
        appendMetrics(fp, "reference", *ref);
    return fp;
}

/**
 * Point order of one sweep pass. The first pass always starts with
 * the workload's first preset (the cold point that computes the
 * analysis); the rest, and the whole second pass, are shuffled by the
 * run seed. Order changes no simulated output.
 */
std::vector<std::string>
sweepOrder(const Workload &w, int pass, uint64_t seed)
{
    std::vector<std::string> order = w.presets;
    const size_t fixed = pass == 0 ? 1 : 0;
    uint64_t state = hashCombine(seed, static_cast<uint64_t>(pass));
    for (size_t i = order.size(); i > fixed + 1; --i) {
        state = hashCombine(state, i);
        const size_t j = fixed + state % (i - fixed);
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

/** The sweep's store; it starts empty in every run. */
fs::path
storeDir()
{
    return fs::path(kWorkDir) / ("store-" + std::to_string(::getpid()));
}

/**
 * One untraced point: runExperiment(), the call a run_looppoint or
 * campaign job makes, configured as the workload's point.
 */
PointResult
runProductPoint(const Workload &w, const Options &opt,
                const std::string &preset)
{
    ExperimentConfig cfg;
    cfg.app = w.app;
    cfg.input = w.input;
    cfg.requestedThreads = kSimThreads;
    applyUarchPreset(cfg.sim, preset);
    cfg.loopPoint.seed = opt.workloadSeed;
    cfg.jobs = opt.jobs;
    cfg.simulateFull = w.reference;
    if (w.sweep)
        cfg.storeDir = storeDir().string();

    PointResult p;
    p.preset = preset;
    const auto t0 = Clock::now();
    const ExperimentResult res = runExperiment(cfg);
    p.pointSeconds = secondsSince(t0);
    p.predictSeconds = p.pointSeconds - res.wallFullSeconds;
    p.phaseSeconds = res.wallPhaseSeconds;
    p.analysisHit = res.analysis.stageHashes.clusterHit;
    p.simHit = res.simStageHit;
    p.referenceHit = res.fullSimHit;
    if (res.haveFullSim) {
        p.referenceSeconds = res.wallFullSeconds;
        p.errorPct = res.runtimeErrorPct;
    }
    p.regions = res.analysis.regions.size();
    p.failedRegions = res.failedRegions;
    p.coverage = res.coverage;
    p.fingerprint =
        fingerprintPoint(preset, res.analysis, res.regionMetrics,
                         res.predicted, res.haveFullSim ? &res.fullSim
                                                        : nullptr);
    return p;
}

/** Everything a traced run needs that outlives a point. */
struct RunContext
{
    const Workload &w;
    const Options &opt;
    SpanLog &log;
    std::unique_ptr<Program> prog;
    LoopPointOptions lpOpts;
    std::unique_ptr<LoopPointPipeline> pipe;
    std::unique_ptr<ArtifactStore> store;
    std::unique_ptr<StageCache> cache;
    std::unique_ptr<ThreadPool> pool; ///< traced analysis only
};

ExecConfig
execConfigOf(const LoopPointOptions &o)
{
    ExecConfig cfg;
    cfg.numThreads = o.numThreads;
    cfg.waitPolicy = o.waitPolicy;
    cfg.seed = o.seed;
    return cfg;
}

/**
 * LoopPointPipeline::analyze(), decomposed into the calls it makes
 * into each layer so that each call can be timed from outside. The
 * traced run's outputs must equal the untraced (runExperiment()) run's,
 * so a drift between the two shows up as a fingerprint mismatch.
 */
LoopPointResult
analyzeLayered(RunContext &rc)
{
    SpanLog &log = rc.log;
    const Program &prog = *rc.prog;
    const LoopPointOptions &o = rc.lpOpts;
    StageCache *cache = rc.cache.get();
    const ExecConfig cfg = execConfigOf(o);
    LoopPointResult out;

    std::string key;
    if (cache) {
        key = StageCache::recordKey(prog.name, o);
        std::optional<StageCache::PinballHit> hit;
        {
            SpanLog::Scope s(log, "store.load");
            hit = cache->loadPinball(key);
        }
        if (hit && hit->pinball.programName == prog.name &&
            hit->pinball.config == cfg) {
            out.pinball = std::move(hit->pinball);
            out.stageHashes.record = std::move(hit->hash);
            out.stageHashes.recordHit = true;
        }
    }
    if (!out.stageHashes.recordHit) {
        {
            SpanLog::Scope s(log, "pinball.record");
            out.pinball = recordPinball(prog, cfg, o.flowQuantum);
        }
        if (cache) {
            SpanLog::Scope s(log, "store.publish");
            out.stageHashes.record =
                cache->publishPinball(key, out.pinball);
        }
    }

    std::string profile_key;
    if (cache && !out.stageHashes.record.empty()) {
        profile_key = StageCache::profileKey(out.stageHashes.record, o);
        std::optional<StageCache::SlicesHit> hit;
        {
            SpanLog::Scope s(log, "store.load");
            hit = cache->loadSlices(profile_key);
        }
        if (hit) {
            out.slices = std::move(hit->slices);
            out.stageHashes.profile = std::move(hit->hash);
            out.stageHashes.profileHit = true;
        }
    }
    if (!out.stageHashes.profileHit) {
        std::vector<BlockId> markers;
        {
            SpanLog::Scope s(log, "dcfg.build");
            DcfgBuilder builder(prog, cfg.numThreads);
            replayPinball(prog, out.pinball, o.flowQuantum, &builder);
            markers = builder.build().mainImageLoopHeaders();
        }
        if (markers.empty())
            fatal("program '%s' exposes no loop headers",
                  prog.name.c_str());
        {
            SpanLog::Scope s(log, "profile.slice");
            SliceProfiler profiler(prog, markers,
                                   o.sliceSizePerThread * cfg.numThreads,
                                   cfg.numThreads, o.filterSpin);
            replayPinball(prog, out.pinball, o.flowQuantum, &profiler);
            profiler.finalize();
            out.slices = profiler.slices();
        }
        if (cache) {
            SpanLog::Scope s(log, "store.publish");
            out.stageHashes.profile =
                cache->publishSlices(profile_key, out.slices);
        }
    }
    for (const auto &s : out.slices) {
        out.totalFilteredIcount += s.filteredIcount;
        out.totalIcount += s.totalIcount;
    }

    std::string cluster_key;
    if (cache && !out.stageHashes.profile.empty()) {
        cluster_key = StageCache::clusterKey(out.stageHashes.profile, o);
        std::optional<StageCache::ClusterHit> hit;
        {
            SpanLog::Scope s(log, "store.load");
            hit = cache->loadCluster(cluster_key);
        }
        if (hit && hit->art.assignment.size() == out.slices.size() &&
            !hit->art.regions.empty()) {
            out.assignment = std::move(hit->art.assignment);
            out.chosenK = hit->art.chosenK;
            out.bicByK = std::move(hit->art.bicByK);
            out.regions = std::move(hit->art.regions);
            out.stageHashes.cluster = std::move(hit->hash);
            out.stageHashes.clusterHit = true;
            return out;
        }
    }

    FeatureMatrix features;
    {
        SpanLog::Scope s(log, "cluster.project");
        if (!rc.pool && ThreadPool::resolveWorkers(o.jobs) > 1)
            rc.pool = std::make_unique<ThreadPool>(
                ThreadPool::resolveWorkers(o.jobs));
        features = buildFeatureMatrix(prog, out.slices, o.projectionDims,
                                      o.seed, rc.pool.get());
    }
    ClusteringResult clustering;
    {
        SpanLog::Scope s(log, "cluster.sweep");
        clustering = simpointCluster(features, o.maxK,
                                     hashCombine(o.seed, 0xc1u),
                                     o.bicThreshold, rc.pool.get());
    }
    {
        SpanLog::Scope s(log, "cluster.select");
        out.clusterSerialSeconds = clustering.candidateWallSeconds;
        out.clusterWallSeconds = clustering.sweepWallSeconds;
        out.assignment = clustering.best.assignment;
        out.chosenK = clustering.chosenK;
        for (const auto &kb : clustering.bicByK)
            out.bicByK.push_back(kb.second);
        std::vector<uint32_t> reps =
            pickRepresentatives(features, clustering.best);
        // analyze()'s startup-transient guard: slice 0 never
        // represents a multi-member cluster.
        for (uint32_t c = 0; c < clustering.best.k; ++c) {
            if (reps[c] != 0)
                continue;
            size_t alt = nearestMemberToCentroid(features,
                                                 clustering.best, c, 0);
            if (alt != features.size())
                reps[c] = static_cast<uint32_t>(alt);
        }
        std::vector<uint64_t> work(out.chosenK, 0);
        for (size_t i = 0; i < out.slices.size(); ++i)
            work[out.assignment[i]] += out.slices[i].filteredIcount;
        for (uint32_t c = 0; c < out.chosenK; ++c) {
            const SliceRecord &rep = out.slices[reps[c]];
            if (rep.filteredIcount == 0)
                continue;
            LoopPointRegion r;
            r.cluster = c;
            r.sliceIndex = reps[c];
            r.start = rep.start;
            r.end = rep.end;
            r.filteredIcount = rep.filteredIcount;
            r.multiplier = static_cast<double>(work[c]) /
                           static_cast<double>(rep.filteredIcount);
            out.regions.push_back(r);
        }
    }
    if (cache) {
        SpanLog::Scope s(log, "store.publish");
        out.stageHashes.cluster = cache->publishCluster(
            cluster_key,
            {out.assignment, out.chosenK, out.bicByK, out.regions});
    }
    return out;
}

/** Set up a run: program generation, pipeline, store. */
double
setUp(RunContext &rc)
{
    const Workload &w = rc.w;
    SpanLog &log = rc.log;
    const fs::path store_dir = storeDir();
    if (w.sweep)
        fs::remove_all(store_dir);
    const auto t0 = Clock::now();
    const int stage = log.open("stage.setup");
    const AppDescriptor &app = findApp(w.app);
    {
        SpanLog::Scope s(log, "workload.generate");
        rc.prog = std::make_unique<Program>(generateProgram(app, w.input));
    }
    rc.lpOpts = LoopPointOptions{};
    rc.lpOpts.numThreads = app.effectiveThreads(kSimThreads);
    rc.lpOpts.seed = rc.opt.workloadSeed;
    rc.lpOpts.jobs = rc.opt.jobs;
    {
        SpanLog::Scope s(log, "core.pipeline");
        rc.pipe = std::make_unique<LoopPointPipeline>(*rc.prog, rc.lpOpts);
    }
    if (w.sweep) {
        SpanLog::Scope s(log, "store.open");
        rc.store = std::make_unique<ArtifactStore>(store_dir.string());
        rc.cache = std::make_unique<StageCache>(*rc.store);
    }
    log.close(stage);
    return secondsSince(t0);
}

/**
 * One traced point: runExperiment()'s flow (analysis, the store's
 * sim-stage memo, the checkpointed phase, Eq. 1, the full-simulation
 * memo) on the run's shared context, every call into a layer wrapped
 * in a span.
 */
PointResult
runTracedPoint(RunContext &rc, const std::string &preset,
               LoopPointResult *keep_analysis)
{
    SpanLog &log = rc.log;
    StageCache *cache = rc.cache.get();
    PointResult p;
    p.preset = preset;
    SimConfig sim;
    applyUarchPreset(sim, preset);
    sim.jobs = rc.opt.jobs;

    const auto t_point = Clock::now();
    LoopPointResult lp;
    {
        SpanLog::Scope stage(log, "stage.analysis");
        lp = analyzeLayered(rc);
    }
    p.analysisHit = lp.stageHashes.clusterHit;
    p.totalIcount = lp.totalIcount;
    p.slices = lp.slices.size();
    p.chosenK = lp.chosenK;
    p.regions = lp.regions.size();

    std::vector<SimMetrics> metrics;
    std::vector<uint8_t> ok_mask;
    {
        SpanLog::Scope stage(log, "stage.checkpointed");
        std::string sim_key;
        if (cache && !lp.stageHashes.cluster.empty()) {
            sim_key = StageCache::simKey(lp.stageHashes.cluster, sim,
                                         false);
            std::optional<std::vector<RunJournal::Record>> recs;
            {
                SpanLog::Scope s(log, "store.load");
                recs = cache->loadSimResults(sim_key, lp.regions);
            }
            if (recs) {
                p.simHit = true;
                for (const auto &rec : *recs)
                    metrics.push_back(rec.metrics);
                ok_mask.assign(lp.regions.size(), 1);
            }
        }
        if (!p.simHit) {
            const int phase = log.open("core.phase");
            auto ckpt = rc.pipe->simulateRegionsCheckpointed(lp, sim);
            log.derived(phase, "sim.warm", ckpt.checkpointWallSeconds);
            log.close(phase);
            p.phaseRan = true;
            p.warmPassSeconds = ckpt.checkpointWallSeconds;
            p.phaseSeconds = ckpt.phaseWallSeconds;
            p.hostSpeedup = ckpt.hostParallelSpeedup();
            p.regionSeconds = ckpt.regionWallSeconds;
            p.coverage = ckpt.coverage;
            p.failedRegions = ckpt.failedRegions();
            ok_mask = ckpt.okMask();
            metrics = std::move(ckpt.regionMetrics);
            uint64_t l2 = 0, br = 0;
            for (const auto &m : metrics) {
                p.regionInstructions += m.instructions;
                l2 += m.l2Misses;
                br += m.branchMispredicts;
            }
            if (p.regionInstructions) {
                p.l2Mpki = 1000.0 * static_cast<double>(l2) /
                           static_cast<double>(p.regionInstructions);
                p.branchMpki = 1000.0 * static_cast<double>(br) /
                               static_cast<double>(p.regionInstructions);
            }
            if (cache && !sim_key.empty() && p.coverage == 1.0 &&
                p.failedRegions == 0) {
                std::vector<RunJournal::Record> recs;
                for (size_t i = 0; i < lp.regions.size(); ++i) {
                    RunJournal::Record rec;
                    rec.regionIndex = static_cast<uint32_t>(i);
                    rec.start = lp.regions[i].start;
                    rec.end = lp.regions[i].end;
                    rec.multiplier = lp.regions[i].multiplier;
                    rec.attempts =
                        std::max(1u, ckpt.regionOutcomes[i].attempts);
                    rec.metrics = metrics[i];
                    recs.push_back(rec);
                }
                SpanLog::Scope s(log, "store.publish");
                cache->publishSimResults(sim_key, recs);
            }
        }
    }
    MetricPrediction pred;
    {
        SpanLog::Scope stage(log, "stage.extrapolate");
        SpanLog::Scope s(log, "core.extrapolate");
        pred = extrapolateMetrics(lp, metrics, ok_mask, sim);
    }
    p.predictSeconds = secondsSince(t_point);

    std::optional<SimMetrics> ref;
    if (rc.w.reference) {
        const auto t0 = Clock::now();
        SpanLog::Scope stage(log, "stage.reference");
        std::string full_key;
        if (cache) {
            full_key = StageCache::fullSimKey(
                rc.prog->name, rc.lpOpts.numThreads, rc.lpOpts.waitPolicy,
                rc.lpOpts.seed, sim);
            SpanLog::Scope s(log, "store.load");
            ref = cache->loadFullSim(full_key);
            p.referenceHit = ref.has_value();
        }
        if (!ref) {
            {
                SpanLog::Scope s(log, "sim.detailed");
                ref = rc.pipe->simulateFull(sim);
            }
            p.referenceInstructions = ref->instructions;
            if (cache) {
                SpanLog::Scope s(log, "store.publish");
                cache->publishFullSim(full_key, *ref);
            }
        }
        p.referenceSeconds = secondsSince(t0);
        p.errorPct =
            absRelErrorPct(pred.runtimeSeconds, ref->runtimeSeconds);
    }
    p.pointSeconds = secondsSince(t_point);
    p.fingerprint = fingerprintPoint(preset, lp, metrics, pred,
                                     ref ? &*ref : nullptr);
    if (keep_analysis)
        *keep_analysis = std::move(lp);
    return p;
}

/**
 * Probes for rates the run's own spans cannot separate: functional
 * fast-forward without warming, and snapshot (deep copy) cost, both on
 * the run's program up to the last region start. Timed outside the
 * run's wall time.
 */
void
probe(RunContext &rc, const LoopPointResult &lp, RunResult &rr)
{
    const LoopPointRegion *last = nullptr;
    for (const auto &r : lp.regions)
        if (!last || r.sliceIndex > last->sliceIndex)
            last = &r;
    if (!last || last->start.pc == 0)
        return;
    auto pc_index = buildPcIndex(*rc.prog);
    SimConfig sim;
    MulticoreSim ff(*rc.prog, execConfigOf(rc.lpOpts), sim);
    const auto t0 = Clock::now();
    {
        SpanLog::Scope s(rc.log, "exec.fastforward");
        ff.fastForwardUntil(pc_index.at(last->start.pc), last->start.count,
                            /*warm=*/false);
    }
    const double ff_s = secondsSince(t0);
    const double instrs = static_cast<double>(ff.engine().globalIcount());
    rr.ffMips = ff_s > 0.0 ? instrs / ff_s / 1e6 : 0.0;
    for (const auto &p : rr.points)
        if (p.phaseRan && p.warmPassSeconds > 0.0) {
            rr.warmMips = instrs / p.warmPassSeconds / 1e6;
            break;
        }
    std::vector<double> copies;
    for (int i = 0; i < 5; ++i) {
        const auto tc = Clock::now();
        SpanLog::Scope s(rc.log, "sim.snapshot");
        MulticoreSim copy(ff);
        copies.push_back(secondsSince(tc));
    }
    rr.snapshotSeconds = median(copies);
    rr.snapshotMb =
        static_cast<double>(ff.microarchStateBytes()) / (1024.0 * 1024.0);
}

RunResult
runOnce(const Workload &w, const Options &opt, SpanLog &log,
        bool with_probe)
{
    RunResult rr;
    const bool traced = log.enabled();
    RunContext rc{w, opt, log, {}, {}, {}, {}, {}, {}};
    const auto t_run = Clock::now();
    const int run_span = log.open("run");
    if (traced)
        setUp(rc);
    else if (w.sweep)
        fs::remove_all(storeDir());
    const int passes = w.sweep ? 2 : 1;
    std::map<std::string, std::string> first_pass;
    LoopPointResult cold_lp;
    for (int pass = 0; pass < passes; ++pass) {
        for (const auto &preset : sweepOrder(w, pass, opt.seed)) {
            log.point = static_cast<int>(rr.points.size());
            PointResult p =
                traced ? runTracedPoint(rc, preset,
                                        with_probe && rr.points.empty()
                                            ? &cold_lp
                                            : nullptr)
                       : runProductPoint(w, opt, preset);
            log.point = -1;
            if (pass == 0) {
                first_pass[preset] = p.fingerprint;
            } else {
                if (p.fingerprint != first_pass[preset])
                    rr.problems.push_back(
                        "store-served point " + preset +
                        " differs from its computed twin");
                if (!p.analysisHit || !p.simHit || !p.referenceHit)
                    rr.problems.push_back("second-pass point " + preset +
                                          " was not served entirely "
                                          "from the store");
            }
            if (p.coverage != 1.0 || p.failedRegions)
                rr.problems.push_back("point " + preset + " dropped " +
                                      std::to_string(p.failedRegions) +
                                      " region(s)");
            rr.points.push_back(std::move(p));
        }
    }
    log.close(run_span);
    rr.runSeconds = secondsSince(t_run);
    for (const auto &preset : w.presets)
        rr.fingerprint += first_pass[preset];
    if (rc.store)
        rr.store = rc.store->stats();
    if (with_probe)
        probe(rc, cold_lp, rr);
    if (w.sweep)
        fs::remove_all(storeDir());
    return rr;
}

/** One setup_s sample: the mean of kSetupBatch stand-alone setups. */
double
setupSample(const Workload &w, const Options &opt)
{
    double total = 0.0;
    for (int i = 0; i < kSetupBatch; ++i) {
        SpanLog quiet(false);
        RunContext rc{w, opt, quiet, {}, {}, {}, {}, {}, {}};
        total += setUp(rc);
    }
    if (w.sweep)
        fs::remove_all(storeDir());
    return total / kSetupBatch;
}

// ---------------------------------------------------------------------
// Metrics.

struct Metric
{
    double value = 0.0;
    std::string unit;
    size_t n = 0; ///< samples behind the value (median)
};

using MetricMap = std::map<std::string, Metric>;

void
put(MetricMap &m, const std::string &name, const std::vector<double> &xs,
    const std::string &unit)
{
    m[name] = Metric{median(xs), unit, xs.size()};
}

double
sumSpans(const std::vector<Span> &spans, const std::string &name)
{
    double total = 0.0;
    for (const auto &s : spans)
        if (s.name == name)
            total += duration(s);
    return total;
}

/**
 * Reconcile a traced run: for every stage span, the self times of the
 * layer spans below it must add up to the stage's wall time within
 * the stated tolerance. Returns the summed gaps as a share of the
 * summed stage walls, in percent; appends a problem per violating
 * stage.
 */
double
reconcile(const std::vector<Span> &spans,
          std::vector<std::string> &problems)
{
    std::vector<double> child_time(spans.size(), 0.0);
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            child_time[spans[i].parent] += duration(spans[i]);
    auto stage_of = [&](size_t i) -> int {
        int p = spans[i].parent;
        while (p >= 0 && spans[p].name.rfind("stage.", 0) != 0)
            p = spans[p].parent;
        return p;
    };
    std::map<int, double> layer_self;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name.rfind("stage.", 0) == 0 ||
            spans[i].name == "run")
            continue;
        const int stage = stage_of(i);
        if (stage >= 0)
            layer_self[stage] += duration(spans[i]) - child_time[i];
    }
    double gaps = 0.0, walls = 0.0;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name.rfind("stage.", 0) != 0)
            continue;
        const double wall = duration(spans[i]);
        const double gap = std::abs(wall - layer_self[static_cast<int>(i)]);
        gaps += gap;
        walls += wall;
        if (gap > std::max(kReconTolerance * wall, kReconFloorSeconds))
            problems.push_back(
                "reconciliation: " + spans[i].name + " wall " +
                fmt17(wall) + " s, layer self times sum to " +
                fmt17(layer_self[static_cast<int>(i)]) + " s");
    }
    return walls > 0.0 ? 100.0 * gaps / walls : 0.0;
}

void
endToEnd(const std::vector<RunResult> &runs,
         const std::vector<double> &setups, const Workload &w,
         MetricMap &m)
{
    std::vector<double> run_s, predict_s, point_s;
    for (const auto &r : runs) {
        run_s.push_back(r.runSeconds);
        // predict_s: program to every first-pass prediction, analysis
        // included (one point, or the sweep's seven).
        double predict = 0.0;
        for (size_t i = 0; i < w.presets.size(); ++i)
            predict += r.points[i].predictSeconds;
        predict_s.push_back(predict);
        // point_s: points that reuse an existing analysis. A sweep has
        // six per run; a single-point workload's point is what follows
        // its analysis: the checkpointed phase and the reference, as
        // runExperiment() times them.
        for (size_t i = 0; i < r.points.size(); ++i) {
            const PointResult &p = r.points[i];
            if (w.sweep && i > 0 && i < w.presets.size())
                point_s.push_back(p.pointSeconds);
            else if (!w.sweep)
                point_s.push_back(p.phaseSeconds +
                                  std::max(0.0, p.referenceSeconds));
        }
    }
    put(m, "setup_s", setups, "s");
    put(m, "run_s", run_s, "s");
    put(m, "predict_s", predict_s, "s");
    put(m, "point_s", point_s, "s");
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    m["peak_rss_mb"] =
        Metric{static_cast<double>(ru.ru_maxrss) / 1024.0, "MB", 1};
}

/** Workload-level figures with no bound: they are deterministic, or
 * do not exist on every workload (0 there). */
void
outcomes(const std::vector<RunResult> &runs, const Workload &w,
         size_t attempted, size_t failed, MetricMap &m)
{
    std::vector<double> ref_s, warm_s, err;
    for (const auto &r : runs) {
        for (size_t i = 0; i < r.points.size(); ++i) {
            const PointResult &p = r.points[i];
            if (p.referenceSeconds >= 0.0 && !p.referenceHit)
                ref_s.push_back(p.referenceSeconds);
            if (w.sweep && i >= w.presets.size())
                warm_s.push_back(p.pointSeconds);
        }
        double e = 0.0;
        for (size_t i = 0; i < w.presets.size(); ++i)
            e += r.points[i].errorPct;
        err.push_back(e / static_cast<double>(w.presets.size()));
    }
    put(m, "reference_s", ref_s, "s");
    put(m, "warm_point_s", warm_s, "s");
    put(m, "error_pct", w.reference ? err : std::vector<double>{}, "%");
    m["fail_frac"] = Metric{attempted ? static_cast<double>(failed) /
                                            static_cast<double>(attempted)
                                      : 0.0,
                            "ratio", attempted};
}

void
perLayer(const std::vector<RunResult> &traced,
         const std::vector<std::vector<Span>> &spans, MetricMap &m)
{
    std::map<std::string, std::vector<double>> v;
    for (size_t k = 0; k < traced.size(); ++k) {
        const RunResult &r = traced[k];
        const std::vector<Span> &sp = spans[k];
        for (const char *stage : {"setup", "analysis", "checkpointed",
                                  "extrapolate", "reference"})
            v[std::string("stage.") + stage + "_s"].push_back(
                sumSpans(sp, std::string("stage.") + stage));
        v["workload.generate_s"].push_back(
            sumSpans(sp, "workload.generate"));
        const double rec = sumSpans(sp, "pinball.record");
        v["pinball.record_s"].push_back(rec);
        const PointResult &cold = r.points.front();
        v["pinball.record_mips"].push_back(
            rec > 0.0 ? static_cast<double>(cold.totalIcount) / rec / 1e6
                      : 0.0);
        v["dcfg.build_s"].push_back(sumSpans(sp, "dcfg.build"));
        v["profile.slice_s"].push_back(sumSpans(sp, "profile.slice"));
        v["profile.slices"].push_back(static_cast<double>(cold.slices));
        v["cluster.project_s"].push_back(sumSpans(sp, "cluster.project"));
        v["cluster.sweep_s"].push_back(sumSpans(sp, "cluster.sweep"));
        v["cluster.k"].push_back(static_cast<double>(cold.chosenK));
        v["store.publish_s"].push_back(sumSpans(sp, "store.publish"));
        v["store.load_s"].push_back(sumSpans(sp, "store.load"));
        v["store.bytes_written"].push_back(
            static_cast<double>(r.store.bytesStored));
        v["store.bytes_read"].push_back(
            static_cast<double>(r.store.bytesRead));
        const double lookups =
            static_cast<double>(r.store.hits + r.store.misses);
        v["store.hit_rate"].push_back(
            lookups > 0.0 ? static_cast<double>(r.store.hits) / lookups
                          : 0.0);

        std::vector<double> regions, warm, phase, speedup;
        uint64_t det_instrs = 0;
        double det_s = 0.0;
        for (const auto &p : r.points) {
            if (p.phaseRan) {
                regions.insert(regions.end(), p.regionSeconds.begin(),
                               p.regionSeconds.end());
                warm.push_back(p.warmPassSeconds);
                phase.push_back(p.phaseSeconds);
                speedup.push_back(p.hostSpeedup);
                det_instrs += p.regionInstructions;
                for (double s : p.regionSeconds)
                    det_s += s;
            }
            if (p.referenceInstructions) {
                det_instrs += p.referenceInstructions;
                det_s += p.referenceSeconds;
            }
        }
        const double warm_med = median(warm), phase_med = median(phase);
        v["core.warm_pass_s"].push_back(warm_med);
        v["core.phase_s"].push_back(phase_med);
        v["core.warm_share"].push_back(
            phase_med > 0.0 ? warm_med / phase_med : 0.0);
        v["core.region_s.p50"].push_back(percentile(regions, 50.0));
        v["core.region_s.p90"].push_back(percentile(regions, 90.0));
        v["core.host_speedup"].push_back(median(speedup));
        v["sim.detailed_mips"].push_back(
            det_s > 0.0 ? static_cast<double>(det_instrs) / det_s / 1e6
                        : 0.0);
        v["sim.l2_mpki"].push_back(cold.l2Mpki);
        v["sim.branch_mpki"].push_back(cold.branchMpki);
        if (r.ffMips > 0.0) {
            v["exec.ff_mips"].push_back(r.ffMips);
            v["sim.warm_mips"].push_back(r.warmMips);
            v["sim.snapshot_s"].push_back(r.snapshotSeconds);
            v["sim.snapshot_mb"].push_back(r.snapshotMb);
        }
    }
    static const std::map<std::string, std::string> units = {
        {"stage.setup_s", "s"}, {"stage.analysis_s", "s"},
        {"stage.checkpointed_s", "s"}, {"stage.extrapolate_s", "s"},
        {"stage.reference_s", "s"}, {"workload.generate_s", "s"},
        {"pinball.record_s", "s"},
        {"pinball.record_mips", "MIPS"}, {"dcfg.build_s", "s"},
        {"profile.slice_s", "s"}, {"profile.slices", "count"},
        {"cluster.project_s", "s"}, {"cluster.sweep_s", "s"},
        {"cluster.k", "count"}, {"exec.ff_mips", "MIPS"},
        {"sim.warm_mips", "MIPS"}, {"sim.detailed_mips", "MIPS"},
        {"sim.snapshot_s", "s"}, {"sim.snapshot_mb", "MB"},
        {"sim.l2_mpki", "MPKI"}, {"sim.branch_mpki", "MPKI"},
        {"core.warm_pass_s", "s"}, {"core.phase_s", "s"},
        {"core.warm_share", "ratio"}, {"core.region_s.p50", "s"},
        {"core.region_s.p90", "s"}, {"core.host_speedup", "x"},
        {"store.publish_s", "s"}, {"store.load_s", "s"},
        {"store.bytes_written", "bytes"}, {"store.bytes_read", "bytes"},
        {"store.hit_rate", "ratio"},
    };
    for (const auto &[name, unit] : units)
        put(m, name, v[name], unit);
}

// ---------------------------------------------------------------------

std::map<std::pair<std::string, uint64_t>, std::string>
loadExpected(const std::string &path)
{
    std::map<std::pair<std::string, uint64_t>, std::string> out;
    if (path.empty())
        return out;
    std::ifstream in(path);
    if (!in)
        fatal("cannot read expected fingerprints '%s'", path.c_str());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string name, sha;
        uint64_t seed = 0;
        if (!(ls >> name >> seed >> sha))
            fatal("malformed line in '%s': %s", path.c_str(),
                  line.c_str());
        out[{name, seed}] = sha;
    }
    return out;
}

void
writeSpans(const std::string &path, const std::vector<std::vector<Span>> &all)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write spans to '%s'", path.c_str());
    os << "{\"runs\": [\n";
    for (size_t k = 0; k < all.size(); ++k) {
        os << (k ? ",\n" : "") << "  [";
        for (size_t i = 0; i < all[k].size(); ++i) {
            const Span &s = all[k][i];
            os << (i ? ",\n   " : "\n   ") << "{\"id\": " << i
               << ", \"name\": \"" << s.name << "\", \"parent\": "
               << s.parent << ", \"point\": " << s.point
               << ", \"start\": " << fmt17(s.start)
               << ", \"end\": " << fmt17(s.end)
               << ", \"derived\": " << (s.derived ? "true" : "false")
               << "}";
        }
        os << "]";
    }
    os << "\n]}\n";
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "e2e_bench: %s\nusage: e2e_bench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--workload-seed W] "
                 "[--expected FILE]\nworkloads:",
                 msg);
    for (const auto &w : workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        auto number = [&](const std::string &s) {
            char *end = nullptr;
            const double v = std::strtod(s.c_str(), &end);
            if (s.empty() || *end != '\0' || !(v >= 0.0))
                usage(("bad number for " + a + ": " + s).c_str());
            return v;
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = static_cast<uint64_t>(number(value()));
        else if (a == "--workload-seed")
            o.workloadSeed = static_cast<uint64_t>(number(value()));
        else if (a == "--seconds")
            o.seconds = number(value());
        else if (a == "--trace")
            o.trace = number(value()) != 0.0;
        else if (a == "--expected")
            o.expectedPath = value();
        else
            usage(("unknown argument " + a).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

int
benchMain(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    const Workload *wp = nullptr;
    for (const auto &w : workloads())
        if (w.name == opt.workload)
            wp = &w;
    if (!wp)
        usage(("unknown workload " + opt.workload).c_str());
    const Workload &w = *wp;
    const std::string build_type = LPBENCH_BUILD_TYPE;
    if (!kOptimizedBuild || kSanitizedBuild || build_type != "Release") {
        std::fprintf(stderr,
                     "e2e_bench: refusing to time a %s build "
                     "(optimized=%d, sanitized=%d); rebuild with "
                     "-DCMAKE_BUILD_TYPE=Release and no sanitizer\n",
                     build_type.c_str(), kOptimizedBuild ? 1 : 0,
                     kSanitizedBuild ? 1 : 0);
        return 3;
    }
    const uint32_t nproc =
        std::max(1u, std::thread::hardware_concurrency());
    opt.jobs = std::min(kHostJobs, nproc);
    fs::create_directories(kWorkDir);
    const auto expected = loadExpected(opt.expectedPath);

    // Measure: whole runs until the next one would overrun the budget.
    // A traced benchmark alternates untraced and traced runs, so the
    // tracing overhead compares runs made under the same conditions.
    const auto t_bench = Clock::now();
    std::vector<RunResult> plain, traced;
    std::vector<std::vector<Span>> traced_spans;
    std::vector<double> run_times, setups;
    std::vector<std::string> problems;
    std::vector<double> recon_gaps;
    for (;;) {
        const bool want_trace = opt.trace && plain.size() > traced.size();
        setups.push_back(setupSample(w, opt));
        SpanLog log(want_trace);
        RunResult r = runOnce(w, opt, log, want_trace && traced.empty());
        run_times.push_back(r.runSeconds);
        if (want_trace) {
            recon_gaps.push_back(reconcile(log.spans, r.problems));
            traced_spans.push_back(std::move(log.spans));
            traced.push_back(std::move(r));
        } else {
            plain.push_back(std::move(r));
        }
        const bool have_both = !opt.trace || !traced.empty();
        if (have_both && secondsSince(t_bench) + median(run_times) >
                             opt.seconds)
            break;
    }

    // Output check: every run's fingerprint equal to the recorded one
    // for this workload and seed (or, for a seed with no record, to
    // each other), plus the per-run invariants gathered above.
    const std::string fp0 = plain.front().fingerprint;
    const std::string sha0 = sha1Hex(fp0);
    auto it = expected.find({w.name, opt.workloadSeed});
    const std::string want = it != expected.end() ? it->second : sha0;
    const char *check = it != expected.end() ? "recorded" : "unrecorded";
    size_t attempted = 0, failed = 0;
    auto account = [&](const RunResult &r, const char *mode) {
        ++attempted;
        bool bad = !r.problems.empty();
        for (const auto &p : r.problems)
            problems.push_back(std::string(mode) + ": " + p);
        const std::string sha = sha1Hex(r.fingerprint);
        if (sha != want) {
            bad = true;
            problems.push_back(std::string(mode) +
                               " run fingerprint " + sha +
                               " != expected " + want);
        }
        failed += bad ? 1 : 0;
        for (const auto &p : r.points) {
            attempted += p.regions;
            failed += p.failedRegions;
        }
    };
    for (const auto &r : plain)
        account(r, "untraced");
    for (const auto &r : traced)
        account(r, "traced");
    const bool correct = failed == 0;

    MetricMap m;
    if (!opt.trace) {
        endToEnd(plain, setups, w, m);
    } else {
        perLayer(traced, traced_spans, m);
        outcomes(plain, w, attempted, failed, m);
        std::vector<double> plain_s, traced_s;
        for (const auto &r : plain)
            plain_s.push_back(r.runSeconds);
        for (const auto &r : traced)
            traced_s.push_back(r.runSeconds);
        m["trace_overhead_pct"] =
            Metric{100.0 * (median(traced_s) / median(plain_s) - 1.0), "%",
                   traced_s.size()};
        put(m, "recon_gap_pct", recon_gaps, "%");
        const std::string spans_path =
            (fs::path(kWorkDir) /
             ("spans-" + w.name + "-" + std::to_string(opt.seed) + ".json"))
                .string();
        writeSpans(spans_path, traced_spans);
        std::printf("spans: %s\n", spans_path.c_str());
    }

    for (const auto &p : problems)
        std::printf("CHECK FAILED: %s\n", p.c_str());
    std::printf("workload %s seed %" PRIu64 " workload seed %" PRIu64
                " jobs %u: %zu untraced + %zu traced runs, fingerprint "
                "%s (%s)\n",
                w.name.c_str(), opt.seed, opt.workloadSeed, opt.jobs,
                plain.size(), traced.size(), sha0.c_str(), check);
    std::printf("run_s per untraced run:");
    for (const auto &r : plain)
        std::printf(" %.4f", r.runSeconds);
    std::printf("\n");
    for (const auto &[name, metric] : m)
        std::printf("  %-22s %14.6g %-6s (n=%zu)\n", name.c_str(),
                    metric.value, metric.unit.c_str(), metric.n);

    // Last line: machine-readable result for run.py.
    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"workload_seed\": %" PRIu64 ", \"trace\": %d, "
                "\"correct\": %s, \"attempted\": %zu, "
                "\"failed\": %zu, \"fingerprint\": \"%s\", "
                "\"expected\": \"%s\", \"recon_tolerance\": %s, "
                "\"jobs\": %u, \"nproc\": %u, \"sim_threads\": %u, "
                "\"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"metrics\": {",
                w.name.c_str(), opt.seed, opt.workloadSeed,
                opt.trace ? 1 : 0,
                correct ? "true" : "false", attempted, failed,
                sha0.c_str(), check, fmt17(kReconTolerance).c_str(),
                opt.jobs, nproc, kSimThreads, build_type.c_str(),
                LPBENCH_COMPILER);
    bool first = true;
    for (const auto &[name, metric] : m) {
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\", "
                    "\"n\": %zu}",
                    first ? "" : ", ", name.c_str(),
                    fmt17(metric.value).c_str(), metric.unit.c_str(),
                    metric.n);
        first = false;
    }
    std::printf("}}\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return benchMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2e_bench: %s\n", e.what());
        return 2;
    }
}
