#include "core/experiment.hh"

#include <chrono>
#include <cmath>
#include <memory>

#include "core/run_journal.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "store/stage_cache.hh"
#include "util/checksum.hh"
#include "util/interrupt.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace looppoint {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double>(dt).count();
}

} // namespace

ExperimentResult
runExperiment(const ExperimentConfig &cfg)
{
    // Arm the process-wide telemetry before any instrumented code
    // runs. Leaving already-armed state alone lets callers (tests)
    // manage obs themselves across multiple experiments.
    Tracer &tracer = Tracer::global();
    if (cfg.sim.obs.trace && !tracer.enabled()) {
        tracer.setEnabled(true);
        tracer.nameCurrentThread("main");
    }
    if (cfg.sim.obs.metrics)
        MetricsRegistry::global().setEnabled(true);

    ScopedSpan exp_span(tracer, "experiment");
    exp_span.arg("app", cfg.app);

    const AppDescriptor &app = findApp(cfg.app);
    const uint32_t threads =
        app.effectiveThreads(cfg.requestedThreads);

    Program prog = [&] {
        ScopedSpan span(tracer, "workload.generate");
        span.arg("app", cfg.app);
        return generateProgram(app, cfg.input);
    }();

    LoopPointOptions opts = cfg.loopPoint;
    opts.numThreads = threads;
    opts.waitPolicy = cfg.waitPolicy;
    opts.jobs = cfg.jobs;
    SimConfig sim_cfg = cfg.sim;
    sim_cfg.jobs = cfg.jobs;

    ExperimentResult res;
    res.app = cfg.app;
    res.threads = threads;

    // Artifact store: memoize every stage of this run. The store and
    // cache outlive the pipeline that borrows them.
    std::unique_ptr<ArtifactStore> store;
    std::unique_ptr<StageCache> stage_cache;
    if (!cfg.storeDir.empty()) {
        store = std::make_unique<ArtifactStore>(cfg.storeDir);
        stage_cache = std::make_unique<StageCache>(*store);
    }

    LoopPointPipeline pipeline(prog, opts);
    pipeline.setStageCache(stage_cache.get());
    res.analysis = pipeline.analyze();
    res.theoreticalSerialSpeedup =
        res.analysis.theoreticalSerialSpeedup();
    res.theoreticalParallelSpeedup =
        res.analysis.theoreticalParallelSpeedup();

    // Crash-safe journal: keyed on everything that changes region
    // results (host-side knobs like jobs, retries, and the fault plan
    // are excluded, so a post-crash clean resume reuses the records).
    // Without --resume the journal only records; with it, a missing
    // or foreign journal is a hard error.
    std::unique_ptr<RunJournal> journal;
    if (!cfg.journalPath.empty()) {
        RunKey key = makeRunKey(cfg.app,
                                std::string(inputClassName(cfg.input)),
                                threads, cfg.waitPolicy, opts.seed,
                                cfg.constrainedRegions, sim_cfg);
        journal = std::make_unique<RunJournal>(cfg.journalPath, key);
        if (cfg.resume) {
            if (auto err = journal->load(/*must_exist=*/true))
                fatal("cannot resume from journal '%s': %s",
                      cfg.journalPath.c_str(),
                      err->describe().c_str());
        }
    }

    // Checkpoint-driven simulation: one warming pass snapshots the
    // simulation state at every region start; each region then runs
    // in isolation. Region wall times exclude the shared analysis
    // pass (they are what a parallel deployment of the checkpoints
    // would see); the checkpoint pass is reported separately.
    //
    // Sim-stage memoization: the dominant cost of a run. Keyed on the
    // cluster artifact hash + the uarch partition, so a campaign
    // re-running the same sweep point skips warming and every region
    // simulation, bit-identically (the store holds the exact journal
    // records a fault-free run produced).
    std::string sim_key;
    std::vector<uint8_t> ok_mask;
    if (stage_cache && !res.analysis.stageHashes.cluster.empty()) {
        sim_key = StageCache::simKey(res.analysis.stageHashes.cluster,
                                     sim_cfg, cfg.constrainedRegions);
        if (auto recs = stage_cache->loadSimResults(
                sim_key, res.analysis.regions)) {
            res.simStageHit = true;
            res.regionMetrics.reserve(recs->size());
            for (const auto &rec : *recs)
                res.regionMetrics.push_back(rec.metrics);
            ok_mask.assign(res.analysis.regions.size(), 1);
            res.coverage = 1.0;
        }
    }
    if (!res.simStageHit) {
        auto ckpt = pipeline.simulateRegionsCheckpointed(
            res.analysis, sim_cfg, cfg.constrainedRegions,
            journal.get());
        res.wallCheckpointSeconds = ckpt.checkpointWallSeconds;
        res.wallPhaseSeconds = ckpt.phaseWallSeconds;
        res.jobs = ckpt.jobs;
        res.hostParallelSpeedup = ckpt.hostParallelSpeedup();
        res.hostParallelEfficiency = ckpt.parallelEfficiency();
        for (double wall : ckpt.regionWallSeconds) {
            res.wallRegionsTotalSeconds += wall;
            res.wallRegionsMaxSeconds =
                std::max(res.wallRegionsMaxSeconds, wall);
        }
        res.coverage = ckpt.coverage;
        res.failedRegions = ckpt.failedRegions();
        res.journalHits = ckpt.journalHits;
        res.warmStageHit = ckpt.warmStageHit;
        res.warmHits = ckpt.warmHits;
        res.warmPublished = ckpt.warmPublished;
        res.warmPartitions = ckpt.warmPartitions;
        ok_mask = ckpt.okMask();
        for (auto &d : ckpt.diagnostics)
            res.analysis.diagnostics.push_back(std::move(d));
        res.regionMetrics = std::move(ckpt.regionMetrics);
        // Parked at a region boundary on request: everything that
        // finished is journaled above, so unwind before any artifact
        // publish or extrapolation — a partial run must surface as
        // "resume me" (exit 4), never as a degraded result.
        if (ckpt.interrupted) {
            size_t done = 0;
            for (const auto &o : ckpt.regionOutcomes)
                done += o.ok ? 1 : 0;
            throw InterruptedRun(
                "run interrupted at a region boundary with " +
                std::to_string(done) + " of " +
                std::to_string(res.analysis.regions.size()) +
                " regions complete; rerun with --resume to continue");
        }
        // Publish only complete, fault-free results: a degraded run's
        // holes must not be served to later runs as the real thing.
        if (stage_cache && !sim_key.empty() && res.coverage == 1.0 &&
            res.failedRegions == 0) {
            std::vector<RunJournal::Record> recs;
            recs.reserve(res.analysis.regions.size());
            for (size_t i = 0; i < res.analysis.regions.size(); ++i) {
                const LoopPointRegion &r = res.analysis.regions[i];
                RunJournal::Record rec;
                rec.regionIndex = static_cast<uint32_t>(i);
                rec.start = r.start;
                rec.end = r.end;
                rec.multiplier = r.multiplier;
                rec.attempts = std::max(
                    1u, ckpt.regionOutcomes[i].attempts);
                rec.metrics = res.regionMetrics[i];
                recs.push_back(rec);
            }
            stage_cache->publishSimResults(sim_key, recs);
        }
    }
    {
        ScopedSpan span(tracer, "extrapolate");
        span.arg("regions",
                 static_cast<uint64_t>(res.analysis.regions.size()));
        res.predicted = extrapolateMetrics(
            res.analysis, res.regionMetrics, ok_mask, sim_cfg);
    }

    if (cfg.simulateFull) {
        ScopedSpan full_span(tracer, "phase.fullsim");
        std::string full_key;
        if (stage_cache) {
            full_key = StageCache::fullSimKey(
                prog.name, threads, cfg.waitPolicy, opts.seed, sim_cfg);
            if (auto m = stage_cache->loadFullSim(full_key)) {
                res.fullSim = *m;
                res.fullSimHit = true;
            }
        }
        if (!res.fullSimHit) {
            auto t0 = std::chrono::steady_clock::now();
            res.fullSim = pipeline.simulateFull(sim_cfg);
            res.wallFullSeconds = secondsSince(t0);
            if (stage_cache)
                stage_cache->publishFullSim(full_key, res.fullSim);
        }
        res.haveFullSim = true;
        full_span.arg("wall_seconds", res.wallFullSeconds)
            .arg("cached", res.fullSimHit);

        res.runtimeErrorPct = absRelErrorPct(
            res.predicted.runtimeSeconds, res.fullSim.runtimeSeconds);
        res.cyclesErrorPct = absRelErrorPct(
            res.predicted.cycles,
            static_cast<double>(res.fullSim.cycles));
        // Work-normalized MPKI (see MetricPrediction): both sides
        // divide by main-image instructions.
        auto filtered_mpki = [&](uint64_t events) {
            return res.fullSim.filteredInstructions
                       ? 1000.0 * static_cast<double>(events) /
                             static_cast<double>(
                                 res.fullSim.filteredInstructions)
                       : 0.0;
        };
        res.branchMpkiAbsDiff =
            std::fabs(res.predicted.branchMpki() -
                      filtered_mpki(res.fullSim.branchMispredicts));
        res.l2MpkiAbsDiff = std::fabs(
            res.predicted.l2Mpki() - filtered_mpki(res.fullSim.l2Misses));

        if (res.wallRegionsTotalSeconds > 0.0)
            res.actualSerialSpeedup =
                res.wallFullSeconds / res.wallRegionsTotalSeconds;
        if (res.wallRegionsMaxSeconds > 0.0)
            res.actualParallelSpeedup =
                res.wallFullSeconds / res.wallRegionsMaxSeconds;
    }
    if (store)
        res.storeStats = store->stats();
    return res;
}

} // namespace looppoint
