#include "core/looppoint.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <future>
#include <limits>
#include <mutex>
#include <optional>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "core/region_exec.hh"
#include "obs/trace.hh"
#include "dcfg/dcfg.hh"
#include "exec/block_pipe.hh"
#include "exec/driver.hh"
#include "profile/slicer.hh"
#include "sim/warm_partition.hh"
#include "store/stage_cache.hh"
#include "util/interrupt.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace looppoint {

size_t
LoopPointPipeline::CheckpointedSimResult::failedRegions() const
{
    size_t failed = 0;
    for (const auto &o : regionOutcomes)
        if (!o.ok)
            ++failed;
    return failed;
}

std::vector<uint8_t>
LoopPointPipeline::CheckpointedSimResult::okMask() const
{
    std::vector<uint8_t> mask(regionOutcomes.size(), 1);
    for (size_t i = 0; i < regionOutcomes.size(); ++i)
        mask[i] = regionOutcomes[i].ok ? 1 : 0;
    return mask;
}

double
LoopPointPipeline::CheckpointedSimResult::serialEquivalentSeconds() const
{
    double total = checkpointWallSeconds;
    for (double w : regionWallSeconds)
        total += w;
    return total;
}

double
LoopPointPipeline::CheckpointedSimResult::hostParallelSpeedup() const
{
    const double serial = serialEquivalentSeconds();
    return phaseWallSeconds > 0.0 && serial > 0.0
               ? serial / phaseWallSeconds
               : 0.0;
}

double
LoopPointPipeline::CheckpointedSimResult::parallelEfficiency() const
{
    return jobs ? hostParallelSpeedup() / static_cast<double>(jobs)
                : 0.0;
}

double
LoopPointResult::theoreticalSerialSpeedup() const
{
    uint64_t selected = 0;
    for (const auto &r : regions)
        selected += r.filteredIcount;
    return selected ? static_cast<double>(totalFilteredIcount) /
                          static_cast<double>(selected)
                    : 0.0;
}

double
LoopPointResult::theoreticalParallelSpeedup() const
{
    uint64_t largest = 0;
    for (const auto &r : regions)
        largest = std::max(largest, r.filteredIcount);
    return largest ? static_cast<double>(totalFilteredIcount) /
                         static_cast<double>(largest)
                   : 0.0;
}

LoopPointPipeline::LoopPointPipeline(const Program &prog_,
                                     LoopPointOptions opts_)
    : prog(&prog_), opts(opts_)
{
    if (opts.numThreads == 0)
        fatal("LoopPointPipeline: at least one thread required");
    if (opts.sliceSizePerThread == 0)
        fatal("LoopPointPipeline: slice size must be positive");
}

LoopPointPipeline::~LoopPointPipeline() = default;

ThreadPool *
LoopPointPipeline::poolFor(uint32_t jobs) const
{
    uint32_t workers = ThreadPool::resolveWorkers(jobs);
    if (workers <= 1)
        return nullptr;
    if (!sharedPool || sharedPool->numWorkers() != workers)
        sharedPool = std::make_unique<ThreadPool>(workers);
    return sharedPool.get();
}

ExecConfig
LoopPointPipeline::execConfig() const
{
    ExecConfig cfg;
    cfg.numThreads = opts.numThreads;
    cfg.waitPolicy = opts.waitPolicy;
    cfg.seed = opts.seed;
    return cfg;
}

FeatureMatrix
buildFeatureMatrix(const Program &prog,
                   const std::vector<SliceRecord> &slices, uint32_t dims,
                   uint64_t seed, ThreadPool *pool)
{
    RandomProjector projector(dims, hashCombine(seed, 0xbbf));
    FeatureMatrix features(slices.size());
    const uint64_t num_blocks = prog.numBlocks();
    // Each slice projects into its own row; the projector is shared
    // but stateless, so the parallel build is bit-identical to the
    // serial one.
    ThreadPool::forEach(pool, 0, slices.size(), [&](size_t i) {
        const SliceRecord &slice = slices[i];
        std::vector<std::pair<uint64_t, double>> sparse;
        double norm = slice.filteredIcount
                          ? static_cast<double>(slice.filteredIcount)
                          : 1.0;
        for (uint32_t tid = 0; tid < slice.perThread.size(); ++tid) {
            for (const auto &[block, count] : slice.perThread[tid].counts) {
                double weight =
                    static_cast<double>(count) *
                    static_cast<double>(prog.blocks[block].numInstrs()) /
                    norm;
                sparse.emplace_back(
                    static_cast<uint64_t>(tid) * num_blocks + block,
                    weight);
            }
        }
        // Canonical entry order before projecting: the per-thread BBV
        // maps iterate in insertion order, which a profile artifact
        // reloaded from the store cannot reproduce — and float
        // summation in project() is order-sensitive. Sorting by the
        // (unique) concatenated index makes the features a pure
        // function of the BBV *contents*, so cached and fresh profiles
        // cluster bit-identically.
        std::sort(sparse.begin(), sparse.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        features[i] = projector.project(sparse);
    });
    return features;
}

LoopPointResult
LoopPointPipeline::analyze()
{
    LoopPointResult out;
    ExecConfig cfg = execConfig();
    Tracer &tracer = Tracer::global();

    // (1) Record the whole program once as a pinball, building the DCFG
    // and profiling the slices from the same execution. With a stage
    // cache, a prior run's pinball is reused when the recording key
    // (workload, threads, wait policy, seed, flow quantum) matches.
    //
    // The slices' boundary markers are the DCFG's main-image loop
    // headers, known only once the run ends, so the recording slices
    // at markers predicted from the static program. When the
    // prediction equals the DCFG's list, the recorded slices are the
    // ones a replay would produce: the same block streams cut at the
    // same markers. Otherwise they are dropped and step (2) replays.
    const uint64_t slice_global = opts.sliceSizePerThread * cfg.numThreads;
    std::optional<Dcfg> dcfg;
    bool profiled = false;
    {
        ScopedSpan span(tracer, "analyze.record");
        std::string key;
        if (cache) {
            key = StageCache::recordKey(prog->name, opts);
            if (auto hit = cache->loadPinball(key)) {
                // Belt-and-braces: the key already encodes this, but a
                // mis-bound manifest entry must not smuggle in another
                // workload's schedule.
                if (hit->pinball.programName == prog->name &&
                    hit->pinball.config == cfg) {
                    out.pinball = std::move(hit->pinball);
                    out.stageHashes.record = std::move(hit->hash);
                    out.stageHashes.recordHit = true;
                }
            }
        }
        if (!out.stageHashes.recordHit) {
            const std::vector<BlockId> predicted =
                predictMainImageLoopHeaders(*prog);
            DcfgBuilder dcfg_builder(*prog, cfg.numThreads);
            SliceProfiler profiler(*prog, predicted, slice_global,
                                   cfg.numThreads, opts.filterSpin);
            auto record = [&](ExecListener &listener) {
                out.pinball = recordPinball(*prog, cfg, opts.flowQuantum,
                                            &listener);
            };
            if (ThreadPool::resolveWorkers(opts.jobs) > 1) {
                // Pipelined: the recording runs on a helper thread and
                // only queues its block events; the DCFG builder drains
                // them on a second helper and the profiler here. Each
                // sees the inline event sequence, so the results are
                // identical. The profiler stays on this thread so its
                // per-slice maps land in this thread's malloc arena.
                const BlockPipeStats stats =
                    runBlockPipe(record, dcfg_builder, profiler);
                span.arg("listener_threads", 2)
                    .arg("record_wait_s", stats.producerWaitSeconds)
                    .arg("dcfg_idle_s", stats.helperIdleSeconds)
                    .arg("profile_idle_s", stats.callerIdleSeconds);
            } else {
                ListenerPair listeners(dcfg_builder, profiler);
                record(listeners);
                span.arg("listener_threads", 0);
            }
            dcfg = dcfg_builder.build();
            if (!predicted.empty() &&
                dcfg->mainImageLoopHeaders() == predicted) {
                profiler.finalize();
                out.slices = profiler.takeSlices();
                profiled = true;
            }
            if (cache)
                out.stageHashes.record =
                    cache->publishPinball(key, out.pinball);
        }
        span.arg("threads", cfg.numThreads)
            .arg("cached", out.stageHashes.recordHit)
            .arg("dcfg", dcfg.has_value())
            .arg("profile", profiled);
    }

    // (2) The profile stage: per-slice, per-thread BBVs with
    // spin/synchronization filtering. Keyed on the recording's content
    // hash plus the fields this stage consumes. Without a hit, the
    // slices come from the recording, or else from a constrained
    // replay (a store-served pinball, or a mispredicted marker set).
    std::string profile_key;
    if (cache && !out.stageHashes.record.empty()) {
        profile_key =
            StageCache::profileKey(out.stageHashes.record, opts);
        if (auto hit = cache->loadSlices(profile_key)) {
            out.slices = std::move(hit->slices);
            out.stageHashes.profile = std::move(hit->hash);
            out.stageHashes.profileHit = true;
        }
    }
    if (!out.stageHashes.profileHit) {
        if (!profiled) {
            // A store-served pinball gets its DCFG (the legal region
            // markers are its main-image loop headers) from a
            // constrained replay, which reproduces the recorded block
            // streams and so the same graph.
            if (!dcfg) {
                ScopedSpan span(tracer, "analyze.dcfg");
                DcfgBuilder dcfg_builder(*prog, cfg.numThreads);
                replayPinball(*prog, out.pinball, opts.flowQuantum,
                              &dcfg_builder);
                dcfg = dcfg_builder.build();
            }
            std::vector<BlockId> markers = dcfg->mainImageLoopHeaders();
            if (markers.empty())
                fatal("program '%s' exposes no main-image loop headers "
                      "to mark regions", prog->name.c_str());
            SliceProfiler profiler(*prog, markers, slice_global,
                                   cfg.numThreads, opts.filterSpin);
            ScopedSpan span(tracer, "analyze.profile");
            span.arg("reason", out.stageHashes.recordHit
                                   ? "store_pinball"
                                   : "marker_mismatch");
            replayPinball(*prog, out.pinball, opts.flowQuantum,
                          &profiler);
            profiler.finalize();
            out.slices = profiler.takeSlices();
            span.arg("slices", static_cast<uint64_t>(out.slices.size()));
        }
        if (cache)
            out.stageHashes.profile =
                cache->publishSlices(profile_key, out.slices);
    }
    LP_ASSERT(!out.slices.empty());

    for (const auto &s : out.slices) {
        out.totalFilteredIcount += s.filteredIcount;
        out.totalIcount += s.totalIcount;
    }

    // (3) Cluster the projected BBVs and pick one representative per
    // cluster, weighted by the cluster's share of the work (Eq. 2).
    // Both the projection and the K sweep fan out over the shared
    // pool when opts.jobs allows. Keyed on the profile artifact hash
    // plus the clustering knobs; a hit skips projection + K sweep.
    std::string cluster_key;
    if (cache && !out.stageHashes.profile.empty()) {
        cluster_key =
            StageCache::clusterKey(out.stageHashes.profile, opts);
        if (auto hit = cache->loadCluster(cluster_key)) {
            if (hit->art.assignment.size() == out.slices.size() &&
                !hit->art.regions.empty()) {
                out.assignment = std::move(hit->art.assignment);
                out.chosenK = hit->art.chosenK;
                out.bicByK = std::move(hit->art.bicByK);
                out.regions = std::move(hit->art.regions);
                out.stageHashes.cluster = std::move(hit->hash);
                out.stageHashes.clusterHit = true;
            }
        }
    }
    if (out.stageHashes.clusterHit)
        return out;

    ThreadPool *pool = poolFor(opts.jobs);
    FeatureMatrix features = [&] {
        ScopedSpan span(tracer, "analyze.project");
        span.arg("slices", static_cast<uint64_t>(out.slices.size()))
            .arg("dims", opts.projectionDims);
        return buildFeatureMatrix(*prog, out.slices,
                                  opts.projectionDims, opts.seed, pool);
    }();
    ClusteringResult clustering = [&] {
        ScopedSpan span(tracer, "cluster.sweep");
        span.arg("max_k", opts.maxK);
        auto r = simpointCluster(features, opts.maxK,
                                 hashCombine(opts.seed, 0xc1u),
                                 opts.bicThreshold, pool);
        span.arg("chosen_k", r.chosenK);
        return r;
    }();
    out.clusterSerialSeconds = clustering.candidateWallSeconds;
    out.clusterWallSeconds = clustering.sweepWallSeconds;
    out.assignment = clustering.best.assignment;
    out.chosenK = clustering.chosenK;
    out.bicByK.reserve(clustering.bicByK.size());
    for (const auto &[k, bic] : clustering.bicByK) {
        (void)k;
        out.bicByK.push_back(bic);
    }

    std::vector<uint32_t> reps =
        pickRepresentatives(features, clustering.best);
    // Startup-transient guard: the first slice carries the program's
    // compulsory cache misses, which its BBV cannot express. If it was
    // chosen to represent a multi-member cluster, substitute the
    // closest *other* member so the one-off cold-start cost is not
    // multiplied across the cluster. (At paper scale the startup
    // transient is a negligible slice fraction; at our reduced scale
    // the guard is needed to preserve the same behavior.)
    for (uint32_t c = 0; c < clustering.best.k; ++c) {
        if (reps[c] != 0)
            continue;
        size_t alt = nearestMemberToCentroid(features, clustering.best,
                                             c, /*exclude=*/0);
        if (alt != features.size())
            reps[c] = static_cast<uint32_t>(alt);
    }
    std::vector<uint64_t> cluster_work(out.chosenK, 0);
    for (size_t i = 0; i < out.slices.size(); ++i)
        cluster_work[out.assignment[i]] += out.slices[i].filteredIcount;

    for (uint32_t c = 0; c < out.chosenK; ++c) {
        const SliceRecord &rep = out.slices[reps[c]];
        if (rep.filteredIcount == 0)
            continue; // empty slice (e.g. a trailing sliver)
        LoopPointRegion region;
        region.cluster = c;
        region.sliceIndex = reps[c];
        region.start = rep.start;
        region.end = rep.end;
        region.filteredIcount = rep.filteredIcount;
        region.multiplier = static_cast<double>(cluster_work[c]) /
                            static_cast<double>(rep.filteredIcount);
        out.regions.push_back(region);
    }
    LP_ASSERT(!out.regions.empty());
    if (cache)
        out.stageHashes.cluster = cache->publishCluster(
            cluster_key, {out.assignment, out.chosenK, out.bicByK,
                          out.regions});
    return out;
}

SimMetrics
LoopPointPipeline::simulateFull(const SimConfig &sim_cfg) const
{
    MulticoreSim sim(*prog, execConfig(), sim_cfg);
    return sim.run();
}

namespace {

/**
 * Checkpoint payloads are multi-megabyte buffers that one thread
 * allocates and another frees. Under glibc's dynamic mmap threshold,
 * the first such free raises the threshold above their size, so later
 * ones come from per-thread arenas, which keep the freed pages: every
 * arena a pool or partition thread has used then holds about a
 * payload's worth of memory for the rest of the process, and a sweep
 * whose points each start fresh threads keeps adding arenas. Pinning
 * the threshold at its default keeps such buffers mapped only while
 * they live.
 */
void
pinMmapThreshold()
{
#ifdef __GLIBC__
    static std::once_flag once;
    std::call_once(once, [] { mallopt(M_MMAP_THRESHOLD, 128 * 1024); });
#endif
}

} // namespace

LoopPointPipeline::CheckpointedSimResult
LoopPointPipeline::simulateRegionsCheckpointed(const LoopPointResult &lp,
                                               const SimConfig &sim_cfg,
                                               bool constrained) const
{
    using clock = std::chrono::steady_clock;
    auto seconds_since = [](clock::time_point t0) {
        return std::chrono::duration<double>(clock::now() - t0).count();
    };

    pinMmapThreshold();
    CheckpointedSimResult out;
    out.jobs = ThreadPool::resolveWorkers(sim_cfg.jobs);
    out.regionMetrics.resize(lp.regions.size());
    out.regionWallSeconds.resize(lp.regions.size(), 0.0);
    out.regionOutcomes.resize(lp.regions.size());
    DiagnosticSink sink;

    Tracer &tracer = Tracer::global();

    auto t_phase = clock::now();
    ScopedSpan phase_span(tracer, "phase.checkpointed");

    // Process regions in program order so a single warming pass can
    // take every checkpoint.
    std::vector<size_t> order(lp.regions.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return lp.regions[a].sliceIndex < lp.regions[b].sliceIndex;
    });

    auto pc_index = buildPcIndex(*prog);
    auto block_of = [&](Addr pc) {
        auto it = pc_index.find(pc);
        if (it == pc_index.end())
            fatal("checkpointed simulation: no block at pc %#llx",
                  static_cast<unsigned long long>(pc));
        return it->second;
    };

    // Store stages, keyed on the cluster hash. Sim: a region whose
    // record the store holds (a rerun after a kill, an interrupt or a
    // degraded run) is taken from it. Warm: every other region's start
    // state is a stored checkpoint keyed on the warm partition
    // (SimConfig::warmKeyText), which all uarch points that differ
    // only in latencies or the core share. If every region still to
    // simulate has one, the phase runs no warming pass.
    const bool stages = cache && !lp.stageHashes.cluster.empty();
    const std::string sim_key =
        stages ? StageCache::simKey(lp.stageHashes.cluster, sim_cfg,
                                    constrained)
               : std::string();
    std::vector<std::optional<RunJournal::Record>> stored(
        lp.regions.size());
    std::vector<std::string> warm_keys;
    std::vector<uint8_t> warm_bound(lp.regions.size(), 0);
    std::atomic<uint32_t> warm_hits{0}, warm_published{0};
    bool warm_hit = stages;
    if (stages) {
        for (size_t i = 0; i < lp.regions.size(); ++i) {
            const auto idx = static_cast<uint32_t>(i);
            stored[i] = cache->loadSimRecord(sim_key, idx, lp.regions[i]);
            warm_keys.push_back(StageCache::warmKey(
                lp.stageHashes.cluster, sim_cfg, constrained, idx));
            if (stored[i])
                continue;
            warm_bound[i] = cache->hasWarm(warm_keys[i]) ? 1 : 0;
            if (!warm_bound[i])
                warm_hit = false;
        }
    }

    // The warming simulation. Its cache work splits across
    // `partitions` workers by set ownership (sim/warm_partition.hh)
    // when there is more than one, or runs inline in `base`. Either way
    // the checkpoints are bit-identical. Without its own cache work,
    // and in a phase served from warm checkpoints, `base` gets no cache
    // arrays.
    const uint32_t partitions =
        warm_hit ? 0 : PartitionedWarmer::partitionsFor(sim_cfg, out.jobs);
    ReplayArbiter base_arbiter(lp.pinball.log);
    MulticoreSim base(*prog, execConfig(), sim_cfg,
                      constrained ? &base_arbiter : nullptr,
                      partitions == 1 ? CacheBacking::Owned
                                      : CacheBacking::Deferred);

    // Every region reports here, possibly from several pool worker
    // threads at once: everything touched is either index-addressed
    // (the out arrays), atomic (counters), or internally locked (sink,
    // store).
    const uint32_t max_attempts = 1 + sim_cfg.regionRetries;
    auto on_completion = [&](const RegionCompletion &c) {
        const size_t idx = c.item.index;
        RegionOutcome &outcome = out.regionOutcomes[idx];
        outcome.ok = c.result.ok;
        outcome.attempts = c.result.attempts;
        outcome.error = c.result.error;
        if (c.killed) {
            // Simulated host death: the phase is about to unwind;
            // record the outcome and nothing else.
            return;
        }
        if (c.result.ok) {
            const SimMetrics &m = c.result.metrics;
            // idx is unique per region: each completion writes its
            // own slot.
            out.regionMetrics[idx] = m;
            if (c.result.attempts > 1)
                sink.warning("fault-tolerance",
                             "region " + std::to_string(idx),
                             "recovered on attempt " +
                                 std::to_string(c.result.attempts) +
                                 " of " + std::to_string(max_attempts));
            if (stages) {
                RunJournal::Record rec;
                rec.regionIndex = static_cast<uint32_t>(idx);
                rec.start = c.item.start;
                rec.end = c.item.end;
                rec.multiplier = c.item.multiplier;
                rec.attempts = c.result.attempts;
                rec.metrics = m;
                cache->publishSimRecord(sim_key, rec);
            }
        } else {
            sink.error("fault-tolerance",
                       "region " + std::to_string(idx),
                       "dropped after " +
                           std::to_string(c.result.attempts) +
                           " attempt(s): " + c.result.error);
        }
        out.regionWallSeconds[idx] = c.wallSeconds;
    };

    // Re-warm one region whose stored checkpoint is unusable: replay
    // the warming pass from program start with the *exact* original
    // stop schedule — the fast-forward scheduler's quantum rotation
    // restarts at each stop, so every stop (not just the target's)
    // shapes the trajectory — and encode its start state. Bit-identical
    // to the warming pass by construction.
    auto rewarm = [&](const RegionWorkItem &item) {
        ScopedSpan rewarm_span(tracer, "warm.rewarm");
        rewarm_span.arg("region", static_cast<uint64_t>(item.index));
        ReplayArbiter arbiter(lp.pinball.log);
        MulticoreSim sim(*prog, execConfig(), sim_cfg,
                         constrained ? &arbiter : nullptr);
        for (size_t j : order) {
            const LoopPointRegion &r = lp.regions[j];
            if (r.start.pc != 0 && r.start.count > 0) {
                BlockId start_block = block_of(r.start.pc);
                sim.fastForwardUntil(start_block, r.start.count,
                                     /*warm=*/true);
            }
            if (j == item.index)
                break;
        }
        return WarmSnapshot::encode(sim, arbiter, item);
    };

    // Restore a snapshot from a checkpoint payload on the thread that
    // runs the region, with its image bound in place.
    auto restore_warm = [&](std::string payload,
                            const RegionWorkItem &item,
                            std::string &why) {
        return WarmSnapshot::restore(std::move(payload), item, *prog,
                                     execConfig(), sim_cfg,
                                     lp.pinball.log, why);
    };

    // Simulate from a checkpoint this phase took, in its own buffer.
    auto restore_own = [&](std::string payload,
                           const RegionWorkItem &item) {
        std::string why;
        auto snap = restore_warm(std::move(payload), item, why);
        if (!snap)
            panic("region %u: own warm checkpoint does not restore (%s)",
                  item.index, why.c_str());
        return snap;
    };

    // Publish a region's start state and simulate from the published
    // buffer itself. Runs on the thread that executes the region.
    auto publish_warm = [&](std::string payload,
                            const RegionWorkItem &item) {
        {
            ScopedSpan span(tracer, "warm.publish");
            span.arg("region", static_cast<uint64_t>(item.index))
                .arg("bytes", static_cast<uint64_t>(payload.size()));
            cache->publishWarm(warm_keys[item.index], payload);
        }
        warm_published.fetch_add(1, std::memory_order_relaxed);
        return restore_own(std::move(payload), item);
    };

    // Load, verify and adopt a region's stored start state. A miss
    // here (evicted by a concurrent gc, corrupt and evicted, or a
    // mismatched image) re-warms that one region from program start
    // with the original stop schedule — bit-identical to the warming
    // pass, see `rewarm` — and republishes it.
    auto load_warm = [&](const RegionWorkItem &item) {
        {
            ScopedSpan span(tracer, "warm.load");
            span.arg("region", static_cast<uint64_t>(item.index));
            if (auto payload = cache->loadWarm(warm_keys[item.index])) {
                span.arg("bytes", static_cast<uint64_t>(payload->size()));
                std::string why;
                if (auto snap =
                        restore_warm(std::move(*payload), item, why)) {
                    warm_hits.fetch_add(1, std::memory_order_relaxed);
                    span.arg("outcome", "hit");
                    return snap;
                }
                warn("warm checkpoint of region %u unusable (%s); "
                     "re-warming it", item.index, why.c_str());
            }
            span.arg("outcome", "miss");
        }
        return publish_warm(rewarm(item), item);
    };

    // A shutdown request — supervisor SIGTERM/SIGINT, or the injected
    // `kind=interrupt` fault standing in for one — parks the phase at
    // this region boundary: regions already submitted finish and
    // publish their records, nothing new launches, and the caller
    // reports the run as resumable rather than degraded.
    auto park_at = [&](size_t idx) {
        if (sim_cfg.faults.simFault(static_cast<uint32_t>(idx), 0) ==
            FaultSpec::Kind::Interrupt)
            requestShutdown();
        if (!shutdownRequested())
            return false;
        out.interrupted = true;
        sink.warning("fault-tolerance", "region " + std::to_string(idx),
                     "shutdown requested: warming parked at this "
                     "region boundary (rerun to continue)");
        return true;
    };

    // A region with a stored record needs no snapshot and no
    // detailed simulation, the expensive parts.
    auto take_stored = [&](size_t idx) {
        const auto &rec = stored[idx];
        if (!rec)
            return false;
        out.regionMetrics[idx] = rec->metrics;
        out.regionOutcomes[idx].ok = true;
        out.regionOutcomes[idx].fromStore = true;
        out.regionOutcomes[idx].attempts = rec->attempts;
        ++out.simHits;
        tracer.instant("store.sim_hit",
                       {{"region", std::to_string(idx), false}});
        return true;
    };

    auto make_item = [&](size_t idx) {
        const LoopPointRegion &region = lp.regions[idx];
        // Divergence watchdog budget: generous over any legitimate
        // spin inflation, so it only fires when the end marker is
        // genuinely unreachable.
        uint64_t budget = 0;
        if (sim_cfg.watchdogFactor) {
            const uint64_t floor_icount =
                std::max<uint64_t>(region.filteredIcount, 10'000);
            if (__builtin_mul_overflow(sim_cfg.watchdogFactor,
                                       floor_icount, &budget))
                budget = std::numeric_limits<uint64_t>::max();
        }
        RegionWorkItem item;
        item.index = static_cast<uint32_t>(idx);
        item.start = region.start;
        item.end = region.end;
        item.multiplier = region.multiplier;
        item.filteredIcount = region.filteredIcount;
        // Marker blocks resolve on the producer thread so region
        // execution can never throw a missing-block FatalError.
        item.endBlock =
            region.end.pc ? block_of(region.end.pc) : kInvalidBlock;
        item.budget = budget;
        item.maxAttempts = max_attempts;
        item.constrained = constrained;
        return item;
    };

    // Which side of a partitioned warming pass stalled: the producer
    // waiting for a partition's free chunk, or the partitions (summed)
    // waiting for accesses.
    double warm_producer_wait = 0.0, warm_partition_idle = 0.0;
    // Records the partitions applied, and accesses the producer
    // dropped as exact repeats (sim/warm_partition.hh).
    uint64_t warm_shipped = 0, warm_dropped = 0;

    // Captured checkpoints whose region task has not started yet. Each
    // holds a payload (~2.35 MB at four threads), so the warming
    // producer captures the next one only while fewer than `jobs` are
    // queued: a producer faster than the regions then waits instead of
    // queueing payloads without bound, and every worker still finds a
    // region ready when it frees up.
    std::mutex queued_mtx;
    std::condition_variable queued_cv;
    uint32_t queued_checkpoints = 0;
    double checkpoint_wait_s = 0.0;

    // The executor is destroyed before `out`, the sink and the lambdas
    // above on unwind, draining whatever is in flight.
    RegionExecutor executor(out.jobs > 1 ? poolFor(out.jobs) : nullptr,
                            sim_cfg.faults, on_completion);

    if (warm_hit) {
        // Every start state is stored: no warming pass. The boundary
        // walk stays in program order so a shutdown parks at the same
        // region as it would on the warming path; the launched regions
        // then go out longest first, so the phase's wall time tends to
        // the slowest region.
        std::vector<RegionWorkItem> launch;
        for (size_t idx : order) {
            if (park_at(idx))
                break;
            if (take_stored(idx))
                continue;
            launch.push_back(make_item(idx));
        }
        std::stable_sort(launch.begin(), launch.end(),
                         [](const RegionWorkItem &a,
                            const RegionWorkItem &b) {
                             return a.filteredIcount > b.filteredIcount;
                         });
        executor.submit(std::move(launch), load_warm);
    } else {
        // Checkpoint fanout: the warming pass (one execution, so its
        // engine steps serially) advances in program order; each
        // checkpoint it reaches goes straight to the executor, so
        // region bodies simulate while warming continues toward the
        // next checkpoint. With jobs == 1 the executor runs each
        // region inline, which is exactly the serial schedule.
        std::optional<PartitionedWarmer> warmer;
        if (partitions > 1)
            warmer.emplace(sim_cfg, opts.numThreads, partitions);
        for (size_t idx : order) {
            if (park_at(idx))
                break;
            const LoopPointRegion &region = lp.regions[idx];

            // Advance the warming pass to the region start. This
            // happens for stored regions too: the fast-forward
            // scheduler's quantum rotation restarts at each stop, so
            // the stops themselves are part of the warming trajectory
            // — a rerun must stop exactly where the original did to
            // keep the downstream regions bit-identical.
            auto t_ff = clock::now();
            {
                ScopedSpan warm_span(tracer, "warm.fastforward");
                warm_span.arg("region", static_cast<uint64_t>(idx));
                if (region.start.pc != 0 && region.start.count > 0) {
                    BlockId start_block = block_of(region.start.pc);
                    if (warmer)
                        base.fastForwardUntil(start_block,
                                              region.start.count, *warmer);
                    else
                        base.fastForwardUntil(start_block,
                                              region.start.count,
                                              /*warm=*/true);
                }
            }
            out.checkpointWallSeconds += seconds_since(t_ff);
            if (take_stored(idx))
                continue;

            // Capture the state as its checkpoint payload here
            // (warming moves on); the partition workers, if any, fill
            // in its cache image. The region's task waits for it,
            // publishes it when the store lacks it, and simulates in
            // that same buffer, so each queued region holds one image.
            {
                std::unique_lock<std::mutex> lock(queued_mtx);
                if (queued_checkpoints >= out.jobs) {
                    const auto t_wait = clock::now();
                    queued_cv.wait(lock, [&] {
                        return queued_checkpoints < out.jobs;
                    });
                    checkpoint_wait_s += seconds_since(t_wait);
                }
                ++queued_checkpoints;
            }
            RegionWorkItem item = make_item(idx);
            std::shared_ptr<WarmCheckpoint> ckpt =
                warmer ? warmer->checkpoint(
                             WarmSnapshot::encode(base, base_arbiter, item,
                                                  /*caches=*/false),
                             WarmSnapshot::kImageOffset)
                       : std::make_shared<WarmCheckpoint>(
                             WarmSnapshot::encode(base, base_arbiter,
                                                  item));
            const bool publish = stages && !warm_bound[idx];
            executor.submit(
                {item}, [&publish_warm, &restore_own, &queued_mtx,
                         &queued_cv, &queued_checkpoints, ckpt,
                         publish](const RegionWorkItem &it) {
                    {
                        std::lock_guard<std::mutex> lock(queued_mtx);
                        --queued_checkpoints;
                    }
                    queued_cv.notify_one();
                    std::string payload = ckpt->take();
                    return publish ? publish_warm(std::move(payload), it)
                                   : restore_own(std::move(payload), it);
                });
        }
        if (warmer) {
            // The pass ends when the workers have drained their
            // backlog, not when the producer stops stepping.
            auto t_drain = clock::now();
            warmer->finish();
            out.checkpointWallSeconds += seconds_since(t_drain);
            warm_producer_wait = warmer->producerWaitSeconds();
            warm_partition_idle = warmer->partitionIdleSeconds();
            warm_shipped = warmer->shippedRecords();
            warm_dropped = warmer->droppedRecords();
        }
        out.warmPartitions = partitions;
    }

    // Drain the executor (this thread helps run queued regions instead
    // of idling). The first exception that must escape the phase — an
    // InjectedKill — is rethrown once everything is quiescent.
    executor.finish();
    out.warmStageHit = warm_hit;
    out.warmHits = warm_hits.load();
    out.warmPublished = warm_published.load();

    // Coverage: the weight fraction of the extrapolation backed by
    // usable regions. All-ok sums are identical, so division yields
    // exactly 1.0 on the fault-free path.
    double total_weight = 0.0, ok_weight = 0.0;
    for (size_t i = 0; i < lp.regions.size(); ++i) {
        const double w =
            lp.regions[i].multiplier *
            static_cast<double>(lp.regions[i].filteredIcount);
        total_weight += w;
        if (out.regionOutcomes[i].ok)
            ok_weight += w;
    }
    out.coverage = total_weight > 0.0 ? ok_weight / total_weight : 1.0;
    out.diagnostics = sink.take();
    out.phaseWallSeconds = seconds_since(t_phase);
    phase_span.arg("jobs", out.jobs)
        .arg("regions", static_cast<uint64_t>(lp.regions.size()))
        .arg("sim_hits", static_cast<uint64_t>(out.simHits))
        .arg("coverage", out.coverage)
        .arg("phase_wall_seconds", out.phaseWallSeconds)
        .arg("warm_hits", out.warmHits)
        .arg("warm_published", out.warmPublished)
        .arg("warm_partitions", out.warmPartitions)
        .arg("warm_producer_wait_s", warm_producer_wait)
        .arg("warm_partition_idle_s", warm_partition_idle)
        .arg("warm_shipped", warm_shipped)
        .arg("warm_dropped", warm_dropped)
        .arg("checkpoint_wait_s", checkpoint_wait_s);
    // Close now, not at frame exit: the span duration must agree with
    // phaseWallSeconds (lp_report --check enforces 1%).
    phase_span.finish();
    return out;
}

MetricPrediction
extrapolateMetrics(const LoopPointResult &lp,
                   const std::vector<SimMetrics> &region_metrics,
                   const SimConfig &sim_cfg)
{
    return extrapolateMetrics(
        lp, region_metrics,
        std::vector<uint8_t>(lp.regions.size(), 1), sim_cfg);
}

MetricPrediction
extrapolateMetrics(const LoopPointResult &lp,
                   const std::vector<SimMetrics> &region_metrics,
                   const std::vector<uint8_t> &ok_mask,
                   const SimConfig &sim_cfg)
{
    if (region_metrics.size() != lp.regions.size())
        fatal("extrapolateMetrics: %zu region metrics for %zu regions",
              region_metrics.size(), lp.regions.size());
    if (ok_mask.size() != lp.regions.size())
        fatal("extrapolateMetrics: %zu mask entries for %zu regions",
              ok_mask.size(), lp.regions.size());

    // Covered weight fraction (Eq. 2 weights over filtered work).
    double total_weight = 0.0, ok_weight = 0.0;
    for (size_t i = 0; i < lp.regions.size(); ++i) {
        const double w =
            lp.regions[i].multiplier *
            static_cast<double>(lp.regions[i].filteredIcount);
        total_weight += w;
        if (ok_mask[i])
            ok_weight += w;
    }
    const double coverage =
        total_weight > 0.0 ? ok_weight / total_weight : 1.0;

    MetricPrediction p;
    p.coverage = coverage;
    if (coverage <= 0.0)
        return p; // nothing usable: an explicitly empty prediction

    // Renormalize the surviving multipliers so the prediction still
    // targets the whole program. Full coverage divides by exactly
    // 1.0, which leaves every multiplier bit-identical to the plain
    // extrapolation.
    const double renorm = 1.0 / coverage;
    for (size_t i = 0; i < lp.regions.size(); ++i) {
        if (!ok_mask[i])
            continue;
        const double mult = lp.regions[i].multiplier * renorm;
        const SimMetrics &m = region_metrics[i];
        p.runtimeSeconds += m.runtimeSeconds * mult;
        p.cycles += static_cast<double>(m.cycles) * mult;
        p.instructions += static_cast<double>(m.instructions) * mult;
        p.filteredInstructions +=
            static_cast<double>(m.filteredInstructions) * mult;
        p.branchMispredicts +=
            static_cast<double>(m.branchMispredicts) * mult;
        p.l1dMisses += static_cast<double>(m.l1dMisses) * mult;
        p.l2Misses += static_cast<double>(m.l2Misses) * mult;
        p.l3Misses += static_cast<double>(m.l3Misses) * mult;
    }
    (void)sim_cfg;
    return p;
}

} // namespace looppoint
