/**
 * @file
 * The LoopPoint pipeline (paper Section III): record once while
 * building the DCFG (replay rebuilds the same graph, only for a stored
 * pinball), replay for BBV profiling with spin filtering, cluster
 * slices, select looppoints with multipliers, simulate them
 * unconstrained (or constrained), and extrapolate performance.
 *
 * Usage:
 *
 *   LoopPointOptions opts;
 *   LoopPointPipeline pipe(program, opts);
 *   LoopPointResult lp = pipe.analyze();
 *   auto ckpt = pipe.simulateRegionsCheckpointed(lp, sim_cfg);
 *   MetricPrediction pred = extrapolateMetrics(
 *       lp, ckpt.regionMetrics, ckpt.okMask(), sim_cfg);
 */

#ifndef LOOPPOINT_CORE_LOOPPOINT_HH
#define LOOPPOINT_CORE_LOOPPOINT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/diagnostic.hh"
#include "cluster/kmeans.hh"
#include "isa/program.hh"
#include "pinball/pinball.hh"
#include "profile/bbv.hh"
#include "sim/config.hh"
#include "sim/multicore.hh"

namespace looppoint {

class RunJournal;
class StageCache;
class ThreadPool;

/** Tunables of the analysis phase. */
struct LoopPointOptions
{
    uint32_t numThreads = 8;
    WaitPolicy waitPolicy = WaitPolicy::Passive;
    /**
     * Per-thread slice-size target; the global slice size is
     * numThreads x this (the paper's N x 100M rule, scaled to the
     * synthetic workload sizes).
     */
    uint64_t sliceSizePerThread = 100'000;
    uint32_t maxK = 50;
    uint32_t projectionDims = 100;
    double bicThreshold = 0.9;
    uint64_t seed = 42;
    uint64_t flowQuantum = 1000;
    /**
     * Filter synchronization-library code out of BBVs and instruction
     * counts (the paper's method). Disable only for ablation.
     */
    bool filterSpin = true;
    /**
     * Host worker threads for the analysis phase (feature projection
     * and the k-means BIC sweep); above 1, a cold recording is also
     * pipelined (exec/block_pipe.hh). 1 = serial, 0 = hardware
     * concurrency. Results are bit-identical for any value.
     */
    uint32_t jobs = 1;
};

/** One selected representative region ("looppoint"). */
struct LoopPointRegion
{
    uint32_t cluster = 0;
    /** Index of the representative slice. */
    uint32_t sliceIndex = 0;
    Marker start;
    Marker end;
    /** Filtered instructions in the representative slice. */
    uint64_t filteredIcount = 0;
    /** Eq. (2): cluster work / representative work. */
    double multiplier = 1.0;
};

/**
 * Content hashes of the analysis-stage artifacts, when a stage cache
 * was attached (empty strings otherwise). Downstream stage keys chain
 * on these, so invalidation propagates without any global version
 * number. The hit flags say whether the stage was served from the
 * store or computed (and published) this run.
 */
struct StageHashes
{
    std::string record;
    std::string profile;
    std::string cluster;
    bool recordHit = false;
    bool profileHit = false;
    bool clusterHit = false;
};

/** Complete analysis output. */
struct LoopPointResult
{
    Pinball pinball;
    std::vector<SliceRecord> slices;
    std::vector<uint32_t> assignment; ///< slice -> cluster
    uint32_t chosenK = 0;
    std::vector<double> bicByK;
    std::vector<LoopPointRegion> regions;
    uint64_t totalFilteredIcount = 0;
    uint64_t totalIcount = 0;
    /** Serial-equivalent clustering time (sum over K candidates). */
    double clusterSerialSeconds = 0.0;
    /** Measured wall time of the clustering sweep. */
    double clusterWallSeconds = 0.0;
    /** Findings about this run: degraded regions (runExperiment)
     * and, when audited, the artifact audit's (auditExperiment). */
    std::vector<Diagnostic> diagnostics;
    /** Artifact-store provenance (empty without a stage cache). */
    StageHashes stageHashes;

    /** Work reduction with regions simulated back-to-back. */
    double theoreticalSerialSpeedup() const;
    /** Work reduction with all regions simulated in parallel. */
    double theoreticalParallelSpeedup() const;
};

/**
 * Fate of one region's checkpointed simulation: whether it produced
 * usable metrics, where they came from, and what went wrong if not.
 */
struct RegionOutcome
{
    /** Metrics are valid (simulated or journaled). */
    bool ok = true;
    /** Metrics came from a resume journal; nothing was re-simulated. */
    bool fromJournal = false;
    /** Simulation attempts consumed (0 for a journal hit's skip). */
    uint32_t attempts = 0;
    /** Last failure message when !ok (empty otherwise). */
    std::string error;
};

/** Whole-program predictions from simulated looppoints (Eq. 1). */
struct MetricPrediction
{
    /**
     * Fraction of the extrapolation weight backed by successfully
     * simulated regions. 1.0 exactly for a fault-free run; < 1.0 when
     * regions were dropped and the remaining Eq. 2 weights were
     * renormalized (graceful degradation).
     */
    double coverage = 1.0;
    double runtimeSeconds = 0.0;
    double cycles = 0.0;
    double instructions = 0.0;
    /** Extrapolated main-image instructions (exact by Eq. 2 closure). */
    double filteredInstructions = 0.0;
    double branchMispredicts = 0.0;
    double l1dMisses = 0.0;
    double l2Misses = 0.0;
    double l3Misses = 0.0;

    // MPKI rates are normalized by *filtered* (main-image)
    // instructions: spin instruction counts are timing-dependent, so
    // a total-instruction denominator would inject artificial noise
    // into the comparison under active waiting.
    double
    branchMpki() const
    {
        return filteredInstructions
                   ? 1000.0 * branchMispredicts / filteredInstructions
                   : 0.0;
    }
    double
    l2Mpki() const
    {
        return filteredInstructions
                   ? 1000.0 * l2Misses / filteredInstructions
                   : 0.0;
    }
};

/** See file comment. */
class LoopPointPipeline
{
  public:
    LoopPointPipeline(const Program &prog, LoopPointOptions opts);
    ~LoopPointPipeline(); ///< out-of-line: ThreadPool is incomplete here

    /** Run the full analysis: record, profile, cluster, select. */
    LoopPointResult analyze();

    /** Detailed simulation of the entire program (ground truth). */
    SimMetrics simulateFull(const SimConfig &sim_cfg) const;

    /** Result of checkpoint-driven simulation of all looppoints. */
    struct CheckpointedSimResult
    {
        /** Per-region metrics, ordered like LoopPointResult::regions. */
        std::vector<SimMetrics> regionMetrics;
        /** Detailed-simulation wall time per region (seconds). */
        std::vector<double> regionWallSeconds;
        /**
         * One-time warming/checkpoint-generation pass (seconds): the
         * warming stops summed (a stop includes waiting on full
         * partition queues) plus, with partitioned warming, the drain
         * of the partition workers' backlog after the last stop, so
         * it ends when the last checkpoint is complete. Time spent
         * handing regions to the executor is excluded.
         */
        double checkpointWallSeconds = 0.0;
        /**
         * Portion of checkpointWallSeconds spent fast-forwarding to
         * regions that were then satisfied from the resume journal.
         * That warming work exists only because of the resume (a
         * fresh serial run would also do it, but it backs no region
         * simulation here), so the speedup accounting below removes
         * it from both sides of the ratio. 0 on fresh runs.
         */
        double journalWarmSeconds = 0.0;
        /** End-to-end wall time of the whole checkpointed phase
         * (warming plus all region simulations, as overlapped). */
        double phaseWallSeconds = 0.0;
        /** Host workers the phase ran with. */
        uint32_t jobs = 1;
        /** Per-region fate, ordered like regionMetrics. */
        std::vector<RegionOutcome> regionOutcomes;
        /** Regions satisfied from the resume journal. */
        size_t journalHits = 0;
        /** The phase ran without a warming pass: a store is attached
         * and every region still to simulate had a warm checkpoint. */
        bool warmStageHit = false;
        /** Regions simulated from a stored warm checkpoint. */
        uint32_t warmHits = 0;
        /** Regions whose warm checkpoint this phase published. */
        uint32_t warmPublished = 0;
        /** Cache-set partitions the warming pass split its cache work
         * across: 1 = inline serial warming (jobs == 1, or the
         * prefetcher on), 0 = no warming pass ran. */
        uint32_t warmPartitions = 0;
        /** Weight fraction of usable regions (1.0 when all ok). */
        double coverage = 1.0;
        /** Failure/retry findings (pass "fault-tolerance"). */
        std::vector<Diagnostic> diagnostics;
        /** True when a shutdown request parked the warming pass at a
         * region boundary: the remaining regions were never launched
         * and the run must be resumed, not trusted as degraded. */
        bool interrupted = false;

        /** Regions with no usable metrics after all retries. */
        size_t failedRegions() const;
        /** okMask()[i] != 0 iff region i has usable metrics. */
        std::vector<uint8_t> okMask() const;

        /** What one host thread would have needed for the work that
         * actually ran (warming pass plus every simulated region back
         * to back, minus warming attributable to journal hits). */
        double serialEquivalentSeconds() const;
        /** Measured host-parallel self-relative speedup:
         * serial-equivalent time over measured phase wall time, both
         * excluding journal-hit warming so resumed runs don't count
         * replayed regions as parallel work on one side of the ratio
         * only. 0 when nothing parallelizable ran (full resume). */
        double hostParallelSpeedup() const;
        /** hostParallelSpeedup() normalized by the worker count. */
        double parallelEfficiency() const;
    };

    /**
     * Checkpoint-driven simulation (the paper's headline deployment):
     * one flow-controlled warming pass over the program snapshots the
     * full simulation state (functional cursors + caches + predictors
     * + clocks) at every looppoint boundary — the region-pinball
     * analog — and each region then simulates independently from its
     * checkpoint. Region wall times therefore exclude the shared
     * analysis pass and are what parallel deployment would see.
     *
     * Checkpoint fanout: with sim_cfg.jobs != 1, each checkpoint is
     * handed to the region executor (core/region_exec.hh) as soon as
     * it is taken, so region bodies simulate concurrently while the
     * warming pass advances toward the next checkpoint (the warming
     * thread joins the workers once the last checkpoint is out). The
     * warming pass itself splits its cache work across min(jobs,
     * fewest cache sets) partition threads by set ownership
     * (sim/warm_partition.hh; not with the next-line prefetcher, which
     * couples sets), while the engine and the branch predictors step
     * on the calling thread. Region results are bit-identical for any jobs count:
     * every checkpoint image equals the serial pass's, and every
     * region simulates from its own restored checkpoint and shares no
     * mutable state.
     *
     * Fault tolerance: a region whose simulation throws or diverges
     * (end marker unreachable within the watchdog budget) is retried
     * from its checkpoint up to sim_cfg.regionRetries times, then
     * dropped — its outcome records the failure, coverage drops below
     * 1.0, and the run completes degraded instead of dying. With
     * `journal`, every completed region is persisted, in program
     * order whatever the jobs count, and regions already journaled by
     * a previous (crashed) run are reused without re-simulation;
     * resumed results are bit-identical to an uninterrupted run.
     *
     * Warm checkpoints: with a stage cache attached (setStageCache),
     * each region's start state — replay cursors, functional state and
     * microarch image — is stored under the `warm` stage key, which
     * covers only what warming depends on (SimConfig::warmKeyText). A
     * phase whose regions all have one skips the warming pass: every
     * region loads its own checkpoint on the worker that runs it,
     * longest region first. Otherwise the warming pass runs and each
     * region task publishes its checkpoint. Region metrics are
     * bit-identical either way.
     */
    CheckpointedSimResult simulateRegionsCheckpointed(
        const LoopPointResult &lp, const SimConfig &sim_cfg,
        bool constrained = false, RunJournal *journal = nullptr) const;

    const LoopPointOptions &options() const { return opts; }

    /**
     * Attach a stage cache: analyze() then serves recording,
     * profiling, and clustering from the store when their stage keys
     * hit, and publishes freshly computed artifacts back;
     * simulateRegionsCheckpointed() likewise uses its warm stage.
     * Results are bit-identical either way; nullptr detaches.
     */
    void setStageCache(StageCache *cache_) { cache = cache_; }

  private:
    ExecConfig execConfig() const;

    /**
     * The pipeline's shared pool, (re)built for `jobs` workers;
     * nullptr when jobs resolves to 1 (serial).
     */
    ThreadPool *poolFor(uint32_t jobs) const;

    const Program *prog;
    LoopPointOptions opts;
    StageCache *cache = nullptr;
    mutable std::unique_ptr<ThreadPool> sharedPool;
};

/**
 * Eq. (1) extrapolation over any additive metric; runtime uses the
 * frequency from `sim_cfg`.
 */
MetricPrediction extrapolateMetrics(
    const LoopPointResult &lp,
    const std::vector<SimMetrics> &region_metrics,
    const SimConfig &sim_cfg);

/**
 * Degradation-aware Eq. (1): regions with ok_mask[i] == 0 are dropped
 * and the surviving Eq. 2 multipliers are renormalized by the covered
 * weight fraction, so the prediction stays an estimate of the *whole*
 * program. The returned coverage reports how much weight survived;
 * with a full mask this is exactly the plain extrapolation (the
 * renormalization factor is exactly 1.0).
 */
MetricPrediction extrapolateMetrics(
    const LoopPointResult &lp,
    const std::vector<SimMetrics> &region_metrics,
    const std::vector<uint8_t> &ok_mask, const SimConfig &sim_cfg);

/**
 * Build the (projected) clustering feature matrix from slices:
 * instruction-weighted, normalized, per-thread-concatenated BBVs under
 * a deterministic random projection. Exposed for tests and ablations.
 * With `pool`, slices project in parallel (one index-addressed row
 * per slice; bit-identical for any worker count).
 */
FeatureMatrix buildFeatureMatrix(const Program &prog,
                                 const std::vector<SliceRecord> &slices,
                                 uint32_t dims, uint64_t seed,
                                 ThreadPool *pool = nullptr);

} // namespace looppoint

#endif // LOOPPOINT_CORE_LOOPPOINT_HH
