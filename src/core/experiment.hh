/**
 * @file
 * End-to-end experiment runner: the programmatic equivalent of the
 * artifact's run-looppoint.py. Runs the LoopPoint analysis on one
 * app/input/thread/policy combination, simulates the looppoints and
 * (optionally) the full application, and reports prediction errors and
 * speedups — everything the paper's evaluation figures are built from.
 */

#ifndef LOOPPOINT_CORE_EXPERIMENT_HH
#define LOOPPOINT_CORE_EXPERIMENT_HH

#include <string>
#include <vector>

#include "core/looppoint.hh"
#include "store/artifact_store.hh"
#include "workload/descriptor.hh"

namespace looppoint {

/** What to run. */
struct ExperimentConfig
{
    std::string app = "demo-matrix";
    InputClass input = InputClass::Train;
    uint32_t requestedThreads = 8;
    WaitPolicy waitPolicy = WaitPolicy::Passive;
    SimConfig sim;
    LoopPointOptions loopPoint;
    /** Constrained (PinPlay-ordered) region simulation. */
    bool constrainedRegions = false;
    /**
     * Host worker threads for the parallel phases (clustering sweep,
     * checkpoint-fanout region simulation, and the cache-set
     * partitions of the warming pass); overrides loopPoint.jobs and
     * sim.jobs. 1 = serial, 0 = hardware concurrency. Simulated
     * results are bit-identical for any value.
     */
    uint32_t jobs = 1;
    /**
     * Simulate the whole application in detail for ground truth.
     * Disable for ref-style inputs where only the analysis phase and
     * theoretical speedups are wanted (paper Fig. 9).
     */
    bool simulateFull = true;
    /**
     * Path of the crash-safe run journal. Empty disables journaling.
     * Completed regions are appended as they finish; see `resume`.
     */
    std::string journalPath;
    /**
     * Resume from `journalPath`: the journal must exist and match this
     * run's identity; already-journaled regions are reused instead of
     * re-simulated (bit-identical to an uninterrupted run).
     */
    bool resume = false;
    /**
     * Directory of the content-addressed artifact store. When set,
     * every pipeline stage (recording, profiling, clustering, region
     * simulation, full simulation) is memoized: a stage whose key hits
     * is served from the store bit-identically instead of recomputed,
     * and fresh results are published back. Empty disables. Safe to
     * share between concurrent runs (flock-serialized).
     */
    std::string storeDir;
};

/** Everything the evaluation needs, for one experiment. */
struct ExperimentResult
{
    std::string app;
    uint32_t threads = 0;
    LoopPointResult analysis;
    std::vector<SimMetrics> regionMetrics;
    MetricPrediction predicted;
    SimMetrics fullSim;      ///< valid when cfg.simulateFull
    bool haveFullSim = false;

    /** |predicted - actual| runtime error in percent. */
    double runtimeErrorPct = 0.0;
    double cyclesErrorPct = 0.0;
    double branchMpkiAbsDiff = 0.0;
    double l2MpkiAbsDiff = 0.0;

    double theoreticalSerialSpeedup = 0.0;
    double theoreticalParallelSpeedup = 0.0;
    /** Measured simulator wall-clock speedups (when full sim ran). */
    double actualSerialSpeedup = 0.0;
    double actualParallelSpeedup = 0.0;

    double wallFullSeconds = 0.0;
    /** One-time checkpoint-generation (warming) pass. */
    double wallCheckpointSeconds = 0.0;
    double wallRegionsTotalSeconds = 0.0;
    double wallRegionsMaxSeconds = 0.0;
    /** Measured wall time of the whole checkpointed phase. */
    double wallPhaseSeconds = 0.0;

    /** Host workers the parallel phases ran with. */
    uint32_t jobs = 1;
    /** Measured host-parallel self-relative speedup of the
     * checkpointed phase (serial-equivalent / phase wall). */
    double hostParallelSpeedup = 0.0;
    /** hostParallelSpeedup / jobs. */
    double hostParallelEfficiency = 0.0;

    /** Extrapolation-weight fraction backed by usable regions (1.0
     * for a fault-free run; < 1.0 means the run completed degraded). */
    double coverage = 1.0;
    /** Regions dropped after exhausting their retry budget. */
    size_t failedRegions = 0;
    /** Regions reused from the resume journal. */
    size_t journalHits = 0;
    /** Warning/error findings of the artifact audit (--audit). */
    size_t auditFindings = 0;

    /** All region results came from the artifact store (no detailed
     * region simulation ran this run). */
    bool simStageHit = false;
    /** The full-program ground truth came from the artifact store. */
    bool fullSimHit = false;
    /** The checkpointed phase ran from stored warm checkpoints, with no
     * warming pass (see simulateRegionsCheckpointed). */
    bool warmStageHit = false;
    /** Regions simulated from a stored warm checkpoint. */
    uint32_t warmHits = 0;
    /** Regions whose warm checkpoint this run published. */
    uint32_t warmPublished = 0;
    /** Cache-set partitions of the warming pass (1 = inline serial
     * warming, 0 = no warming pass ran). */
    uint32_t warmPartitions = 0;
    /** Store traffic of this run (all-zero without cfg.storeDir). */
    StoreStats storeStats;
};

/** Run one experiment end to end. */
ExperimentResult runExperiment(const ExperimentConfig &cfg);

} // namespace looppoint

#endif // LOOPPOINT_CORE_EXPERIMENT_HH
