/**
 * @file
 * One region's warm checkpoint and its attempt loop.
 *
 * Checkpointed region simulation separates *producing* region work (a
 * serial warming pass that stops at each region start, or a stored
 * warm checkpoint) from *executing* it (warm snapshot in, metrics
 * out). This file holds the checkpoint codec and the execution core:
 * given a warm snapshot and a region's markers, run the detailed
 * simulation with the full retry/fault-injection/watchdog semantics.
 */

#ifndef LOOPPOINT_CORE_REGION_RUN_HH
#define LOOPPOINT_CORE_REGION_RUN_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "isa/program.hh"
#include "pinball/pinball.hh"
#include "profile/bbv.hh"
#include "sim/multicore.hh"
#include "util/fault.hh"

namespace looppoint {

struct RegionWorkItem;

/**
 * A region's warm simulation state plus its private replay arbiter:
 * a simulator restored from a warm checkpoint payload, or a deep copy
 * of one (a retried region's fresh attempt).
 *
 * Warm checkpoint payload (the store's `warm` stage artifact):
 *
 *   looppoint-warm-v1 region=<i> start=<pc>:<count> image=<bytes>
 *       constrained=<0|1>          one line, space-padded to 128 bytes
 *   <microarch image>              exactly <bytes> bytes (caches,
 *                                  sharer masks, predictor tables)
 *   arbiter ...                    constrained only: replay cursors
 *   <ExecutionEngine::save text>   functional state at the region start
 *
 * The image sits at a fixed 8-byte-aligned offset so a restored
 * simulator binds its cache arrays straight into the payload buffer
 * (MulticoreSim::adoptMicroarchState) instead of copying it: the
 * buffer is held in `backing` and becomes the live state.
 */
struct WarmSnapshot
{
    /** Payload whose image the sim's caches are bound into; empty for
     * a deep-copied snapshot. Declared first so it outlives `sim`. */
    std::string backing;
    MulticoreSim sim;
    ReplayArbiter arbiter;

    /** Deep copy; the arbiter is rebound (the MulticoreSim copy
     * aliases the source's arbiter otherwise). */
    WarmSnapshot(const MulticoreSim &base,
                 const ReplayArbiter &base_arbiter, bool constrained)
        : sim(base), arbiter(base_arbiter)
    {
        if (constrained)
            sim.engine().setArbiter(&arbiter);
    }

    /** An unbound simulator (CacheBacking::Deferred) for restore(). */
    WarmSnapshot(const Program &prog, const ExecConfig &exec_cfg,
                 const SimConfig &sim_cfg, const SyncLog &log)
        : sim(prog, exec_cfg, sim_cfg, nullptr, CacheBacking::Deferred),
          arbiter(log)
    {
    }

    /** Offset of the microarch image in a checkpoint payload. */
    static constexpr size_t kImageOffset = 128;

    /**
     * The warm state of `sim` + `arbiter` at `item`'s start as a
     * checkpoint payload (the image is exported into the buffer).
     * Without `caches` the image's cache hierarchy part is left zeroed
     * for partition workers to fill (PartitionedWarmer::checkpoint).
     */
    static std::string encode(const MulticoreSim &sim,
                              const ReplayArbiter &arbiter,
                              const RegionWorkItem &item,
                              bool caches = true);

    /**
     * A snapshot restored from a checkpoint payload for `item`, the
     * payload adopted as its live image (no copy). Any mismatch —
     * region, start marker, constrained flag, image size, unparsable
     * functional state — returns null with `why` set; the caller
     * treats it as a miss.
     */
    static std::shared_ptr<WarmSnapshot>
    restore(std::string payload, const RegionWorkItem &item,
            const Program &prog, const ExecConfig &exec_cfg,
            const SimConfig &sim_cfg, const SyncLog &log,
            std::string &why);
};

/** The fields of a warm checkpoint payload's header line. */
struct WarmHeader
{
    uint32_t region = 0;
    Marker start;
    size_t imageBytes = 0;
    bool constrained = false;
};

/**
 * Parse the `looppoint-warm-v1` header of a checkpoint payload (the
 * format WarmSnapshot::encode writes). Null unless the line is
 * well-formed, padded to kImageOffset, and its image fits in the
 * payload.
 */
std::optional<WarmHeader> parseWarmHeader(const std::string &payload);

/** Everything needed to simulate one region from its warm state. */
struct RegionWorkItem
{
    /** Index into LoopPointResult::regions (and the output arrays). */
    uint32_t index = 0;
    Marker start;
    Marker end;
    double multiplier = 1.0;
    uint64_t filteredIcount = 0;
    /** Resolved end-marker block; kInvalidBlock = run to completion.
     * Resolved by the producer so execution can never hit a
     * missing-block FatalError. */
    BlockId endBlock = kInvalidBlock;
    /** Divergence watchdog budget in instructions; 0 = no watchdog. */
    uint64_t budget = 0;
    /** 1 + regionRetries. */
    uint32_t maxAttempts = 1;
    bool constrained = false;

    bool operator==(const RegionWorkItem &other) const = default;
};

/** What one region's attempt loop produced. */
struct RegionRunResult
{
    bool ok = false;
    /** Attempts consumed. */
    uint32_t attempts = 0;
    std::string error;
    SimMetrics metrics;
};

/**
 * Run the attempt loop for one region on a pristine warm state.
 *
 * `pristine` must hold the simulation warmed exactly to the region
 * start. Semantics:
 *  - attempts run in [0, item.maxAttempts);
 *  - with retries in play (maxAttempts > 1) every attempt runs on a
 *    fresh copy of the pristine state; the single-attempt default
 *    runs in place, with no extra deep copy on the fault-free path;
 *  - kind=throw faults raise InjectedFault (retryable); kind=diverge
 *    retargets the stop at an unreachable count so the watchdog
 *    budget fires; kind=kill fills `out` and throws InjectedKill,
 *    which unwinds the phase like a host death.
 *
 * On return `out` is fully written: ok + metrics on success, or
 * ok=false + the last attempt's error once the budget is exhausted.
 * Only InjectedKill propagates (after filling `out`).
 */
void runRegionAttempts(const RegionWorkItem &item, WarmSnapshot &pristine,
                       const FaultPlan &faults, RegionRunResult &out);

} // namespace looppoint

#endif // LOOPPOINT_CORE_REGION_RUN_HH
