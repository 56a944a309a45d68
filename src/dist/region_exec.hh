/**
 * @file
 * The execution-backend seam of checkpointed region simulation.
 *
 * simulateRegionsCheckpointed is split into a *producer* — the
 * warming pass that advances one execution in program order and stops
 * at every region start — and an *executor* behind this interface.
 * The producer hands each region's work item plus a source of its warm
 * checkpoint to the backend; the backend runs the detailed
 * simulations (wherever and however it likes) and reports each region
 * through the completion sink. When every region's start state is a
 * stored warm checkpoint there is no warming pass: the producer hands
 * over all regions at once and the executor loads each checkpoint
 * itself. Because both backends run the same attempt loop
 * (dist/region_run.hh) on the same warm states, region metrics are
 * bit-identical across backends and worker counts.
 *
 * Implementations:
 *  - pool  (src/core/region_exec.cc): in-process thread-pool fanout;
 *    the region's task restores its checkpoint itself, so warming
 *    overlaps detailed simulation.
 *  - procs (src/dist/region_farm.hh): coordinator forks a persistent
 *    worker fleet once, then ships each region's warm state to an
 *    idle worker as a checkpoint — microarchitectural state through a
 *    per-slot shared-memory arena, functional state in a frame on a
 *    CRC32-framed socketpair protocol (task/result/progress travel
 *    the same channel). A killed or wedged worker is just another
 *    region failure: the coordinator respawns and retries within the
 *    region's attempt budget, and renormalizes coverage if the region
 *    ultimately drops.
 */

#ifndef LOOPPOINT_DIST_REGION_EXEC_HH
#define LOOPPOINT_DIST_REGION_EXEC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dist/region_run.hh"

namespace looppoint {

/** One region's outcome, delivered by a backend to the producer. */
struct RegionCompletion
{
    RegionWorkItem item;
    RegionRunResult result;
    /** Wall seconds the region's attempt loop ran (host-side; not part
     * of the simulated results). */
    double wallSeconds = 0.0;
    /** Worker slot that ran the region (0 for inline execution). */
    uint32_t worker = 0;
    /**
     * The region died of InjectedKill (simulated host death). The
     * sink must record the outcome and nothing else — under the pool
     * backend the kill is about to unwind the whole phase, exactly
     * like a real host death would.
     */
    bool killed = false;
};

/**
 * Called by the backend once per submitted region, with the final
 * outcome. May run on any backend thread (the pool backend invokes it
 * from worker threads); implementations must only touch state that is
 * safe under that concurrency, exactly like the historical in-task
 * completion code. The procs backend invokes it only on the
 * coordinator thread.
 */
using CompletionSink = std::function<void(const RegionCompletion &)>;

/**
 * Produces a region's pristine warm state: a warm checkpoint payload
 * (loaded from the store, or taken by the warming pass and possibly
 * published first) restored into a simulator. May block until the
 * warming pass completes the checkpoint. Never returns null.
 */
using SnapshotSource =
    std::function<std::shared_ptr<WarmSnapshot>(const RegionWorkItem &)>;

/** See file comment. */
class RegionExecBackend
{
  public:
    virtual ~RegionExecBackend() = default;

    /**
     * Hand the backend regions whose warm state comes from `source`,
     * in priority order. The pool backend calls `source` on the worker
     * that runs the region, so checkpoint loads, publishes and restores
     * run in parallel and only about one image per worker is live at a
     * time, and its workers claim the items in the given order
     * whichever worker frees up first. The procs backend calls it on
     * the coordinator thread and ships the result to a free worker,
     * blocking while every worker is busy.
     */
    virtual void submitSnapshots(std::vector<RegionWorkItem> items,
                                 SnapshotSource source) = 0;

    /**
     * Drain: block until every submitted region has reported through
     * the sink, including any backend-level retries. Rethrows the
     * first region exception that must escape the phase (the pool
     * backend's InjectedKill).
     */
    virtual void finish() = 0;

    /** Worker processes that died mid-region (procs backend). */
    virtual uint32_t workerDeaths() const { return 0; }
    /** Workers respawned to retry after a death (procs backend). */
    virtual uint32_t workerRespawns() const { return 0; }
};

} // namespace looppoint

#endif // LOOPPOINT_DIST_REGION_EXEC_HH
