/**
 * @file
 * Executes checkpointed regions on the pipeline's thread pool.
 *
 * simulateRegionsCheckpointed is split into a *producer* — the warming
 * pass that advances one execution in program order and stops at
 * every region start, or the store's warm checkpoints — and this
 * executor. The producer hands over each region's work item plus a
 * source of its warm checkpoint; the executor runs the detailed
 * simulations on the pool and reports each region through the
 * completion sink. Every region runs the same attempt loop
 * (core/region_run.hh) on the same warm state, so region metrics are
 * bit-identical for any worker count.
 */

#ifndef LOOPPOINT_CORE_REGION_EXEC_HH
#define LOOPPOINT_CORE_REGION_EXEC_HH

#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "core/region_run.hh"
#include "util/fault.hh"

namespace looppoint {

class ThreadPool;

/** One region's outcome, delivered to the producer. */
struct RegionCompletion
{
    RegionWorkItem item;
    RegionRunResult result;
    /** Wall seconds the region's attempt loop ran (host-side; not part
     * of the simulated results). */
    double wallSeconds = 0.0;
    /**
     * The region died of InjectedKill (simulated host death). The
     * sink must record the outcome and nothing else: the kill is about
     * to unwind the whole phase, exactly like a real host death would.
     */
    bool killed = false;
};

/**
 * Called once per submitted region, with the final outcome. Runs on
 * pool worker threads (or the producer thread when it helps), so it
 * must only touch state that is safe under that concurrency.
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
class RegionExecutor
{
  public:
    /** `pool` nullptr runs each region inline on the producer thread
     * (the jobs == 1 schedule). */
    RegionExecutor(ThreadPool *pool, FaultPlan faults,
                   CompletionSink sink);

    /**
     * If anything unwinds the phase while region tasks are still
     * running (an injected kill surfacing through the helping join, a
     * marker-resolution FatalError on the warming thread), the tasks
     * are drained, errors swallowed, before the producer's state
     * leaves scope.
     */
    ~RegionExecutor();

    RegionExecutor(const RegionExecutor &) = delete;
    RegionExecutor &operator=(const RegionExecutor &) = delete;

    /**
     * Queue regions whose warm state comes from `source`, in priority
     * order. `source` runs on the worker that runs the region, so
     * checkpoint loads, publishes and restores run in parallel and
     * only about one image per worker is live at a time; the workers
     * claim the items in the given order whichever frees up first.
     */
    void submit(std::vector<RegionWorkItem> items, SnapshotSource source);

    /**
     * Drain: block until every submitted region has reported through
     * the sink, the calling thread helping run queued regions instead
     * of idling. Rethrows the first region exception that must escape
     * the phase (InjectedKill) once every task is quiescent.
     */
    void finish();

  private:
    void runOne(const RegionWorkItem &item, WarmSnapshot &snap);

    ThreadPool *pool;
    FaultPlan faults;
    CompletionSink sink;
    std::vector<std::future<void>> inflight;
};

} // namespace looppoint

#endif // LOOPPOINT_CORE_REGION_EXEC_HH
