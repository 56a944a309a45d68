/**
 * @file
 * Factory for the in-process (thread-pool) region execution backend.
 * The backend interface itself lives in dist/region_exec.hh — the
 * layer both backends can see; this header only adds the pool-backed
 * implementation, which belongs to lp_core because it reuses the
 * shared ThreadPool.
 */

#ifndef LOOPPOINT_CORE_REGION_EXEC_HH
#define LOOPPOINT_CORE_REGION_EXEC_HH

#include <memory>

#include "dist/region_exec.hh"
#include "util/fault.hh"

namespace looppoint {

class ThreadPool;

/**
 * The in-process backend: submitSnapshots queues each region on `pool`
 * (nullptr = run inline on the producer thread, the historical
 * jobs == 1 schedule); the worker that runs it produces its snapshot
 * itself (waiting for, publishing or loading its warm checkpoint, then
 * restoring it). finish()
 * joins helping — the producer thread executes queued regions instead
 * of idling — and rethrows the first escaped exception (InjectedKill)
 * once every task is quiescent. The destructor drains outstanding
 * tasks, swallowing errors, so an unwinding phase never leaves a task
 * running against freed state.
 */
std::unique_ptr<RegionExecBackend> makePoolBackend(ThreadPool *pool,
                                                   FaultPlan faults,
                                                   CompletionSink sink);

} // namespace looppoint

#endif // LOOPPOINT_CORE_REGION_EXEC_HH
