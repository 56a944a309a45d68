#include "core/region_exec.hh"

#include <chrono>
#include <future>
#include <utility>
#include <vector>

#include "obs/trace.hh"
#include "util/thread_pool.hh"

namespace looppoint {

RegionExecutor::RegionExecutor(ThreadPool *pool_, FaultPlan faults_,
                               CompletionSink sink_)
    : pool(pool_), faults(std::move(faults_)), sink(std::move(sink_))
{
}

RegionExecutor::~RegionExecutor()
{
    if (!pool)
        return;
    for (auto &fut : inflight) {
        if (!fut.valid())
            continue;
        try {
            pool->waitHelping(fut);
        } catch (...) {
            // Already unwinding; the first error wins.
        }
    }
}

void
RegionExecutor::submit(std::vector<RegionWorkItem> items,
                       SnapshotSource source)
{
    // Without a pool (jobs == 1) each region runs inline on the
    // producer thread: the serial schedule.
    if (!pool) {
        for (const RegionWorkItem &item : items)
            runOne(item, *source(item));
        return;
    }
    // One task per item: the pool's FIFO queue starts them in the
    // given order.
    for (RegionWorkItem &item : items)
        inflight.push_back(
            pool->submit([this, item = std::move(item), source] {
                runOne(item, *source(item));
            }));
}

void
RegionExecutor::finish()
{
    // Every future is awaited even if one carries an exception — a
    // task still running while the caller unwinds would use freed
    // stack state — and the first error is rethrown once all tasks
    // are quiescent.
    std::exception_ptr first_error;
    for (auto &fut : inflight) {
        try {
            pool->waitHelping(fut);
        } catch (...) {
            if (!first_error)
                first_error = std::current_exception();
        }
    }
    inflight.clear();
    if (first_error)
        std::rethrow_exception(first_error);
}

void
RegionExecutor::runOne(const RegionWorkItem &item, WarmSnapshot &snap)
{
    using clock = std::chrono::steady_clock;
    const auto t_region = clock::now();
    auto seconds_since = [](clock::time_point t0) {
        return std::chrono::duration<double>(clock::now() - t0)
            .count();
    };
    Tracer &tracer = Tracer::global();
    // The span lands on the executing host thread's track and is
    // mirrored onto the region's own virtual track, so the trace
    // shows both "what each worker did" and "when each region
    // ran".
    ScopedSpan region_span(tracer, "region.sim");
    if (region_span.active())
        region_span
            .mirror(tracer.virtualTrack(
                "region " + std::to_string(item.index)))
            .arg("region", static_cast<uint64_t>(item.index))
            .arg("multiplier", item.multiplier)
            .arg("icount", item.filteredIcount);

    RegionCompletion completion;
    completion.item = item;
    try {
        runRegionAttempts(item, snap, faults, completion.result);
    } catch (const InjectedKill &) {
        // Simulated host death: record the outcome only (the
        // phase is about to unwind; no wall/diagnostic
        // bookkeeping, exactly like a real crash would leave).
        completion.killed = true;
        sink(completion);
        throw;
    }
    if (completion.result.ok) {
        const SimMetrics &m = completion.result.metrics;
        region_span.arg("cycles", m.cycles)
            .arg("instructions", m.instructions)
            .arg("ipc", m.ipc())
            .arg("l2_mpki", m.l2Mpki());
    }
    completion.wallSeconds = seconds_since(t_region);
    sink(completion);
    region_span
        .arg("ok",
             static_cast<uint64_t>(completion.result.ok ? 1 : 0))
        .arg("attempts", completion.result.attempts);
}

} // namespace looppoint
