#include "sim/multicore.hh"

#include <algorithm>
#include <limits>

#include "sim/warm_partition.hh"
#include "util/logging.hh"

namespace looppoint {

SimMetrics &
SimMetrics::operator+=(const SimMetrics &other)
{
    cycles += other.cycles;
    instructions += other.instructions;
    filteredInstructions += other.filteredInstructions;
    runtimeSeconds += other.runtimeSeconds;
    branches += other.branches;
    branchMispredicts += other.branchMispredicts;
    l1dAccesses += other.l1dAccesses;
    l1dMisses += other.l1dMisses;
    l2Accesses += other.l2Accesses;
    l2Misses += other.l2Misses;
    l3Accesses += other.l3Accesses;
    l3Misses += other.l3Misses;
    return *this;
}

namespace {

ExecConfig
withAddresses(ExecConfig cfg)
{
    cfg.genAddresses = true;
    return cfg;
}

} // namespace

MulticoreSim::MulticoreSim(const Program &prog_, ExecConfig exec_cfg,
                           const SimConfig &sim_cfg, SyncArbiter *arbiter,
                           CacheBacking backing)
    : simCfg(sim_cfg), prog(&prog_),
      eng(prog_, withAddresses(exec_cfg), arbiter),
      hierarchy(sim_cfg, exec_cfg.numThreads, backing),
      numThreads(exec_cfg.numThreads)
{
    for (uint32_t c = 0; c < numThreads; ++c)
        cores.emplace_back(simCfg, c, hierarchy);
}

MulticoreSim::MulticoreSim(const MulticoreSim &other)
    : simCfg(other.simCfg), prog(other.prog), eng(other.eng),
      hierarchy(other.hierarchy), cores(other.cores),
      numThreads(other.numThreads)
{
    for (auto &core : cores)
        core.rebindHierarchy(hierarchy);
}

size_t
MulticoreSim::microarchStateBytes() const
{
    size_t bytes = hierarchy.stateBytes();
    for (const auto &core : cores)
        bytes += core.predictor().stateBytes();
    return bytes;
}

void
MulticoreSim::exportMicroarchState(void *mem) const
{
    hierarchy.exportState(mem);
    exportPredictorState(mem);
}

void
MulticoreSim::exportPredictorState(void *mem) const
{
    auto *p = static_cast<unsigned char *>(mem) +
              hierarchy.stateBytes();
    for (const auto &core : cores) {
        core.predictor().exportState(p);
        p += core.predictor().stateBytes();
    }
}

void
MulticoreSim::adoptMicroarchState(void *mem)
{
    hierarchy.adoptState(mem);
    auto *p = static_cast<unsigned char *>(mem) +
              hierarchy.stateBytes();
    for (auto &core : cores) {
        core.predictor().importState(p);
        p += core.predictor().stateBytes();
    }
}

namespace {

struct NeverStop
{
    bool operator()() const { return false; }
};

} // namespace

template <typename Stop, typename Warm>
void
MulticoreSim::fastForwardImpl(Stop &&stop, Warm &&warm)
{
    // Flow-controlled functional execution, mirroring the profiling
    // schedule. The boundary markers are (PC, count) pairs whose global
    // counts are schedule-invariant, so positioning under this schedule
    // is equivalent to positioning under the timing schedule.
    const uint64_t quantum = 1000;
    while (!eng.allFinished()) {
        if (stop())
            return;
        bool progressed = false;
        for (uint32_t tid = 0; tid < numThreads; ++tid) {
            if (!eng.runnable(tid))
                continue;
            uint64_t start = eng.icount(tid);
            while (eng.icount(tid) - start < quantum) {
                StepResult r = eng.step(tid);
                if (r.kind != StepResult::Kind::Block)
                    break;
                progressed = true;
                warm(tid, prog->blocks[r.block]);
                if (stop())
                    return;
            }
        }
        if (!progressed && !eng.allFinished())
            panic("MulticoreSim::fastForward: no thread can progress");
    }
}

template <typename Stop>
void
MulticoreSim::fastForwardInPlace(Stop &&stop, bool warm)
{
    if (warm)
        fastForwardImpl(stop, [this](uint32_t tid, const BasicBlock &bb) {
            cores[tid].warmBlock(bb, eng.memRefs(tid), eng.branchTaken(tid));
        });
    else
        fastForwardImpl(stop, [](uint32_t, const BasicBlock &) {});
}

void
MulticoreSim::fastForward(const std::function<bool()> &stop, bool warm)
{
    if (stop)
        fastForwardInPlace([&stop] { return stop(); }, warm);
    else
        fastForwardInPlace(NeverStop{}, warm);
}

void
MulticoreSim::fastForwardUntil(BlockId block, uint64_t count, bool warm)
{
    fastForwardInPlace(
        [this, block, count] {
            return eng.blockExecCount(block) >= count;
        },
        warm);
}

void
MulticoreSim::fastForwardUntil(BlockId block, uint64_t count,
                               PartitionedWarmer &warmer)
{
    fastForwardImpl(
        [this, block, count] {
            return eng.blockExecCount(block) >= count;
        },
        [this, &warmer](uint32_t tid, const BasicBlock &bb) {
            cores[tid].warmBlockVia(warmer, bb, eng.memRefs(tid),
                                    eng.branchTaken(tid));
        });
}

template <typename Stop>
SimMetrics
MulticoreSim::runDetailedImpl(Stop &&stop)
{
    // Align clocks and reset statistics at the region start.
    hierarchy.resetStats();
    for (auto &core : cores) {
        core.resetTime();
        core.resetStats();
    }
    const uint64_t icount_base = eng.globalIcount();
    const uint64_t filtered_base = eng.globalFilteredIcount();

    // Event queue of runnable threads, keyed on (coreTime, tid) packed
    // into one uint64: the min element is the thread the reference
    // scheduler's scan would pick (lowest time, ties to lowest tid).
    // Entries never go stale: an enqueued core's time changes only when
    // it is popped and stepped, and sleeping cores leave the queue
    // until a step's woken-thread list readmits them.
    std::vector<char> asleep(numThreads, 0);
    std::vector<uint64_t> heap;
    heap.reserve(numThreads);
    auto push = [&](uint32_t tid) {
        const uint64_t t = cores[tid].time();
        LP_ASSERT(t < (1ull << 56));
        heap.push_back((t << 8) | tid);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    };
    // Restore the min-heap property after heap[0] changed: cheaper
    // than a pop+push pair for the common case where the stepped core
    // stays near the top.
    auto siftDownRoot = [&] {
        const size_t n = heap.size();
        const uint64_t v = heap[0];
        size_t i = 0;
        for (;;) {
            size_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && heap[child + 1] < heap[child])
                ++child;
            if (heap[child] >= v)
                break;
            heap[i] = heap[child];
            i = child;
        }
        heap[i] = v;
    };
    // Threads may already be blocked or finished on entry (region
    // simulation resumes from mid-execution checkpoints).
    for (uint32_t tid = 0; tid < numThreads; ++tid) {
        if (eng.finished(tid))
            continue;
        if (!eng.runnable(tid)) {
            asleep[tid] = 1;
            continue;
        }
        push(tid);
    }

    bool done = false;
    while (!done) {
        if (heap.empty()) {
            if (eng.allFinished())
                break;
            // Everyone is asleep or finished: wake the runnable ones
            // (a prior step may have released them).
            bool woke = false;
            for (uint32_t tid = 0; tid < numThreads; ++tid) {
                if (asleep[tid] && eng.runnable(tid)) {
                    asleep[tid] = 0;
                    push(tid);
                    woke = true;
                }
            }
            if (!woke)
                panic("MulticoreSim: deadlock in detailed mode");
            continue;
        }

        // The heap minimum is the thread to step (lowest time, ties to
        // lowest tid); peek without popping.
        const uint32_t best = static_cast<uint32_t>(heap[0] & 0xff);

        StepResult r = eng.step(best);
        switch (r.kind) {
          case StepResult::Kind::Block: {
            cores[best].executeBlock(prog->blocks[r.block],
                                     eng.memRefs(best),
                                     eng.branchTaken(best));
            const uint64_t now = cores[best].time();
            LP_ASSERT(now < (1ull << 56));
            heap[0] = (now << 8) | best;
            siftDownRoot();
            // Wake threads this step released; they resume at the
            // waker's current time.
            if (!eng.wokenThreads().empty()) {
                for (uint32_t tid : eng.wokenThreads()) {
                    if (asleep[tid]) {
                        asleep[tid] = 0;
                        cores[tid].advanceTo(now);
                        push(tid);
                    }
                }
            }
            if (stop())
                done = true;
            break;
          }
          case StepResult::Kind::Blocked:
          case StepResult::Kind::Finished:
            if (r.kind == StepResult::Kind::Blocked)
                asleep[best] = 1;
            heap[0] = heap.back();
            heap.pop_back();
            if (!heap.empty())
                siftDownRoot();
            break;
        }
    }
    return collectMetrics(icount_base, filtered_base);
}

SimMetrics
MulticoreSim::runDetailed(const std::function<bool()> &stop)
{
    if (simCfg.referenceScheduler)
        return runDetailedReference(stop);
    if (stop)
        return runDetailedImpl([&stop] { return stop(); });
    return runDetailedImpl(NeverStop{});
}

SimMetrics
MulticoreSim::runDetailedUntil(BlockId block, uint64_t count)
{
    auto at_end = [this, block, count] {
        return eng.blockExecCount(block) >= count;
    };
    if (simCfg.referenceScheduler)
        return runDetailedReference(at_end);
    return runDetailedImpl(at_end);
}

SimMetrics
MulticoreSim::runDetailedUntilBudget(BlockId block, uint64_t count,
                                     uint64_t max_instrs, bool *reached)
{
    if (max_instrs == 0) {
        SimMetrics m = runDetailedUntil(block, count);
        if (reached)
            *reached = eng.blockExecCount(block) >= count;
        return m;
    }
    uint64_t limit;
    if (__builtin_add_overflow(eng.globalIcount(), max_instrs, &limit))
        limit = std::numeric_limits<uint64_t>::max();
    auto at_end = [this, block, count, limit] {
        return eng.blockExecCount(block) >= count ||
               eng.globalIcount() >= limit;
    };
    SimMetrics m = simCfg.referenceScheduler
                       ? runDetailedReference(at_end)
                       : runDetailedImpl(at_end);
    if (reached)
        *reached = eng.blockExecCount(block) >= count;
    return m;
}

SimMetrics
MulticoreSim::runDetailedReference(const std::function<bool()> &stop)
{
    // Align clocks and reset statistics at the region start.
    hierarchy.resetStats();
    for (auto &core : cores) {
        core.resetTime();
        core.resetStats();
    }
    const uint64_t icount_base = eng.globalIcount();
    const uint64_t filtered_base = eng.globalFilteredIcount();

    std::vector<char> asleep(numThreads, 0);
    bool done = false;
    while (!done) {
        // Pick the runnable thread with the smallest core-local time.
        uint32_t best = numThreads;
        uint64_t best_time = std::numeric_limits<uint64_t>::max();
        for (uint32_t tid = 0; tid < numThreads; ++tid) {
            if (eng.finished(tid) || asleep[tid])
                continue;
            if (!eng.runnable(tid)) {
                asleep[tid] = 1;
                continue;
            }
            uint64_t t = cores[tid].time();
            if (t < best_time) {
                best_time = t;
                best = tid;
            }
        }
        if (best == numThreads) {
            if (eng.allFinished())
                break;
            // Everyone is asleep or finished: wake the runnable ones
            // (a prior step may have released them).
            bool woke = false;
            for (uint32_t tid = 0; tid < numThreads; ++tid) {
                if (asleep[tid] && eng.runnable(tid)) {
                    asleep[tid] = 0;
                    woke = true;
                }
            }
            if (!woke)
                panic("MulticoreSim: deadlock in detailed mode");
            continue;
        }

        StepResult r = eng.step(best);
        switch (r.kind) {
          case StepResult::Kind::Block: {
            cores[best].executeBlock(prog->blocks[r.block],
                                     eng.memRefs(best),
                                     eng.branchTaken(best));
            // Wake threads this step may have released; they resume at
            // the waker's current time.
            uint64_t now = cores[best].time();
            for (uint32_t tid = 0; tid < numThreads; ++tid) {
                if (asleep[tid] && eng.runnable(tid)) {
                    asleep[tid] = 0;
                    cores[tid].advanceTo(now);
                }
            }
            if (stop && stop())
                done = true;
            break;
          }
          case StepResult::Kind::Blocked:
            asleep[best] = 1;
            break;
          case StepResult::Kind::Finished:
            break;
        }
    }
    return collectMetrics(icount_base, filtered_base);
}

SimMetrics
MulticoreSim::collectMetrics(uint64_t icount_base,
                             uint64_t filtered_base) const
{
    SimMetrics m;
    for (uint32_t tid = 0; tid < numThreads; ++tid) {
        m.cycles = std::max({m.cycles, cores[tid].time(),
                             cores[tid].lastCompletion()});
        m.branches += cores[tid].branchStats().branches;
        m.branchMispredicts += cores[tid].branchStats().mispredicts;
        m.l1dAccesses += hierarchy.l1dStats(tid).accesses;
        m.l1dMisses += hierarchy.l1dStats(tid).misses;
        m.l2Accesses += hierarchy.l2Stats(tid).accesses;
        m.l2Misses += hierarchy.l2Stats(tid).misses;
    }
    m.l3Accesses = hierarchy.l3Stats().accesses;
    m.l3Misses = hierarchy.l3Stats().misses;
    m.instructions = eng.globalIcount() - icount_base;
    m.filteredInstructions = eng.globalFilteredIcount() - filtered_base;
    m.runtimeSeconds =
        static_cast<double>(m.cycles) / (simCfg.freqGHz * 1e9);
    return m;
}

uint64_t
MulticoreSim::maxCoreTime() const
{
    uint64_t t = 0;
    for (const auto &core : cores)
        t = std::max({t, core.time(), core.lastCompletion()});
    return t;
}

SimMetrics
MulticoreSim::run()
{
    return runDetailed();
}

SimMetrics
MulticoreSim::runRegion(Addr start_pc, uint64_t start_count,
                        Addr end_pc, uint64_t end_count, bool warmup)
{
    // Resolve marker PCs to blocks once.
    BlockId start_block = kInvalidBlock;
    BlockId end_block = kInvalidBlock;
    for (const auto &bb : prog->blocks) {
        if (start_pc != 0 && bb.pc == start_pc)
            start_block = bb.id;
        if (end_pc != 0 && bb.pc == end_pc)
            end_block = bb.id;
    }
    if (start_pc != 0 && start_block == kInvalidBlock)
        fatal("runRegion: no block at start pc %#llx",
              static_cast<unsigned long long>(start_pc));
    if (end_pc != 0 && end_block == kInvalidBlock)
        fatal("runRegion: no block at end pc %#llx",
              static_cast<unsigned long long>(end_pc));

    // A boundary (pc, n) sits just before the n-th execution of pc.
    // We cut just *after* the n-th execution instead: loop-header
    // executions are bursty, so "after the (n-1)-th" can be a long way
    // (a whole kernel invocation) before the intended point, while
    // "after the n-th" is off by exactly one marker block (a few
    // instructions). Both region ends use the same convention, so the
    // regions still tile the execution exactly.
    if (start_pc != 0 && start_count > 0)
        fastForwardUntil(start_block, start_count, warmup);

    if (end_pc == 0)
        return runDetailed();
    return runDetailedUntil(end_block, end_count);
}

} // namespace looppoint
