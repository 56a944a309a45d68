#include "oracles/race_detector.hh"

#include <algorithm>

#include "exec/driver.hh"
#include "exec/engine.hh"
#include "isa/addr_space.hh"
#include "util/logging.hh"

namespace looppoint {

RaceDetector::RaceDetector(const Program &prog_, SyncArbiter *inner_,
                           DiagnosticSink &sink_, size_t max_findings)
    : prog(&prog_), inner(inner_), sink(&sink_),
      maxReports(max_findings)
{
    lockClock.resize(std::max<uint32_t>(1, prog->numLocks));
    barrierClock.resize(prog->runList.size());
    chunkClock.resize(prog->runList.size());
    atomicClock.resize(prog->kernels.size());
    barrierArrivals.assign(prog->runList.size(), 0);
    barrierChecked.assign(prog->runList.size(), false);

    blockHasAtomic.assign(prog->numBlocks(), 0);
    for (size_t i = 0; i < prog->numBlocks(); ++i)
        for (const InstrDesc &in : prog->blocks[i].instrs)
            if (in.op == OpClass::AtomicRmw) {
                blockHasAtomic[i] = 1;
                break;
            }
}

void
RaceDetector::ensureThread(uint32_t tid)
{
    if (clocks.size() <= tid)
        clocks.resize(tid + 1);
    if (heldLocks.size() <= tid)
        heldLocks.resize(tid + 1);
    if (clocks[tid].empty()) {
        clocks[tid].assign(tid + 1, 0);
        clocks[tid][tid] = 1; // the initial epoch of this thread
    }
}

bool
RaceDetector::ordered(const Epoch &e, uint32_t tid) const
{
    if (e.clk == 0)
        return true;
    const VectorClock &tc = clocks[tid];
    const uint64_t seen = e.tid < tc.size() ? tc[e.tid] : 0;
    return seen >= e.clk;
}

void
RaceDetector::joinInto(VectorClock &dst, const VectorClock &src) const
{
    if (dst.size() < src.size())
        dst.resize(src.size(), 0);
    for (size_t i = 0; i < src.size(); ++i)
        dst[i] = std::max(dst[i], src[i]);
}

void
RaceDetector::releaseInto(VectorClock &target, uint32_t tid)
{
    joinInto(target, clocks[tid]);
    ++clocks[tid][tid];
}

bool
RaceDetector::mayAcquireLock(uint32_t lock_id, uint32_t tid)
{
    return inner ? inner->mayAcquireLock(lock_id, tid) : true;
}

void
RaceDetector::onLockAcquired(uint32_t lock_id, uint32_t tid)
{
    if (inner)
        inner->onLockAcquired(lock_id, tid);
    ensureThread(tid);
    if (lock_id < lockClock.size())
        joinInto(clocks[tid], lockClock[lock_id]);
    heldLocks[tid].push_back(lock_id);
}

bool
RaceDetector::mayFetchChunk(uint32_t run_pos, uint32_t tid)
{
    return inner ? inner->mayFetchChunk(run_pos, tid) : true;
}

void
RaceDetector::onChunkFetched(uint32_t run_pos, uint32_t tid)
{
    if (inner)
        inner->onChunkFetched(run_pos, tid);
    ensureThread(tid);
    // The shared chunk counter is an acquire+release RMW: grants of
    // the same kernel instance are totally ordered through it.
    if (run_pos < chunkClock.size()) {
        joinInto(clocks[tid], chunkClock[run_pos]);
        releaseInto(chunkClock[run_pos], tid);
    }
}

void
RaceDetector::onBlock(uint32_t tid, BlockId block,
                      const ExecutionEngine &engine)
{
    ensureThread(tid);
    const RuntimeBlocks &rt = prog->runtime;

    if (block == rt.barrierEnter) {
        const uint32_t pos = engine.runPosition(tid);
        if (pos < barrierClock.size()) {
            ++barrierArrivals[pos];
            releaseInto(barrierClock[pos], tid);
        }
        return;
    }
    if (block == rt.barrierExit) {
        const uint32_t pos = engine.runPosition(tid);
        if (pos < barrierClock.size()) {
            joinInto(clocks[tid], barrierClock[pos]);
            // The engine releases a barrier only after every
            // participant arrived, so the count is complete by the
            // time the first exit block appears.
            if (!barrierChecked[pos]) {
                barrierChecked[pos] = true;
                if (barrierArrivals[pos] != engine.numThreads())
                    sink->error(
                        "race",
                        strFormat("run position %u", pos),
                        strFormat("mismatched barrier participant "
                                  "count: %u arrivals, %u threads",
                                  barrierArrivals[pos],
                                  engine.numThreads()));
            }
        }
        return;
    }
    if (block == rt.lockRelease) {
        if (!heldLocks[tid].empty()) {
            const uint32_t lid = heldLocks[tid].back();
            heldLocks[tid].pop_back();
            if (lid < lockClock.size()) {
                lockClock[lid].clear();
                releaseInto(lockClock[lid], tid);
            }
        } else {
            sink->error("race", strFormat("thread %u", tid),
                        "lock release without a matching acquire");
        }
        return;
    }
    if (block == rt.atomicStub) {
        // Atomic updates of one kernel instance behave like seq-cst
        // RMWs on the reduction cell: serialize through a per-kernel
        // clock so the merged value's visibility is ordered.
        const uint32_t pos = engine.runPosition(tid);
        if (pos < prog->runList.size()) {
            const uint32_t kidx = prog->runList[pos];
            joinInto(clocks[tid], atomicClock[kidx]);
            releaseInto(atomicClock[kidx], tid);
        }
        return;
    }

    // Data accesses: only main-image compute blocks participate, and
    // blocks with an AtomicRmw (atomic items, reduction tails) are
    // modeled as hardware-serialized updates.
    if (prog->blocks[block].image != ImageId::Main)
        return;
    if (blockHasAtomic[block]) {
        for (const MemRef &ref : engine.memRefs(tid))
            if (ref.addr >= kSharedStreamRegionBase)
                ++counters.skippedAtomic;
        return;
    }
    for (const MemRef &ref : engine.memRefs(tid)) {
        if (ref.addr < kSharedStreamRegionBase)
            continue; // private / stack / sync: per-thread by layout
        if (ref.aliased) {
            ++counters.skippedAliased;
            continue;
        }
        ++counters.checkedAccesses;
        if (ref.isWrite)
            handleWrite(tid, ref.addr, block, ref.instrIndex);
        else
            handleRead(tid, ref.addr, block, ref.instrIndex);
    }
}

void
RaceDetector::handleRead(uint32_t tid, Addr addr, BlockId block,
                         uint16_t instr)
{
    Shadow &s = shadow[addr];
    if (!ordered(s.write, tid))
        reportRace(s.write, true, tid, block, instr, false, addr);

    const Epoch now{clocks[tid][tid], tid, block, instr};
    if (!s.readEpochs.empty()) {
        if (s.readEpochs.size() <= tid)
            s.readEpochs.resize(tid + 1);
        s.readEpochs[tid] = now;
        return;
    }
    if (s.read.clk == 0 || s.read.tid == tid || ordered(s.read, tid)) {
        s.read = now; // the new read subsumes the old one
        return;
    }
    // Concurrent unordered readers: escalate to per-thread epochs.
    s.readEpochs.resize(std::max<size_t>(tid, s.read.tid) + 1);
    s.readEpochs[s.read.tid] = s.read;
    s.readEpochs[tid] = now;
    s.read = Epoch{};
}

void
RaceDetector::handleWrite(uint32_t tid, Addr addr, BlockId block,
                          uint16_t instr)
{
    Shadow &s = shadow[addr];
    if (!ordered(s.write, tid))
        reportRace(s.write, true, tid, block, instr, true, addr);
    if (!s.readEpochs.empty()) {
        for (const Epoch &e : s.readEpochs)
            if (e.clk != 0 && e.tid != tid && !ordered(e, tid))
                reportRace(e, false, tid, block, instr, true, addr);
    } else if (s.read.clk != 0 && s.read.tid != tid &&
               !ordered(s.read, tid)) {
        reportRace(s.read, false, tid, block, instr, true, addr);
    }
    s.write = Epoch{clocks[tid][tid], tid, block, instr};
    s.read = Epoch{};
    s.readEpochs.clear();
}

std::string
RaceDetector::siteName(BlockId block, uint16_t instr) const
{
    return strFormat("block %u (pc %#llx) instr %u", block,
                     static_cast<unsigned long long>(
                         prog->blocks[block].pc),
                     instr);
}

void
RaceDetector::reportRace(const Epoch &prev, bool prev_write,
                         uint32_t tid, BlockId block, uint16_t instr,
                         bool is_write, Addr addr)
{
    const uint8_t kinds = static_cast<uint8_t>(
        (prev_write ? 1 : 0) | (is_write ? 2 : 0));
    if (!reportedPairs
             .insert({prev.block, prev.instr, block, instr, kinds})
             .second)
        return;
    ++counters.races;
    if (counters.races > maxReports) {
        if (counters.races == maxReports + 1)
            sink->info("race", "",
                       strFormat("more than %zu distinct races; "
                                 "further reports suppressed",
                                 maxReports));
        return;
    }
    const Severity sev = (prev_write && is_write) ? Severity::Error
                                                  : Severity::Warning;
    sink->report(
        sev, "race", siteName(block, instr),
        strFormat("data race on address %#llx: thread %u %s here is "
                  "unordered with thread %u %s at %s",
                  static_cast<unsigned long long>(addr), tid,
                  is_write ? "write" : "read", prev.tid,
                  prev_write ? "write" : "read",
                  siteName(prev.block, prev.instr).c_str()));
}

RaceCheckStats
checkGuestRaces(const Program &prog, const Pinball &pinball,
                DiagnosticSink &sink, uint64_t quantum_instrs,
                size_t max_findings)
{
    ReplayArbiter replay(pinball.log);
    RaceDetector detector(prog, &replay, sink, max_findings);
    ExecConfig cfg = pinball.config;
    cfg.genAddresses = true;
    ExecutionEngine engine(prog, cfg, &detector);
    RoundRobinDriver driver(engine, quantum_instrs);
    driver.run(&detector);

    if (!replay.exhausted())
        sink.error("race", "replay",
                   "constrained replay did not consume the full "
                   "synchronization log");
    for (uint32_t t = 0; t < cfg.numThreads; ++t) {
        if (t < pinball.threadFilteredIcounts.size() &&
            engine.filteredIcount(t) !=
                pinball.threadFilteredIcounts[t])
            sink.error(
                "race", strFormat("thread %u", t),
                strFormat("replay diverged: filtered icount %llu "
                          "differs from the recorded %llu",
                          static_cast<unsigned long long>(
                              engine.filteredIcount(t)),
                          static_cast<unsigned long long>(
                              pinball.threadFilteredIcounts[t])));
    }

    const RaceCheckStats &st = detector.stats();
    sink.info("race", "",
              strFormat("checked %llu shared accesses (%llu aliased "
                        "and %llu atomic skipped): %zu distinct "
                        "race(s)",
                        static_cast<unsigned long long>(
                            st.checkedAccesses),
                        static_cast<unsigned long long>(
                            st.skippedAliased),
                        static_cast<unsigned long long>(
                            st.skippedAtomic),
                        st.races));
    return st;
}

} // namespace looppoint
