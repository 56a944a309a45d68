#include "oracles/lockset.hh"

#include <algorithm>
#include <deque>

#include "exec/driver.hh"
#include "exec/engine.hh"
#include "isa/addr_space.hh"
#include "util/logging.hh"

namespace looppoint {

LockDisciplineDetector::LockDisciplineDetector(const Program &prog_,
                                               SyncArbiter *inner_,
                                               DiagnosticSink &sink_,
                                               size_t max_findings)
    : prog(&prog_), inner(inner_), sink(&sink_),
      maxFindings(max_findings)
{
    blockHasAtomic.assign(prog->numBlocks(), 0);
    for (size_t i = 0; i < prog->numBlocks(); ++i)
        for (const InstrDesc &in : prog->blocks[i].instrs)
            if (in.op == OpClass::AtomicRmw) {
                blockHasAtomic[i] = 1;
                break;
            }
    if (prog->numLocks > kMaxTrackedLocks)
        sink->info("lockset", "",
                   strFormat("program declares %u locks; lockset "
                             "tracking covers the first %u",
                             prog->numLocks, kMaxTrackedLocks));
}

void
LockDisciplineDetector::ensureThread(uint32_t tid)
{
    if (heldLocks.size() <= tid)
        heldLocks.resize(tid + 1);
    if (lastRunPos.size() <= tid)
        lastRunPos.resize(tid + 1, 0);
}

uint64_t
LockDisciplineDetector::heldMask(uint32_t tid) const
{
    uint64_t mask = 0;
    for (uint32_t lid : heldLocks[tid])
        if (lid < kMaxTrackedLocks)
            mask |= 1ull << lid;
    return mask;
}

std::string
LockDisciplineDetector::lockSetName(uint64_t mask) const
{
    std::string out = "{";
    bool first = true;
    for (uint32_t i = 0; i < kMaxTrackedLocks; ++i) {
        if (!(mask & (1ull << i)))
            continue;
        if (!first)
            out += ", ";
        out += strFormat("lock %u", i);
        first = false;
    }
    out += "}";
    return out;
}

std::string
LockDisciplineDetector::siteName(BlockId block, uint16_t instr) const
{
    return strFormat("block %u (pc %#llx) instr %u", block,
                     static_cast<unsigned long long>(
                         prog->blocks[block].pc),
                     instr);
}

bool
LockDisciplineDetector::mayAcquireLock(uint32_t lock_id, uint32_t tid)
{
    return inner ? inner->mayAcquireLock(lock_id, tid) : true;
}

void
LockDisciplineDetector::onLockAcquired(uint32_t lock_id, uint32_t tid)
{
    if (inner)
        inner->onLockAcquired(lock_id, tid);
    ensureThread(tid);
    if (!heldLocks[tid].empty()) {
        const uint64_t held = heldMask(tid);
        const uint32_t pos = lastRunPos[tid];
        for (uint32_t h : heldLocks[tid]) {
            auto [it, inserted] =
                edges.try_emplace({h, lock_id});
            Edge &e = it->second;
            if (inserted) {
                ++counters.orderEdges;
                const char *kname =
                    pos < prog->runList.size()
                        ? prog->kernels[prog->runList[pos]].name.c_str()
                        : "?";
                e.site = strFormat("kernel '%s' (run position %u)",
                                   kname, pos);
            }
            e.gateMask &= held;
        }
    }
    heldLocks[tid].push_back(lock_id);
}

bool
LockDisciplineDetector::mayFetchChunk(uint32_t run_pos, uint32_t tid)
{
    return inner ? inner->mayFetchChunk(run_pos, tid) : true;
}

void
LockDisciplineDetector::onChunkFetched(uint32_t run_pos, uint32_t tid)
{
    if (inner)
        inner->onChunkFetched(run_pos, tid);
}

void
LockDisciplineDetector::onBlock(uint32_t tid, BlockId block,
                                const ExecutionEngine &engine)
{
    ensureThread(tid);
    lastRunPos[tid] = engine.runPosition(tid);
    const RuntimeBlocks &rt = prog->runtime;

    if (block == rt.lockRelease) {
        if (!heldLocks[tid].empty())
            heldLocks[tid].pop_back();
        else
            sink->error("lockset", strFormat("thread %u", tid),
                        "lock release without a matching acquire");
        return;
    }
    if (block == rt.barrierEnter || block == rt.barrierExit ||
        block == rt.atomicStub)
        return;

    // Data accesses: only main-image compute blocks participate, and
    // blocks with an AtomicRmw (atomic items, reduction tails) are
    // modeled as hardware-serialized updates.
    if (prog->blocks[block].image != ImageId::Main)
        return;
    if (blockHasAtomic[block])
        return;
    if (heldLocks[tid].empty())
        return; // unguarded: the happens-before checker's domain
    for (const MemRef &ref : engine.memRefs(tid)) {
        if (ref.addr < kSharedStreamRegionBase)
            continue; // private / stack / sync: per-thread by layout
        if (ref.aliased)
            continue;
        handleAccess(tid, ref.addr, block, ref.instrIndex,
                     ref.isWrite);
    }
}

void
LockDisciplineDetector::handleAccess(uint32_t tid, Addr addr,
                                     BlockId block, uint16_t instr,
                                     bool is_write)
{
    ++counters.guardedAccesses;
    const uint64_t held = heldMask(tid);
    Shadow &s = shadow[addr];
    if (s.prevBlock == kInvalidBlock) {
        s.lockset = held;
        s.firstTid = tid;
    } else {
        if (tid != s.firstTid)
            s.multiThread = true;
        s.lockset &= held;
    }
    if (s.multiThread && (s.written || is_write) && s.lockset == 0 &&
        !s.reported) {
        reportViolation(s, tid, block, instr, is_write, held, addr);
        s.reported = true;
    }
    s.written |= is_write;
    s.prevBlock = block;
    s.prevInstr = instr;
    s.prevTid = tid;
    s.prevHeld = held;
}

void
LockDisciplineDetector::reportViolation(const Shadow &s, uint32_t tid,
                                        BlockId block, uint16_t instr,
                                        bool is_write, uint64_t held,
                                        Addr addr)
{
    if (!reportedPairs
             .insert({s.prevBlock, s.prevInstr, block, instr})
             .second)
        return;
    ++counters.locksetViolations;
    if (counters.locksetViolations > maxFindings) {
        if (counters.locksetViolations == maxFindings + 1)
            sink->info("lockset", "",
                       strFormat("more than %zu distinct lockset "
                                 "violations; further reports "
                                 "suppressed",
                                 maxFindings));
        return;
    }
    const Severity sev = (is_write && s.written) ? Severity::Error
                                                 : Severity::Warning;
    sink->report(
        sev, "lockset", siteName(block, instr),
        strFormat("inconsistent lock discipline on address %#llx: "
                  "thread %u %s here holds %s, but thread %u %s at %s "
                  "held %s; no common lock guards this location",
                  static_cast<unsigned long long>(addr), tid,
                  is_write ? "write" : "read",
                  lockSetName(held).c_str(), s.prevTid,
                  s.written ? "write" : "read",
                  siteName(s.prevBlock, s.prevInstr).c_str(),
                  lockSetName(s.prevHeld).c_str()));
}

void
LockDisciplineDetector::finishDeadlockAnalysis()
{
    // Canonical cycle enumeration: for each lock s in ascending order,
    // find the shortest cycle through s that uses only locks >= s (so
    // every cycle is reported exactly once, anchored at its smallest
    // member). The edge map is ordered, so the whole walk — and with
    // it the report order — is deterministic.
    std::map<uint32_t, std::vector<uint32_t>> adj;
    std::set<uint32_t> nodes;
    for (const auto &[key, e] : edges) {
        adj[key.first].push_back(key.second);
        nodes.insert(key.first);
        nodes.insert(key.second);
    }

    for (uint32_t s : nodes) {
        // Self-edge: re-acquiring a held (non-reentrant) lock is a
        // guaranteed self-deadlock; a gate cannot help the holder.
        std::vector<uint32_t> cycle;
        auto self = edges.find({s, s});
        if (self != edges.end()) {
            cycle = {s};
        } else {
            // BFS from s over locks >= s, looking for a path back.
            std::map<uint32_t, uint32_t> parent;
            std::deque<uint32_t> queue;
            queue.push_back(s);
            bool found = false;
            while (!queue.empty() && !found) {
                const uint32_t u = queue.front();
                queue.pop_front();
                auto it = adj.find(u);
                if (it == adj.end())
                    continue;
                for (uint32_t v : it->second) {
                    if (v == s) {
                        cycle.push_back(s);
                        for (uint32_t w = u; w != s;
                             w = parent.at(w))
                            cycle.push_back(w);
                        std::reverse(cycle.begin() + 1, cycle.end());
                        found = true;
                        break;
                    }
                    if (v < s || parent.count(v))
                        continue;
                    parent[v] = u;
                    queue.push_back(v);
                }
            }
        }
        if (cycle.empty())
            continue;

        // Gate-lock suppression: a lock held across *every* edge of
        // the cycle (and not itself part of it) serializes the nested
        // acquisitions, so the inversion cannot happen.
        uint64_t gate = ~0ull;
        uint64_t cycle_mask = 0;
        std::string route, sites;
        for (size_t i = 0; i < cycle.size(); ++i) {
            const uint32_t from = cycle[i];
            const uint32_t to = cycle[(i + 1) % cycle.size()];
            const Edge &e = edges.at({from, to});
            gate &= e.gateMask;
            if (cycle[i] < kMaxTrackedLocks)
                cycle_mask |= 1ull << cycle[i];
            route += strFormat("lock %u -> ", from);
            sites += strFormat("%slock %u acquired while holding "
                               "lock %u in %s",
                               i ? "; " : "", to, from,
                               e.site.c_str());
        }
        route += strFormat("lock %u", cycle.front());
        gate &= ~cycle_mask;
        if (cycle.size() > 1 && gate != 0) {
            ++counters.gateSuppressedCycles;
            sink->info("deadlock", "lock-order graph",
                       strFormat("lock-order cycle %s is serialized "
                                 "by gate %s; suppressed",
                                 route.c_str(),
                                 lockSetName(gate).c_str()));
            continue;
        }
        ++counters.deadlockCycles;
        if (counters.deadlockCycles > maxFindings) {
            if (counters.deadlockCycles == maxFindings + 1)
                sink->info("deadlock", "",
                           strFormat("more than %zu lock-order "
                                     "cycles; further reports "
                                     "suppressed",
                                     maxFindings));
            continue;
        }
        sink->error("deadlock", "lock-order graph",
                    strFormat("potential deadlock: lock-order cycle "
                              "%s (%s)",
                              route.c_str(), sites.c_str()));
    }
}

LockDisciplineStats
checkGuestLockDiscipline(const Program &prog, const Pinball &pinball,
                         DiagnosticSink &sink, uint64_t quantum_instrs,
                         size_t max_findings, bool run_lockset,
                         bool run_deadlock)
{
    DiagnosticSink local;
    ReplayArbiter replay(pinball.log);
    LockDisciplineDetector detector(prog, &replay, local,
                                    max_findings);
    ExecConfig cfg = pinball.config;
    cfg.genAddresses = true;
    ExecutionEngine engine(prog, cfg, &detector);
    RoundRobinDriver driver(engine, quantum_instrs);
    driver.run(&detector);
    detector.finishDeadlockAnalysis();

    const char *pass = run_lockset ? "lockset" : "deadlock";
    if (!replay.exhausted())
        local.error(pass, "replay",
                    "constrained replay did not consume the full "
                    "synchronization log");

    const LockDisciplineStats &st = detector.stats();
    if (run_lockset)
        local.info("lockset", "",
                   strFormat("checked %llu lock-guarded shared "
                             "accesses: %zu inconsistent-lockset "
                             "finding(s)",
                             static_cast<unsigned long long>(
                                 st.guardedAccesses),
                             st.locksetViolations));
    if (run_deadlock)
        local.info("deadlock", "",
                   strFormat("lock-order graph: %llu edge(s), %zu "
                             "cycle(s), %zu gate-suppressed",
                             static_cast<unsigned long long>(
                                 st.orderEdges),
                             st.deadlockCycles,
                             st.gateSuppressedCycles));

    for (const Diagnostic &d : local.take()) {
        if (d.pass == "lockset" && !run_lockset)
            continue;
        if (d.pass == "deadlock" && !run_deadlock)
            continue;
        sink.report(d.severity, d.pass, d.location, d.message);
    }
    return st;
}

} // namespace looppoint
