/**
 * @file
 * LockDisciplineDetector: an Eraser-style lockset checker and a
 * lock-order-graph deadlock-potential pass, run during constrained
 * (pinball) replay.
 *
 * Both analyses are deliberately happens-before-free, which is what
 * makes them complementary to the FastTrack RaceDetector:
 *
 *  - The **lockset** pass checks the locking *discipline* of data that
 *    is ever lock-protected. For every shared address accessed while
 *    at least one lock is held, it intersects the candidate lockset
 *    across accesses; if two or more threads touch the address, at
 *    least one access is a write, and no common lock remains, the
 *    discipline is broken — even when the observed interleaving (a
 *    barrier between phases, an incidental release/acquire chain)
 *    happens to order the accesses so FastTrack stays silent.
 *    Accesses made with no lock held are left to the happens-before
 *    checker: barrier- and chunk-partitioned data parallelism is the
 *    normal idiom here and carries no lock discipline to check.
 *
 *  - The **deadlock** pass builds a lock-order graph from the recorded
 *    acquisition events: an edge h -> l for every acquisition of l
 *    while h is held. A cycle means two threads *could* acquire the
 *    involved locks in opposite orders and deadlock, even if the
 *    recorded run never interleaved them that way. Cycles whose every
 *    edge was taken while some common "gate" lock (not itself part of
 *    the cycle) was held are suppressed: the gate serializes the
 *    nested acquisitions, so the inversion cannot happen.
 *
 * Reports carry both involved sites. Lockset findings follow the race
 * detector's convention (write/write = error, read-involved =
 * warning); unsuppressed lock-order cycles are errors.
 *
 * A test oracle of the workload generator, built only into lp_tests:
 * tests/test_analysis.cc requires a clean lock discipline over every
 * bundled program.
 */

#ifndef LOOPPOINT_TESTS_ORACLES_LOCKSET_HH
#define LOOPPOINT_TESTS_ORACLES_LOCKSET_HH

#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostic.hh"
#include "exec/listener.hh"
#include "exec/sync_arbiter.hh"
#include "isa/program.hh"
#include "pinball/pinball.hh"

namespace looppoint {

/** Counters summarizing one lock-discipline replay. */
struct LockDisciplineStats
{
    /** Shared-region accesses made while holding at least one lock. */
    uint64_t guardedAccesses = 0;
    /** Distinct inconsistent-lockset findings reported. */
    size_t locksetViolations = 0;
    /** Distinct edges in the lock-order graph. */
    uint64_t orderEdges = 0;
    /** Lock-order cycles reported as deadlock potential. */
    size_t deadlockCycles = 0;
    /** Cycles suppressed because a gate lock serializes them. */
    size_t gateSuppressedCycles = 0;
};

/** See file comment. */
class LockDisciplineDetector : public ExecListener, public SyncArbiter
{
  public:
    /**
     * @param prog the program being replayed
     * @param inner the arbiter actually deciding outcomes (usually a
     *        ReplayArbiter); may be nullptr (default policy)
     * @param sink where findings go (passes "lockset" and "deadlock")
     * @param max_findings cap on reports per pass (further findings
     *        are only counted)
     */
    LockDisciplineDetector(const Program &prog, SyncArbiter *inner,
                           DiagnosticSink &sink,
                           size_t max_findings = 32);

    // SyncArbiter (decorator): delegate, then update lock state.
    bool mayAcquireLock(uint32_t lock_id, uint32_t tid) override;
    void onLockAcquired(uint32_t lock_id, uint32_t tid) override;
    bool mayFetchChunk(uint32_t run_pos, uint32_t tid) override;
    void onChunkFetched(uint32_t run_pos, uint32_t tid) override;

    // ExecListener
    void onBlock(uint32_t tid, BlockId block,
                 const ExecutionEngine &engine) override;

    /**
     * Analyze the collected lock-order graph and emit deadlock
     * findings. Call once, after the replay finished.
     */
    void finishDeadlockAnalysis();

    const LockDisciplineStats &stats() const { return counters; }

    /** Number of lock ids the lockset bitmask can represent. */
    static constexpr uint32_t kMaxTrackedLocks = 64;

  private:
    /** Eraser shadow state for one shared address. */
    struct Shadow
    {
        /** Intersection of held-lock sets across guarded accesses. */
        uint64_t lockset = ~0ull;
        uint32_t firstTid = 0;
        bool multiThread = false;
        bool written = false;
        bool reported = false;
        /** Representative prior site (latest guarded access). */
        BlockId prevBlock = kInvalidBlock;
        uint16_t prevInstr = 0;
        uint32_t prevTid = 0;
        uint64_t prevHeld = 0;
    };

    /** One lock-order edge h -> l aggregated over its instances. */
    struct Edge
    {
        /** AND of the full held-lock mask at every instance. */
        uint64_t gateMask = ~0ull;
        /** Acquisition site of the first instance (for the report). */
        std::string site;
    };

    void ensureThread(uint32_t tid);
    uint64_t heldMask(uint32_t tid) const;
    std::string lockSetName(uint64_t mask) const;
    std::string siteName(BlockId block, uint16_t instr) const;
    void handleAccess(uint32_t tid, Addr addr, BlockId block,
                      uint16_t instr, bool is_write);
    void reportViolation(const Shadow &s, uint32_t tid, BlockId block,
                         uint16_t instr, bool is_write, uint64_t held,
                         Addr addr);

    const Program *prog;
    SyncArbiter *inner;
    DiagnosticSink *sink;
    size_t maxFindings;

    /** Locks currently held per thread, in acquisition order. */
    std::vector<std::vector<uint32_t>> heldLocks;
    /** Latest run position seen per thread (site attribution). */
    std::vector<uint32_t> lastRunPos;

    /** Derived per-block tables (atomic blocks are skipped). */
    std::vector<uint8_t> blockHasAtomic;

    std::unordered_map<Addr, Shadow> shadow;
    /** Dedup key: (prev block, prev instr, block, instr). */
    std::set<std::tuple<BlockId, uint16_t, BlockId, uint16_t>>
        reportedPairs;

    /** Lock-order graph, keyed (held, acquired) for determinism. */
    std::map<std::pair<uint32_t, uint32_t>, Edge> edges;

    LockDisciplineStats counters;
};

/**
 * Replay `pinball` under its recorded synchronization order with the
 * lock-discipline detector attached. Lockset findings go to `sink`
 * under pass "lockset", deadlock-potential findings under "deadlock";
 * `run_lockset` / `run_deadlock` select which of the two emit. A
 * replay divergence is reported as an error diagnostic, not thrown.
 */
LockDisciplineStats checkGuestLockDiscipline(
    const Program &prog, const Pinball &pinball, DiagnosticSink &sink,
    uint64_t quantum_instrs = 1000, size_t max_findings = 32,
    bool run_lockset = true, bool run_deadlock = true);

} // namespace looppoint

#endif // LOOPPOINT_TESTS_ORACLES_LOCKSET_HH
