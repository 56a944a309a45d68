/**
 * @file
 * RaceDetector: a FastTrack-style vector-clock happens-before checker
 * for guest programs, run during constrained (pinball) replay.
 *
 * The detector observes the engine's dynamic block stream as an
 * ExecListener and, at the same time, decorates the replay SyncArbiter
 * so it sees every successful lock acquisition and dynamic-for chunk
 * grant at the moment it is resolved. From those events it derives the
 * happens-before ordering the guest program actually established:
 *
 *   lock release -> next acquire of the same lock
 *   barrier enter (all threads) -> barrier exit (all threads)
 *   dynamic-for chunk grant N -> grant N+1 of the same kernel instance
 *   atomic stub executions of the same kernel instance (seq-cst RMW)
 *
 * Two accesses to the same shared address race when neither is ordered
 * before the other and at least one is a write. Reports carry both
 * access sites (block + instruction index). Write/write races are
 * errors; races involving a read are warnings.
 *
 * Accesses excluded by construction (never reported):
 *  - private-stream, stack, and sync-object addresses: per-thread or
 *    synchronization-only by the addr_space.hh layout;
 *  - accesses flagged `aliased` by the generator: address-compression
 *    artifacts, not program-semantic sharing;
 *  - blocks containing an AtomicRmw instruction (atomic updates and
 *    reduction tails): modeled as hardware-serialized.
 *
 * A test oracle of the workload generator, built only into lp_tests:
 * tests/test_analysis.cc requires zero races over every bundled
 * program.
 */

#ifndef LOOPPOINT_TESTS_ORACLES_RACE_DETECTOR_HH
#define LOOPPOINT_TESTS_ORACLES_RACE_DETECTOR_HH

#include <cstdint>
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

/** Counters summarizing one race-check replay. */
struct RaceCheckStats
{
    uint64_t checkedAccesses = 0;
    uint64_t skippedAliased = 0;
    uint64_t skippedAtomic = 0;
    /** Distinct (site pair, kind) races reported. */
    size_t races = 0;
};

/** See file comment. */
class RaceDetector : public ExecListener, public SyncArbiter
{
  public:
    /**
     * @param prog the program being replayed
     * @param inner the arbiter actually deciding outcomes (usually a
     *        ReplayArbiter); may be nullptr (default policy)
     * @param sink where race reports go (pass name "race")
     * @param max_findings cap on individual race reports (further
     *        races are only counted)
     */
    RaceDetector(const Program &prog, SyncArbiter *inner,
                 DiagnosticSink &sink,
                 size_t max_findings = kMaxReports);

    // SyncArbiter (decorator): delegate, then update clocks.
    bool mayAcquireLock(uint32_t lock_id, uint32_t tid) override;
    void onLockAcquired(uint32_t lock_id, uint32_t tid) override;
    bool mayFetchChunk(uint32_t run_pos, uint32_t tid) override;
    void onChunkFetched(uint32_t run_pos, uint32_t tid) override;

    // ExecListener
    void onBlock(uint32_t tid, BlockId block,
                 const ExecutionEngine &engine) override;

    const RaceCheckStats &stats() const { return counters; }

    /** Default cap on individual race reports. */
    static constexpr size_t kMaxReports = 32;

  private:
    using VectorClock = std::vector<uint64_t>;

    /** One access site at a point in logical time. */
    struct Epoch
    {
        uint64_t clk = 0; ///< 0 = no such access yet
        uint32_t tid = 0;
        BlockId block = kInvalidBlock;
        uint16_t instr = 0;
    };

    /** FastTrack shadow word: last write + last read(s). */
    struct Shadow
    {
        Epoch write;
        Epoch read;
        /**
         * Last read per thread; only allocated once concurrent
         * unordered readers are seen (FastTrack's read-VC escalation,
         * with sites kept so reports can cite both accesses).
         */
        std::vector<Epoch> readEpochs;
    };

    void ensureThread(uint32_t tid);
    /** tc(t) >= e: the access at `e` happened before thread t's now. */
    bool ordered(const Epoch &e, uint32_t tid) const;
    void joinInto(VectorClock &dst, const VectorClock &src) const;
    /** Release: publish tid's clock into `target`, then advance tid. */
    void releaseInto(VectorClock &target, uint32_t tid);

    void handleRead(uint32_t tid, Addr addr, BlockId block,
                    uint16_t instr);
    void handleWrite(uint32_t tid, Addr addr, BlockId block,
                     uint16_t instr);
    void reportRace(const Epoch &prev, bool prev_write, uint32_t tid,
                    BlockId block, uint16_t instr, bool is_write,
                    Addr addr);

    std::string siteName(BlockId block, uint16_t instr) const;

    const Program *prog;
    SyncArbiter *inner;
    DiagnosticSink *sink;
    size_t maxReports;

    /** Per-thread vector clocks (created on first sight of a tid). */
    std::vector<VectorClock> clocks;
    /** Per-lock-id release clocks. */
    std::vector<VectorClock> lockClock;
    /** Per-run-position barrier join clocks. */
    std::vector<VectorClock> barrierClock;
    /** Per-run-position dynamic-for chunk serialization clocks. */
    std::vector<VectorClock> chunkClock;
    /** Per-kernel-index atomic-stub serialization clocks. */
    std::vector<VectorClock> atomicClock;

    /** Locks currently held per thread, in acquisition order. */
    std::vector<std::vector<uint32_t>> heldLocks;
    /** Barrier arrivals per run position (participant check). */
    std::vector<uint32_t> barrierArrivals;
    std::vector<bool> barrierChecked;

    /** Derived per-block tables. */
    std::vector<uint8_t> blockHasAtomic;

    std::unordered_map<Addr, Shadow> shadow;
    /** Dedup key: (prev block, prev instr, block, instr, rw kinds). */
    std::set<std::tuple<BlockId, uint16_t, BlockId, uint16_t,
                        uint8_t>> reportedPairs;
    RaceCheckStats counters;
};

/**
 * Replay `pinball` under its recorded synchronization order with the
 * race detector attached. Race reports go to `sink` (pass "race"); a
 * replay divergence is reported as an error diagnostic, not thrown.
 */
RaceCheckStats checkGuestRaces(
    const Program &prog, const Pinball &pinball, DiagnosticSink &sink,
    uint64_t quantum_instrs = 1000,
    size_t max_findings = RaceDetector::kMaxReports);

} // namespace looppoint

#endif // LOOPPOINT_TESTS_ORACLES_RACE_DETECTOR_HH
