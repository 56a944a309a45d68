/**
 * @file
 * Pinballs: portable, replayable checkpoints of a multi-threaded
 * execution (the PinPlay analog, Sections II and IV-C of the paper).
 *
 * A whole-program pinball captures everything needed to reproduce the
 * recorded execution under any functional scheduler:
 *
 *  - the execution configuration (threads, wait policy, seed);
 *  - the schedule-resolution log: the global order of successful lock
 *    acquisitions per lock and of dynamic-for chunk grants per kernel
 *    instance (the analog of PinPlay's shared-memory dependence
 *    files);
 *  - per-thread final instruction counts, used to verify replays.
 *
 * Our programs are regenerated from their descriptors instead of
 * storing a memory image: the (workload name, seed) pair plays the role
 * of the .text/.reg snapshot, which keeps pinballs tiny while
 * preserving the property the methodology needs — deterministic,
 * analysis-grade replay (see DESIGN.md, substitution table).
 */

#ifndef LOOPPOINT_PINBALL_PINBALL_HH
#define LOOPPOINT_PINBALL_PINBALL_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "exec/engine.hh"
#include "exec/listener.hh"
#include "util/load_result.hh"

namespace looppoint {

/** Ordered log of nondeterministic synchronization resolutions. */
struct SyncLog
{
    /** Per lock id: tids in acquisition order. */
    std::vector<std::vector<uint32_t>> lockOrder;
    /** Per run-list position: tids in chunk-grant order. */
    std::vector<std::vector<uint32_t>> chunkOrder;

    bool operator==(const SyncLog &other) const = default;
};

/** A recorded whole-program execution. */
struct Pinball
{
    std::string programName;
    ExecConfig config;
    SyncLog log;
    /** Per-thread total (unfiltered) instruction counts at record. */
    std::vector<uint64_t> threadIcounts;
    /** Per-thread main-image instruction counts at record. */
    std::vector<uint64_t> threadFilteredIcounts;

    /**
     * Serialize as a versioned, CRC32-checksummed artifact (format
     * version 2: magic, version, payload length, payload, checksum).
     */
    void save(std::ostream &os) const;
    /**
     * Parse a pinball saved with save() — current or legacy v1 format
     * — returning a structured error (truncation, bad checksum,
     * unknown version, hostile values) instead of calling fatal().
     */
    static LoadResult<Pinball> tryLoad(std::istream &is);
    /** tryLoad, with failures rethrown as FatalError (legacy API). */
    static Pinball load(std::istream &is);

    bool operator==(const Pinball &other) const = default;
};

/** SyncArbiter that logs every resolution (used while recording). */
class RecordingArbiter : public SyncArbiter
{
  public:
    RecordingArbiter(uint32_t num_locks, uint32_t run_list_size);

    void onLockAcquired(uint32_t lock_id, uint32_t tid) override;
    void onChunkFetched(uint32_t run_pos, uint32_t tid) override;

    SyncLog take() { return std::move(log); }
    const SyncLog &current() const { return log; }

  private:
    SyncLog log;
};

/** SyncArbiter that enforces a recorded resolution order. */
class ReplayArbiter : public SyncArbiter
{
  public:
    explicit ReplayArbiter(const SyncLog &log);

    bool mayAcquireLock(uint32_t lock_id, uint32_t tid) override;
    void onLockAcquired(uint32_t lock_id, uint32_t tid) override;
    bool mayFetchChunk(uint32_t run_pos, uint32_t tid) override;
    void onChunkFetched(uint32_t run_pos, uint32_t tid) override;

    /** True when every logged event has been replayed. */
    bool exhausted() const;

    /**
     * Replay-position serialization (one text line each way): lets a
     * region checkpoint shipped to another process resume constrained
     * replay at the exact event the warming pass had reached. The
     * loader must hold the identical SyncLog.
     */
    void saveCursors(std::ostream &os) const;
    void loadCursors(std::istream &is);

  private:
    const SyncLog *log;
    std::vector<size_t> lockCursor;
    std::vector<size_t> chunkCursor;
};

/**
 * Record a whole-program execution of `prog` under flow control.
 * `listener` (optional) observes the recorded execution.
 */
Pinball recordPinball(const Program &prog, const ExecConfig &cfg,
                      uint64_t quantum_instrs = 1000,
                      ExecListener *listener = nullptr);

/**
 * Replay a pinball: runs the program under the replay arbiter with the
 * given flow-control quantum (which may differ from the recording
 * quantum; the replay still reproduces the recorded resolution order).
 * Verifies per-thread filtered instruction counts against the pinball
 * and throws FatalError on divergence.
 */
void replayPinball(const Program &prog, const Pinball &pinball,
                   uint64_t quantum_instrs = 1000,
                   ExecListener *listener = nullptr);

} // namespace looppoint

#endif // LOOPPOINT_PINBALL_PINBALL_HH
