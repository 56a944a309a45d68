/**
 * @file
 * The multi-process execution backend: a coordinator that shards
 * checkpointed region simulations across persistent worker processes.
 *
 * Topology: the coordinator forks the whole worker fleet ONCE, at
 * backend construction, before the warming pass has dirtied any
 * state — so the copy-on-write tax of fork (both the child faulting
 * pages it touches and the parent re-faulting every page it writes
 * after the fork) is paid on a near-empty image, one epoch for the
 * whole run. Forking per region would re-arm that tax on the full
 * working set for every region, which on a small host costs far more
 * than the explicit copy it avoids.
 *
 * Region checkpoints are *shipped* instead of inherited, split by
 * what dominates their size:
 *
 *  - the microarchitectural state (cache tag arrays, L3 sharer
 *    masks, prefetch counter, branch-predictor tables — megabytes) goes
 *    through a per-slot shared-memory arena: the coordinator exports
 *    it with one straight memcpy (MulticoreSim::exportMicroarchState)
 *    and the worker binds its caches zero-copy into the arena
 *    (adoptMicroarchState) and simulates in place;
 *  - the functional state (ExecutionEngine::save: cursors, rng
 *    streams, sync objects, block counts — kilobytes) and the replay
 *    arbiter cursors ride the per-worker socketpair as one state
 *    frame behind the task frame.
 *
 * Everything on the socket is CRC32-framed (dist/frame.hh,
 * dist/protocol.hh): the coordinator sends task + state frames, the
 * worker streams progress frames (one per attempt) and a final result
 * frame whose success payload is a journal-compatible completion
 * record. Keeping the full protocol on the socketpair is deliberate —
 * it is the seam the ROADMAP's multi-host farm plugs into (a remote
 * worker would receive the arena image as a third frame).
 *
 * This split ships exactly the *restart set* of a region — everything
 * detailed simulation does not reset on entry — so a worker's run is
 * bit-identical to the pool backend's restored checkpoint.
 *
 * Fault tolerance: a worker that hits EOF mid-region without a result
 * frame (killed, crashed) or overruns `workerTimeoutSeconds` (wedged;
 * the coordinator SIGKILLs it) is a region failure like any other.
 * The attempts the worker consumed — counted from its progress
 * frames — are charged against the region's attempt budget; if budget
 * remains, the coordinator re-warms (replaying the exact warming stop
 * schedule, so the retry's warm state is bit-identical to the
 * original dispatch), forks a replacement worker for the dead slot,
 * and retries; otherwise the region drops and coverage renormalizes.
 *
 * Process hygiene: the coordinator must be single-threaded when it
 * forks the fleet (the caller resets any thread pool before
 * constructing the backend, and starts its warming partition threads,
 * sim/warm_partition.hh, after it). A respawn during the warming pass
 * forks beside those threads; that is safe because, between their
 * start-up and their end, they touch only their own queues, cache
 * hierarchies and checkpoint buffers, which a worker never uses.
 * Workers create no threads, close every other worker's
 * descriptors (so EOF reliably means "this worker is gone"), and
 * leave via _exit — cleanly, with status 0, when the coordinator
 * closes their channel after the last region. An InjectedKill in a
 * worker raises SIGKILL on itself — under this backend a simulated
 * host death kills one worker process, not the run.
 */

#ifndef LOOPPOINT_DIST_REGION_FARM_HH
#define LOOPPOINT_DIST_REGION_FARM_HH

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <functional>
#include <string>
#include <vector>

#include "dist/region_exec.hh"
#include "sim/config.hh"
#include "util/fault.hh"

namespace looppoint {

/** Host-side knobs plus the worker-side reconstruction context. */
struct ProcsBackendOptions
{
    /** Maximum concurrent worker processes (>= 1). */
    uint32_t workers = 1;
    /** SIGKILL a worker whose region has been in flight longer than
     * this many seconds; 0 disables the timeout. */
    double workerTimeoutSeconds = 0.0;
    /** Fault plan, forwarded to the worker-side attempt loop. */
    FaultPlan faults;

    /**
     * Checkpoint-shipping context: the coordinator builds the worker
     * simulator template from the same program and configuration it
     * warms with (workers inherit it copy-on-write at fork), and each
     * task restores a region's state from the arena + state frame.
     * All three pointers must outlive the backend.
     */
    const Program *prog = nullptr;
    ExecConfig execCfg;
    SimConfig simCfg;
    /** The recorded sync log; replay-arbiter cursors shipped in state
     * frames index into it. Required even for unconstrained runs. */
    const SyncLog *syncLog = nullptr;
    /** Arena size per slot: the coordinator sim's
     * microarchStateBytes() (a pure function of the configuration, so
     * worker sims agree on the layout). */
    size_t arenaBytes = 0;
};

/**
 * Re-warm to the start of region `region_index` and hand the warm
 * state to `use`. Called by the backend when a retry needs warm state
 * the dead worker took with it. The producer implements this by
 * replaying its warming pass with the exact original stop schedule.
 */
using RewarmFn = std::function<void(
    uint32_t region_index,
    const std::function<void(MulticoreSim &, const ReplayArbiter &)>
        &use)>;

/** See file comment. */
class ProcsBackend : public RegionExecBackend
{
  public:
    /** Maps the arenas and forks the whole worker fleet (the caller
     * must be single-threaded here). */
    ProcsBackend(ProcsBackendOptions opts, CompletionSink sink,
                 RewarmFn rewarm);
    /** SIGKILLs and reaps any still-live workers (unwind safety),
     * then unmaps the arenas. */
    ~ProcsBackend() override;

    void submitSnapshots(std::vector<RegionWorkItem> items,
                         SnapshotSource source) override;
    void finish() override;

    uint32_t workerDeaths() const override { return deaths; }
    uint32_t workerRespawns() const override { return respawns; }

  private:
    /** One worker slot; the slot index is the stable worker id. */
    struct Slot
    {
        /** The worker process exists (may be idle between regions). */
        bool live = false;
        /** A region is in flight on this slot. */
        bool busy = false;
        pid_t pid = -1;
        int fd = -1;
        /** MAP_SHARED checkpoint arena, opts.arenaBytes long. */
        void *arena = nullptr;
        std::string rxBuf;
        RegionWorkItem item;
        uint32_t attemptBase = 0;
        /** Last attempt index a progress frame announced; -1 = none. */
        int64_t lastProgress = -1;
        bool resultSeen = false;
        /** Dispatch timestamp (tracer clock, ns) for the trace and
         * the wedge timeout. */
        uint64_t dispatchNs = 0;
        bool timedOut = false;
        /** Non-empty when the worker sent garbage and was killed. */
        std::string protoError;
    };

    /** A region awaiting a respawn + retry (attempt budget remains). */
    struct Retry
    {
        RegionWorkItem item;
        uint32_t attemptBase = 0;
    };

    /** Ship a region to a free slot, draining completions (and
     * blocking) while every worker is busy. */
    void dispatchToFreeSlot(const RegionWorkItem &item,
                            MulticoreSim &warm_base,
                            const ReplayArbiter &warm_arbiter);
    /** Fork a worker process into `slot_idx` (no task assigned). */
    void spawnWorker(uint32_t slot_idx);
    /** Ship a region to `slot_idx` (reviving a dead worker first):
     * export the microarch state into the slot arena, then send the
     * task frame and the functional-state frame. */
    void dispatch(uint32_t slot_idx, const RegionWorkItem &item,
                  uint32_t attempt_base, MulticoreSim &warm_base,
                  const ReplayArbiter &warm_arbiter);
    /** Worker-process body: task loop; leaves only via _exit. */
    [[noreturn]] void workerMain(int fd, void *arena);
    /**
     * Service worker channels: drain readable frames, reap exited
     * workers, enforce the wedge timeout. Blocks (in poll) until at
     * least one slot frees when `need_slot`.
     */
    void pump(bool need_slot);
    void handleFrames(Slot &slot);
    /** Emit the backend.task + region.sim trace spans for one
     * dispatch's conclusion (completion, death, or doomed attempt). */
    void recordTaskTrace(const Slot &slot,
                         const RegionCompletion &completion);
    /** EOF on a slot: reap the child; a mid-region EOF is a death.
     * Kills first so the wait is total even if the worker was merely
     * misdiagnosed as dead (read error on a live channel). */
    void reap(Slot &slot);
    /** Classification half of reap, also reached by pump's liveness
     * sweep with a status it already collected via WNOHANG: mark the
     * slot dead and either retry or finally fail its region. */
    void finishReap(Slot &slot, int status);
    /** Close idle workers' channels and wait for their clean exits. */
    void shutdownWorkers();
    uint32_t busyCount() const;
    bool sendCounted(int fd, const std::string &payload);

    ProcsBackendOptions opts;
    CompletionSink sink;
    RewarmFn rewarm;
    /** Pre-fork worker simulator template: constructed once by the
     * coordinator so every worker (and respawn) inherits it
     * copy-on-write instead of rebuilding it. Workers re-aim it per
     * task; the coordinator never touches it after construction. */
    std::unique_ptr<MulticoreSim> workerSim;
    std::vector<Slot> slots;
    std::deque<Retry> retries;
    uint32_t deaths = 0;
    uint32_t respawns = 0;
    /** Virtual trace track per worker slot, created lazily. */
    std::vector<uint32_t> workerTracks;
};

} // namespace looppoint

#endif // LOOPPOINT_DIST_REGION_FARM_HH
