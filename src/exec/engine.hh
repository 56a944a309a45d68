/**
 * @file
 * ExecutionEngine: functional interpreter for multi-threaded Programs.
 *
 * The engine advances one thread by one basic block per step() call and
 * is otherwise completely passive: a *driver* (round-robin flow control
 * for recording/profiling, the replay driver, or the timing simulator)
 * decides which thread runs next. All synchronization (end-of-kernel
 * barriers, dynamic-for chunk claiming, critical sections) is resolved
 * functionally inside the engine, with nondeterministic outcomes routed
 * through a SyncArbiter so recordings can be replayed exactly.
 *
 * Waiting behavior follows the configured OpenMP wait policy: under
 * Active, a waiting thread emits iterations of the libiomp spin-wait
 * block (consuming instructions, like OMP_WAIT_POLICY=ACTIVE); under
 * Passive it emits one libc futex block and then reports Blocked until
 * another thread's progress wakes it.
 *
 * The engine is a value type: copying it snapshots the complete
 * execution state, which is how region checkpoints ("pinballs") are
 * taken.
 */

#ifndef LOOPPOINT_EXEC_ENGINE_HH
#define LOOPPOINT_EXEC_ENGINE_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "exec/mem_ref.hh"
#include "exec/sync_arbiter.hh"
#include "isa/program.hh"
#include "util/rng.hh"

namespace looppoint {

/** Result of advancing a thread by one step. */
struct StepResult
{
    enum class Kind : uint8_t
    {
        Block,    ///< a basic block was executed; see `block`
        Blocked,  ///< thread is passively waiting; try another thread
        Finished  ///< thread ran off the end of the program
    };

    Kind kind = Kind::Finished;
    BlockId block = kInvalidBlock;
};

/**
 * Execution configuration shared by all engine uses.
 */
struct ExecConfig
{
    uint32_t numThreads = 8;
    WaitPolicy waitPolicy = WaitPolicy::Passive;
    /** Generate concrete memory addresses for each executed block. */
    bool genAddresses = false;
    /** Base seed; per-thread streams are forked from it. */
    uint64_t seed = 1;

    bool operator==(const ExecConfig &other) const = default;
};

/** See file comment. */
class ExecutionEngine
{
  public:
    ExecutionEngine(const Program &prog, const ExecConfig &cfg,
                    SyncArbiter *arbiter = nullptr);

    // Copyable: a copy is a checkpoint of the execution state.
    ExecutionEngine(const ExecutionEngine &) = default;
    ExecutionEngine &operator=(const ExecutionEngine &) = default;

    /** Advance thread `tid` by one basic block. */
    StepResult step(uint32_t tid);

    /** True if the thread can make progress right now. */
    bool runnable(uint32_t tid) const
    {
        const Cursor &c = cursors[tid];
        return c.runnable && c.st != St::Done;
    }

    /** True if the thread has completed the whole program. */
    bool finished(uint32_t tid) const
    {
        return cursors[tid].st == St::Done;
    }

    /** True once every thread finished. */
    bool allFinished() const { return finishedCount == cfg.numThreads; }

    uint32_t numThreads() const { return cfg.numThreads; }
    const Program &program() const { return *prog; }
    const ExecConfig &config() const { return cfg; }

    /**
     * Memory references of the most recent block returned by step(tid).
     * Only populated when cfg.genAddresses is set.
     */
    const std::vector<MemRef> &memRefs(uint32_t tid) const
    {
        return cursors[tid].memRefs;
    }

    /** Total dynamic instructions executed by a thread so far. */
    uint64_t icount(uint32_t tid) const { return cursors[tid].icount; }

    /** Main-image ("filtered") instructions executed by a thread. */
    uint64_t filteredIcount(uint32_t tid) const
    {
        return cursors[tid].filteredIcount;
    }

    /**
     * Threads whose runnable flag flipped from false to true during
     * the most recent step() call. Event-driven schedulers use this to
     * re-queue sleepers without scanning every thread; the list is
     * transient (cleared at the start of the next step).
     */
    const std::vector<uint32_t> &wokenThreads() const
    {
        return wokenThisStep;
    }

    /** Sum of icount over threads. */
    uint64_t globalIcount() const;

    /** Sum of filteredIcount over threads. */
    uint64_t globalFilteredIcount() const;

    /** Global execution count of a block across all threads. */
    uint64_t blockExecCount(BlockId id) const { return blockCounts[id]; }

    /** Index into the run list the thread is currently executing. */
    uint32_t runPosition(uint32_t tid) const;

    /**
     * Direction of the terminating branch of the most recent block
     * returned by step(tid); only meaningful when that block ends with
     * a Branch. Loop latches report "continue", cond blocks report
     * "then-side", spin/runtime branches report taken.
     */
    bool branchTaken(uint32_t tid) const
    {
        return cursors[tid].branchTaken;
    }

    /**
     * Replace the arbiter (used when resuming a checkpoint under a
     * different record/replay regime). May be nullptr (default policy).
     */
    void setArbiter(SyncArbiter *a) { arbiter = a; }

    /**
     * Serialize the complete execution state — thread cursors
     * (including the body-walk stacks, encoded as item paths), RNG
     * states, synchronization state, and global counters — so a
     * mid-execution checkpoint can be restored in O(state) without
     * replaying the prefix: the functional part of a warm region
     * checkpoint (core/region_run.hh), the ELFie analog (paper
     * Section II).
     * The Program itself is not stored; the loader must supply the
     * identical program.
     */
    void save(std::ostream &os) const;

    /**
     * Restore an engine saved with save(). `prog` must be the same
     * program (validated via a structural fingerprint).
     */
    static ExecutionEngine load(std::istream &is, const Program &prog,
                                SyncArbiter *arbiter = nullptr);

  private:
    enum class St : uint8_t
    {
        KernelEntry,
        MasterPrologue,
        IterFetch,
        ChunkFetch,
        WorkerHeader,
        Body,
        WorkerLatch,
        ReductionStub,
        ReductionTail,
        BarrierEnter,
        BarrierWait,
        BarrierExit,
        KernelExit,
        Done
    };

    /** Why a thread is waiting (for wake bookkeeping + addresses). */
    enum class WaitKind : uint8_t
    {
        None,
        Barrier,
        Lock,
        Chunk
    };

    struct Frame
    {
        /** The Loop body item, or nullptr for the kernel body itself. */
        const BodyItem *loop = nullptr;
        /** The Critical item whose children this frame walks, or
         * nullptr. A critical frame has no header/latch; the lock is
         * released by the parent frame's Critical item (sub == 4)
         * after this frame pops. Mutually exclusive with `loop`. */
        const BodyItem *crit = nullptr;
        /** Items being walked (children of `loop`/`crit` or the kernel
         * body). */
        const std::vector<BodyItem> *items = nullptr;
        uint32_t idx = 0;
        /** 0 = emit header, 1 = walk items, 2 = emit latch. */
        uint8_t stage = 0;
        /** Sub-state of items[idx] (Cond / Critical micro-steps). */
        uint8_t sub = 0;
        bool condTaken = false;
        uint64_t tripsLeft = 1;
    };

    struct Cursor
    {
        St st = St::KernelEntry;
        uint32_t runPos = 0;
        /**
         * Cached kernel of runPos (clamped to the last run-list entry
         * once the thread is Done) and its kernel index. Refreshed by
         * refreshKernelCache() whenever runPos changes; valid because
         * the Program outlives the engine and is never mutated.
         */
        const LoweredKernel *kern = nullptr;
        uint32_t kidx = 0;
        /** Precomputed per-thread address bits (see addr_space.hh). */
        Addr stackBase = 0;
        Addr privTidBits = 0;
        uint64_t iterCur = 0;
        uint64_t iterEnd = 0;
        bool participated = false;
        std::vector<Frame> stack;
        Rng rng{0};
        Rng addrRng{0};
        /** Per-iteration draw counter for data-dependent decisions. */
        uint32_t drawCursor = 0;
        uint64_t icount = 0;
        uint64_t filteredIcount = 0;
        /** Per-kernel per-stream private-access counters. */
        std::vector<std::vector<uint64_t>> streamPos;
        /** Per-iteration counter for shared streams. */
        uint32_t iterAccessCursor = 0;
        uint64_t stackCursor = 0;
        bool runnable = true;
        WaitKind waitKind = WaitKind::None;
        uint32_t waitObj = 0;
        uint32_t curLock = 0;
        /** Direction of the terminating branch of the last block. */
        bool branchTaken = true;
        bool emittedFutex = false;
        std::vector<MemRef> memRefs;
    };

    struct BarrierState
    {
        uint32_t arrivals = 0;
        bool released = false;
    };

    struct LockState
    {
        bool held = false;
        uint32_t owner = 0;
    };

    struct ChunkState
    {
        uint64_t next = 0;
    };

    /** Emit `block` on behalf of `tid`: bookkeeping + addresses. */
    StepResult emit(uint32_t tid, BlockId block);

    /** Walk one step of the body tree; kInvalidBlock = iteration done. */
    BlockId walkBody(uint32_t tid, bool &blocked);

    /**
     * Deterministic uniform draw in [0,1) tied to the current
     * iteration (not to the executing thread), so data-dependent
     * control flow is identical no matter which thread executes an
     * iteration or in which order — branch outcomes model properties
     * of the data.
     */
    double iterationDraw(Cursor &c);

    /** Compute the static-for range for (kernel, tid). */
    void assignStaticRange(uint32_t tid);

    /** Try to take the next dynamic chunk. */
    bool tryFetchChunk(uint32_t tid);

    bool tryAcquireLock(uint32_t tid, uint32_t lock_id);
    void releaseLock(uint32_t tid, uint32_t lock_id);

    void blockThread(uint32_t tid, WaitKind kind, uint32_t obj);
    void wakeWaiters(WaitKind kind, uint32_t obj);

    void genBlockAddresses(uint32_t tid, const BasicBlock &bb);

    const LoweredKernel &curKernel(const Cursor &c) const;

    /** Recompute a cursor's cached kernel pointer from its runPos. */
    void refreshKernelCache(Cursor &c);

    const Program *prog;
    ExecConfig cfg;
    SyncArbiter *arbiter;

    std::vector<Cursor> cursors;
    std::vector<BarrierState> barriers; ///< indexed by runPos
    std::vector<ChunkState> chunks;     ///< indexed by runPos
    std::vector<LockState> locks;
    /**
     * Global per-block exec counts. Indexed directly by BlockId: ids
     * are dense 0..numBlocks-1 (Program::validate asserts it), so no
     * bounds pattern is needed at the call sites.
     */
    std::vector<uint64_t> blockCounts;
    /** Threads woken by the step in progress (see wokenThreads()). */
    std::vector<uint32_t> wokenThisStep;
    uint32_t finishedCount = 0;
};

} // namespace looppoint

#endif // LOOPPOINT_EXEC_ENGINE_HH
