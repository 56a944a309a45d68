/**
 * @file
 * Static program representation.
 *
 * A Program is the analog of a compiled multi-threaded binary plus the
 * runtime libraries it links against. It contains:
 *
 *  - Images (main binary, libiomp analog, libc analog) with base
 *    addresses, so "is this PC in the main image?" is a real question —
 *    the LoopPoint spin/synchronization filter depends on it;
 *  - BasicBlocks with concrete PCs and per-instruction descriptors;
 *  - Routines grouping blocks (DCFG routine partitioning ground truth);
 *  - LoweredKernels: structured OpenMP-like parallel regions the
 *    execution engine interprets (worker loop, body tree, scheduling
 *    policy, synchronization uses);
 *  - a run list: the dynamic sequence of kernel instances (timestep
 *    structure of the application).
 *
 * Programs are produced by ProgramBuilder (program_builder.hh), usually
 * via the workload generators in src/workload.
 */

#ifndef LOOPPOINT_ISA_PROGRAM_HH
#define LOOPPOINT_ISA_PROGRAM_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "isa/instr.hh"
#include "isa/op_class.hh"

namespace looppoint {

using BlockId = uint32_t;
using Addr = uint64_t;

constexpr BlockId kInvalidBlock = ~0u;

/** Which binary image a block lives in. */
enum class ImageId : uint8_t
{
    Main,    ///< the application binary; work counted by LoopPoint
    LibIomp, ///< OpenMP runtime analog; filtered as synchronization
    LibC,    ///< libc analog (futex stubs); filtered as synchronization
    NumImages
};

constexpr size_t kNumImages = static_cast<size_t>(ImageId::NumImages);

/** Image metadata. */
struct Image
{
    std::string name;
    Addr base = 0;
};

/**
 * One memory-accessing instruction of a block (derived view, built by
 * Program::finalizeDerived). Lets the per-block address generator walk
 * only the memory ops instead of re-scanning every instruction.
 */
struct BlockMemOp
{
    uint16_t index = 0;          ///< instruction index within the block
    uint8_t stream = 0xff;       ///< kNoStream when stack/scalar
    bool isWrite = false;
};

/** A single-entry single-exit static code block. */
struct BasicBlock
{
    BlockId id = kInvalidBlock;
    Addr pc = 0;
    ImageId image = ImageId::Main;
    uint32_t routine = 0;
    std::vector<InstrDesc> instrs;
    /** Derived: the memory ops of `instrs`, in instruction order. */
    std::vector<BlockMemOp> memOps;
    /** Derived: indices of the Branch instructions of `instrs`, in
     * instruction order. */
    std::vector<uint16_t> branches;

    size_t numInstrs() const { return instrs.size(); }
    /** True when the final instruction is a control transfer. */
    bool endsWithBranch() const
    {
        return !instrs.empty() && instrs.back().op == OpClass::Branch;
    }
};

/** Static routine (function) grouping blocks. */
struct Routine
{
    std::string name;
    ImageId image = ImageId::Main;
    BlockId entry = kInvalidBlock;
    std::vector<BlockId> blocks;
};

/** How a kernel's parallel iterations are distributed over threads. */
enum class SchedPolicy : uint8_t
{
    Serial,     ///< only thread 0 executes the iterations
    StaticFor,  ///< contiguous per-thread ranges, computed up front
    DynamicFor  ///< threads claim chunks from a shared counter
};

/** OpenMP wait policy: what a waiting thread does. */
enum class WaitPolicy : uint8_t
{
    Passive, ///< block (futex); no instructions while waiting
    Active   ///< spin in the runtime library, consuming instructions
};

/** "passive" / "active" — the spelling every key and CLI flag uses. */
constexpr const char *
waitPolicyName(WaitPolicy policy)
{
    return policy == WaitPolicy::Active ? "active" : "passive";
}

/** The inverse of waitPolicyName(); nullopt for any other spelling. */
constexpr std::optional<WaitPolicy>
parseWaitPolicy(std::string_view name)
{
    for (WaitPolicy p : {WaitPolicy::Passive, WaitPolicy::Active})
        if (name == waitPolicyName(p))
            return p;
    return std::nullopt;
}

/**
 * One element of a kernel body. The execution engine interprets the
 * body tree once per parallel iteration.
 */
struct BodyItem
{
    enum class Kind : uint8_t
    {
        Block,    ///< straight-line block
        Cond,     ///< if/else diamond taken with probability `prob`
        Loop,     ///< inner counted loop around `children`
        Atomic,   ///< atomic update block (AtomicRmw inside)
        Critical, ///< lock-protected critical section
    };

    Kind kind = Kind::Block;

    // Role-dependent block ids:
    //   Block/Atomic: blocks[0] = the block
    //   Cond:  blocks[0]=cond, blocks[1]=then, blocks[2]=else,
    //          blocks[3]=join
    //   Loop:  blocks[0]=header, blocks[1]=latch
    //   Critical: blocks[0]=acquire, blocks[1]=critical section,
    //          blocks[2]=release
    BlockId blocks[4] = {kInvalidBlock, kInvalidBlock, kInvalidBlock,
                         kInvalidBlock};

    /** Cond: probability the then-side executes. */
    double prob = 0.5;
    /** Loop: mean trip count. */
    uint64_t trips = 1;
    /** Loop: +/- uniform jitter applied to trips per execution. */
    uint32_t tripJitter = 0;
    /** Critical: lock object index. */
    uint32_t lockId = 0;

    std::vector<BodyItem> children;
};

/** Synchronization features a kernel exercises (paper Table III). */
struct SyncUse
{
    bool staticFor = false;
    bool dynamicFor = false;
    bool barrier = false;
    bool master = false;
    bool single = false;
    bool reduction = false;
    bool atomic = false;
    bool lock = false;
};

/**
 * Address-generation plan of one memory stream (derived view, built by
 * Program::finalizeDerived). Precomputes everything the engine's
 * per-access formula needs — clamped stride/footprint, the jump-draw
 * bound, and the region base — so address generation is a table walk.
 */
struct StreamPlan
{
    Addr base = 0;          ///< shared base, or the tid==0 private base
    uint64_t stride = 1;    ///< max(1, strideBytes)
    uint64_t footprint = 64; ///< max(64, footprintBytes)
    uint64_t jumpBound = 0; ///< footprint / stride + 1
    double jumpProb = 0.0;
    bool shared = false;
};

/**
 * A fully lowered parallel region. The engine executes:
 *
 *   [masterPrologue (thread 0 only)]
 *   worker loop: for each assigned iteration
 *       workerHeader block, then the body tree
 *   [reductionTail (atomic merge, once per thread)]
 *   end-of-kernel barrier
 */
struct LoweredKernel
{
    std::string name;
    SchedPolicy sched = SchedPolicy::StaticFor;
    uint64_t parallelIters = 0;
    uint64_t chunkSize = 1;
    /**
     * Skew of static iteration shares across threads; 0 = equal shares,
     * 1 = strongly skewed toward low thread ids (657.xz_s-style
     * heterogeneity).
     */
    double imbalance = 0.0;

    BlockId entryBlock = kInvalidBlock;
    BlockId masterPrologue = kInvalidBlock; ///< optional (master/single)
    BlockId workerHeader = kInvalidBlock;   ///< main-image loop entry
    BlockId workerLatch = kInvalidBlock;    ///< back-branch block
    std::vector<BodyItem> body;
    BlockId reductionTail = kInvalidBlock;  ///< optional atomic merge
    BlockId exitBlock = kInvalidBlock;

    /** Memory streams referenced by this kernel's blocks. */
    std::vector<MemStream> streams;
    /** Derived: one address-generation plan per stream. */
    std::vector<StreamPlan> plans;

    SyncUse sync;
};

/** Block ids of the shared runtime-library (libiomp/libc) code. */
struct RuntimeBlocks
{
    BlockId barrierEnter = kInvalidBlock;
    BlockId barrierExit = kInvalidBlock;
    /** The spin-wait loop; a self-looping block in libiomp. */
    BlockId spinWait = kInvalidBlock;
    /** Futex block in the libc image; one execution per passive wait. */
    BlockId futexWait = kInvalidBlock;
    BlockId chunkFetch = kInvalidBlock;
    BlockId lockAcquire = kInvalidBlock;
    BlockId lockSpin = kInvalidBlock;
    BlockId lockRelease = kInvalidBlock;
    BlockId atomicStub = kInvalidBlock;
};

/**
 * A complete static program: images, blocks, routines, kernels, and the
 * dynamic kernel schedule.
 */
class Program
{
  public:
    /** Images indexed by ImageId. */
    std::vector<Image> images;
    std::vector<BasicBlock> blocks;
    std::vector<Routine> routines;
    std::vector<LoweredKernel> kernels;
    RuntimeBlocks runtime;

    /**
     * Dynamic sequence of kernel executions: indices into `kernels`.
     * Encodes the application's timestep structure.
     */
    std::vector<uint32_t> runList;

    /** Number of lock objects used across all kernels. */
    uint32_t numLocks = 0;

    std::string name;

    /**
     * Derived flat per-block arrays (finalizeDerived), indexed by the
     * dense BlockId. The hot paths (engine emit, slice profiling) read
     * these instead of chasing into the BasicBlock structs.
     */
    std::vector<uint32_t> instrCounts;
    std::vector<uint8_t> mainImageFlags;

    const BasicBlock &block(BlockId id) const { return blocks[id]; }
    size_t numBlocks() const { return blocks.size(); }

    /** True if the block belongs to the application's main image. */
    bool
    inMainImage(BlockId id) const
    {
        return blocks[id].image == ImageId::Main;
    }

    /**
     * Build the derived views: per-block memory-op and branch tables,
     * per-kernel stream plans, and the flat instruction-count /
     * main-image arrays. ProgramBuilder::build() calls this; a
     * hand-assembled Program must call it before execution (validate()
     * checks).
     */
    void finalizeDerived();

    /** True once finalizeDerived() has run on the current contents. */
    bool derivedReady() const { return derived; }

    /** Total static instructions across a kernel's body tree. */
    uint64_t bodyInstrCount(const LoweredKernel &k) const;

    /**
     * Approximate dynamic main-image instruction count of the whole
     * program when run with `num_threads` threads (spin/sync excluded).
     * Used for planning slice sizes and for theoretical-speedup math.
     */
    uint64_t estimateWorkInstrs(uint32_t num_threads) const;

    /** Validate internal consistency; panics on corruption. */
    void validate() const;

  private:
    uint64_t bodyItemInstrCount(const BodyItem &item) const;

    bool derived = false;
};

} // namespace looppoint

#endif // LOOPPOINT_ISA_PROGRAM_HH
