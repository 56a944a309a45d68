/**
 * @file
 * Dynamic Control-Flow Graph (DCFG) construction and loop analysis,
 * reproducing the Pin DCFG library's role in LoopPoint (Section III-D).
 *
 * A DcfgBuilder observes a recorded (or replayed) execution and counts
 * the traversals of every per-thread block-to-block transition. The
 * resulting Dcfg partitions nodes by routine, computes immediate
 * dominators per routine subgraph, identifies natural loops from back
 * edges (an edge t->h where h dominates t), and exposes the set of
 * *main-image loop headers* — the only legal (PC, count) region
 * boundary markers, since synchronization loops (spin waits) live in
 * the library images and their iteration counts are not stable across
 * executions.
 */

#ifndef LOOPPOINT_DCFG_DCFG_HH
#define LOOPPOINT_DCFG_DCFG_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "exec/listener.hh"
#include "isa/program.hh"

namespace looppoint {

class ExecutionEngine;

/** A control-flow edge with its dynamic traversal count. */
struct DcfgEdge
{
    BlockId from = kInvalidBlock;
    BlockId to = kInvalidBlock;
    uint64_t count = 0;
};

/** A natural loop discovered in the DCFG. */
struct DcfgLoop
{
    /** The loop header (single entry of the natural loop). */
    BlockId header = kInvalidBlock;
    /** All blocks in the loop body (including the header). */
    std::vector<BlockId> body;
    /** Total traversals of the loop's back edges. */
    uint64_t backEdgeCount = 0;
    /** Dynamic executions of the header. */
    uint64_t headerExecs = 0;
    /** Loop entries from outside (headerExecs - backEdgeCount). */
    uint64_t entries = 0;
    ImageId image = ImageId::Main;
    uint32_t routine = 0;
};

/** The analyzed dynamic control-flow graph. */
class Dcfg
{
  public:
    /**
     * @param edges raw block-to-block transitions
     * @param summary_edges call-return-summarized transitions between
     *        same-routine blocks (a library call between two blocks of
     *        one routine is collapsed into a direct edge, as the Pin
     *        DCFG library does); used for loop analysis
     * @param block_execs per-block dynamic execution counts
     */
    Dcfg(const Program &prog, std::vector<DcfgEdge> edges,
         std::vector<DcfgEdge> summary_edges,
         std::vector<uint64_t> block_execs);

    const Program &program() const { return *prog; }
    const std::vector<DcfgEdge> &edges() const { return edgeList; }
    const std::vector<DcfgEdge> &summaryEdges() const
    {
        return summaryList;
    }
    uint64_t blockExecs(BlockId id) const { return execCounts[id]; }

    /** All natural loops, discovered via dominator analysis. */
    const std::vector<DcfgLoop> &loops() const { return loopList; }

    /**
     * Loop-header blocks in the application's main image, sorted by
     * PC: the legal region-boundary markers.
     */
    std::vector<BlockId> mainImageLoopHeaders() const;

    /** True if `id` heads some discovered loop. */
    bool isLoopHeader(BlockId id) const;

    /** The loop headed by `id`; fatal if there is none. */
    const DcfgLoop &loopAt(BlockId id) const;

  private:
    void analyze();

    const Program *prog;
    std::vector<DcfgEdge> edgeList;
    std::vector<DcfgEdge> summaryList;
    std::vector<uint64_t> execCounts;
    std::vector<DcfgLoop> loopList;
    std::unordered_map<BlockId, size_t> headerIndex;
};

/**
 * Static prediction of Dcfg::mainImageLoopHeaders() for any execution
 * of `prog`, read off the program's structure; sorted by PC like the
 * DCFG's list. Blocks of kernels that never run head no loop; a run
 * kernel's worker header does; its entry block does when the run list
 * repeats the kernel back to back (thread 0's exit-to-entry summary
 * edge); a body-tree inner loop does when its trip count can reach 2.
 * A prediction, not a proof: callers compare it with the DCFG built
 * from the same execution before relying on it.
 */
std::vector<BlockId> predictMainImageLoopHeaders(const Program &prog);

/**
 * ExecListener that accumulates DCFG edges from a live execution.
 * Per-thread transitions only: a thread migrating between blocks forms
 * an edge; two threads in unrelated blocks do not. A replay of a
 * recording yields the same graph as the recording itself.
 */
class DcfgBuilder : public ExecListener
{
  public:
    DcfgBuilder(const Program &prog, uint32_t num_threads);

    void onBlock(uint32_t tid, BlockId block,
                 const ExecutionEngine &engine) override;

    /** Finish collection and build the analyzed graph. */
    Dcfg build() const;

  private:
    const Program *prog;
    std::vector<BlockId> lastBlock;
    /** Last main-image block per thread (for summarized edges). */
    std::vector<BlockId> lastMainBlock;
    /**
     * Edge counts as per-source successor lists indexed by BlockId:
     * blocks have few distinct successors, so a linear scan beats
     * hashing the (from, to) pair on every dynamic block.
     */
    std::vector<std::vector<DcfgEdge>> edgeCounts;
    std::vector<std::vector<DcfgEdge>> summaryCounts;
    std::vector<uint64_t> execCounts;
};

} // namespace looppoint

#endif // LOOPPOINT_DCFG_DCFG_HH
