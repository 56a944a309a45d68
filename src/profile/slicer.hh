/**
 * @file
 * SliceProfiler: divides a (replayed) execution into variable-length
 * slices bounded by main-image loop entries, collecting filtered
 * per-thread BBVs for each slice (paper Sections III-B/C/D).
 *
 * The slice-size target is expressed in *global filtered* instructions
 * (spin/synchronization code excluded, as in the paper), nominally
 * N_threads x perThreadSliceSize. A slice ends at the next execution
 * of any marker block once the target is reached, so every boundary is
 * a repeatable (PC, count) pair even under active spinning.
 */

#ifndef LOOPPOINT_PROFILE_SLICER_HH
#define LOOPPOINT_PROFILE_SLICER_HH

#include <cstdint>
#include <vector>

#include "exec/listener.hh"
#include "profile/bbv.hh"

namespace looppoint {

/** See file comment. */
class SliceProfiler : public ExecListener
{
  public:
    /**
     * @param prog the program being profiled
     * @param marker_blocks legal boundary blocks (main-image loop
     *        headers from the DCFG, or their static prediction)
     * @param slice_size_global target slice size in global filtered
     *        instructions
     * @param num_threads thread count of the profiled execution
     */
    SliceProfiler(const Program &prog,
                  std::vector<BlockId> marker_blocks,
                  uint64_t slice_size_global, uint32_t num_threads,
                  bool filter_sync = true);

    void onBlock(uint32_t tid, BlockId block,
                 const ExecutionEngine &engine) override;

    /** Close the final partial slice; call once after the run. */
    void finalize();

    const std::vector<SliceRecord> &slices() const { return sliceList; }

    /** Move the slices out (after finalize()); the profiler is spent. */
    std::vector<SliceRecord> takeSlices() { return std::move(sliceList); }

    /** Global execution count of a marker block so far. */
    uint64_t markerCount(BlockId block) const;

    /** Total filtered instructions across all closed slices. */
    uint64_t totalFilteredIcount() const;

  private:
    void beginSlice(const Marker &start);
    void closeSlice(const Marker &end);

    const Program *prog;
    std::vector<char> isMarker;          ///< indexed by BlockId
    std::vector<uint64_t> markerCounts;  ///< indexed by BlockId
    uint64_t sliceTarget;
    uint32_t numThreads;
    bool filterSync;

    /**
     * Fast accumulation state: per-(thread, block) counts in one flat
     * array of numThreads x numBlocks, valid only where the epoch
     * stamp matches the current slice's epoch — starting a slice is a
     * single counter bump, not an O(blocks) clear. `touched` records
     * each thread's blocks in first-touch order; closeSlice() replays
     * it to materialize the per-slice hash maps with exactly the
     * insertion order direct accumulation would have produced.
     */
    std::vector<uint64_t> dense;
    std::vector<uint64_t> denseEpoch;
    std::vector<std::vector<BlockId>> touched;
    uint64_t epoch = 0;

    SliceRecord current;
    std::vector<SliceRecord> sliceList;
    bool finalized = false;
};

} // namespace looppoint

#endif // LOOPPOINT_PROFILE_SLICER_HH
