#include "profile/slicer.hh"

#include "util/logging.hh"

namespace looppoint {

std::unordered_map<Addr, BlockId>
buildPcIndex(const Program &prog)
{
    std::unordered_map<Addr, BlockId> index;
    index.reserve(prog.numBlocks());
    for (const auto &bb : prog.blocks)
        index[bb.pc] = bb.id;
    return index;
}

SliceProfiler::SliceProfiler(const Program &prog_,
                             std::vector<BlockId> marker_blocks,
                             uint64_t slice_size_global,
                             uint32_t num_threads, bool filter_sync)
    : prog(&prog_), isMarker(prog_.numBlocks(), 0),
      markerCounts(prog_.numBlocks(), 0), sliceTarget(slice_size_global),
      numThreads(num_threads), filterSync(filter_sync),
      dense(static_cast<size_t>(num_threads) * prog_.numBlocks(), 0),
      denseEpoch(dense.size(), 0), touched(num_threads)
{
    if (slice_size_global == 0)
        fatal("SliceProfiler: slice size must be >= 1");
    for (BlockId b : marker_blocks) {
        LP_ASSERT(b < prog->numBlocks());
        if (!prog->inMainImage(b))
            fatal("marker block %u is not in the main image "
                  "(synchronization loops cannot bound regions)", b);
        isMarker[b] = 1;
    }
    beginSlice(Marker{0, 0}); // program start sentinel
}

void
SliceProfiler::beginSlice(const Marker &start)
{
    current = SliceRecord{};
    current.index = sliceList.size();
    current.start = start;
    current.perThread.assign(numThreads, ThreadBbv{});
    current.threadFilteredIcount.assign(numThreads, 0);
    ++epoch; // invalidates every dense cell in O(1)
}

void
SliceProfiler::closeSlice(const Marker &end)
{
    // Materialize the hash maps from the dense counters. Insertion
    // follows first-touch order, which reproduces incremental per-slice
    // maps exactly — same contents AND same iteration order, so
    // downstream floating-point reductions sum in the same order.
    for (uint32_t tid = 0; tid < numThreads; ++tid) {
        auto &counts = current.perThread[tid].counts;
        const uint64_t *row =
            dense.data() + static_cast<size_t>(tid) * prog->numBlocks();
        for (BlockId b : touched[tid])
            counts[b] = row[b];
        touched[tid].clear();
    }
    current.end = end;
    sliceList.push_back(std::move(current));
}

void
SliceProfiler::onBlock(uint32_t tid, BlockId block,
                       const ExecutionEngine &engine)
{
    (void)engine;
    onBlock(tid, block);
}

void
SliceProfiler::onBlock(uint32_t tid, BlockId block)
{
    // No per-block bounds asserts here: BlockIds are dense and tid
    // ranges are validated once at construction / program load.
    const uint32_t instrs = prog->instrCounts[block];

    if (isMarker[block]) {
        // Boundary check happens *before* this execution is counted,
        // so the marker execution itself belongs to the next slice.
        if (current.filteredIcount >= sliceTarget) {
            Marker boundary{prog->blocks[block].pc,
                            markerCounts[block] + 1};
            closeSlice(boundary);
            beginSlice(boundary);
        }
        ++markerCounts[block];
    }

    current.totalIcount += instrs;
    if (!filterSync || prog->mainImageFlags[block]) {
        // Spin and synchronization-library code is executed but not
        // counted ("execute but don't count", Section II).
        const size_t idx =
            static_cast<size_t>(tid) * prog->numBlocks() + block;
        if (denseEpoch[idx] != epoch) {
            denseEpoch[idx] = epoch;
            dense[idx] = 1;
            touched[tid].push_back(block);
        } else {
            ++dense[idx];
        }
        current.threadFilteredIcount[tid] += instrs;
        current.filteredIcount += instrs;
    }
}

void
SliceProfiler::finalize()
{
    LP_ASSERT(!finalized);
    finalized = true;
    // Program-end sentinel. Suppress an empty trailing slice.
    if (current.filteredIcount > 0 || current.totalIcount > 0 ||
        sliceList.empty()) {
        closeSlice(Marker{0, 0});
    }
}

uint64_t
SliceProfiler::markerCount(BlockId block) const
{
    LP_ASSERT(block < markerCounts.size());
    return markerCounts[block];
}

uint64_t
SliceProfiler::totalFilteredIcount() const
{
    uint64_t sum = 0;
    for (const auto &s : sliceList)
        sum += s.filteredIcount;
    if (!finalized)
        sum += current.filteredIcount;
    return sum;
}

} // namespace looppoint
