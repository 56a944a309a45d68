/**
 * @file
 * Set-partitioned parallel warming (Heidelberger & Stone, 1990).
 *
 * The warming pass is one execution, so the engine steps serially; the
 * cache work it drives need not. With prefetchDegree == 0 every
 * hierarchy access stays inside the sets of one residue class of its
 * line modulo the fewest sets of any level (CacheHierarchy::
 * exportOwnedSets), so the stream splits into independent partitions.
 * The producer — the thread stepping the engine — trains the branch
 * predictors in place and bins each fetch and data access into its
 * partition's ChunkRing (util/chunk_ring.hh); one worker thread per
 * partition applies its accesses, in stream order, to a private
 * hierarchy.
 *
 * Record format. An access travels as one 8-byte word,
 * `line << 8 | core << 2 | kind`: the line address (the hierarchy
 * reads nothing below it; the synthetic address space of
 * isa/addr_space.hh stays far below the 2^56 lines this holds), the
 * core (< 64, CacheHierarchy's limit) and the kind (Fetch, Read,
 * Write).
 *
 * Repeat rule. Each partition remembers the last record it shipped.
 * A record for the same core and line as that one is dropped at push
 * when it is a Read after a Read or a Write, a Write after a Write, or
 * a Fetch after a Fetch. This is exact: accesses of other partitions
 * touch other sets, so the line's sets are as the shipped access left
 * them. That access made the line MRU in the core's L1 (L1-D for data,
 * L1-I for fetches), and a Write also invalidated every other core's
 * L1-D and L2 copy. The repeat is then an MRU hit in that L1 that
 * reorders nothing, fills nothing and, having no remote copy left to
 * invalidate, touches no other core: it changes only CacheStats, which
 * the checkpoint image excludes. A Write after a Read, or any pair
 * across the L1-I/L1-D split, can still change state, and is shipped.
 * On a roms warm pass about 55% of the accesses are such repeats; on
 * lbm about 1%.
 *
 * False sharing. The producer writes its per-partition fill state (the
 * chunk being filled, its fill position and the repeat memo) on every
 * access, so that state lives in its own array, one 64-byte line per
 * partition, apart from each Lane, whose ring and hierarchy the worker
 * writes. Chunk headers are 64-byte aligned for the same reason: the
 * worker reads one chunk's header while the producer ships the next.
 * In a prototype, a memo inside Lane made the roms ref producer about
 * 1.5x slower.
 *
 * At a region start the producer encodes the checkpoint payload
 * without the cache image and calls checkpoint(): a boundary marker
 * goes into every queue, and each worker, once it has applied every
 * access before the marker, copies the sets it owns into the payload's
 * image. The writes are disjoint, so no barrier is needed; the last
 * worker completes the checkpoint. The image equals the serial pass's
 * byte for byte.
 */

#ifndef LOOPPOINT_SIM_WARM_PARTITION_HH
#define LOOPPOINT_SIM_WARM_PARTITION_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/cache.hh"
#include "sim/config.hh"
#include "util/chunk_ring.hh"

namespace looppoint {

/**
 * A region checkpoint payload whose cache image partition workers may
 * still be writing. take() blocks until it is complete.
 */
class WarmCheckpoint
{
  public:
    /** A payload that is already complete. */
    explicit WarmCheckpoint(std::string payload);

    /** A payload waiting for `contributors` partitions to write their
     * sets into the image at `image_offset`. */
    WarmCheckpoint(std::string payload, size_t image_offset,
                   uint32_t contributors);

    /** Block until complete, then hand the payload over (once). */
    std::string take();

  private:
    friend class PartitionedWarmer;

    /** Start of the hierarchy image inside the payload. */
    unsigned char *image() { return imageStart; }
    /** One partition has written its sets; the last one completes
     * the checkpoint. */
    void contributed();

    std::string payload;
    unsigned char *imageStart = nullptr;
    std::atomic<uint32_t> pending;
    std::mutex mtx;
    std::condition_variable cv;
    bool complete = false;
};

/** See file comment. */
class PartitionedWarmer
{
  public:
    /**
     * Partitions the warming pass of `cfg` uses with `jobs` resolved
     * host workers: min(jobs, fewest sets), or 1 — the serial inline
     * pass — when jobs == 1 or the next-line prefetcher couples
     * neighbouring sets.
     */
    static uint32_t partitionsFor(const SimConfig &cfg, uint32_t jobs);

    /** Starts one worker thread per partition (partitions >= 2). */
    PartitionedWarmer(const SimConfig &cfg, uint32_t num_cores,
                      uint32_t partitions);
    /** finish(). */
    ~PartitionedWarmer();

    PartitionedWarmer(const PartitionedWarmer &) = delete;
    PartitionedWarmer &operator=(const PartitionedWarmer &) = delete;

    uint32_t
    partitions() const
    {
        return static_cast<uint32_t>(lanes.size());
    }

    /** Instruction fetch of `core` (CacheHierarchy::fetch). */
    void fetch(uint32_t core, Addr pc) { push(record(core, pc, kFetch)); }

    /** Data access of `core` (CacheHierarchy::access). */
    void
    access(uint32_t core, Addr addr, bool is_write)
    {
        push(record(core, addr, is_write ? kWrite : kRead));
    }

    /**
     * A region start: `payload` holds everything but the hierarchy
     * image at `image_offset`, which the workers fill with the state
     * after every access pushed so far.
     */
    std::shared_ptr<WarmCheckpoint> checkpoint(std::string payload,
                                               size_t image_offset);

    /**
     * Apply everything pushed, complete every checkpoint and join the
     * workers. Idempotent; no push may follow.
     */
    void finish();

    /** Seconds the producer waited for a partition's free chunk
     * (after finish()). */
    double producerWaitSeconds() const;

    /** Seconds the partition workers, summed, waited for accesses
     * (after finish()). */
    double partitionIdleSeconds() const;

    /** Records shipped to the partitions (after finish()). */
    uint64_t shippedRecords() const;

    /** Accesses dropped at push by the repeat rule (after finish()). */
    uint64_t droppedRecords() const;

  private:
    /** Record kinds, the low two bits of a record (0 is unused, so
     * the empty memo 0 matches no record). */
    static constexpr uint64_t kFetch = 1, kRead = 2, kWrite = 3;

    /** Records per chunk and chunks per partition: 32 KB x 8. */
    static constexpr uint32_t kChunkRecords = 4096;
    static constexpr uint32_t kChunksPerLane = 8;

    /** Aligned so that the header the worker reads and the one the
     * producer writes never share a line. */
    struct alignas(64) Chunk
    {
        std::unique_ptr<uint64_t[]> recs{new uint64_t[kChunkRecords]};
        uint32_t n = 0;
        /** Copy the owned sets into this checkpoint after `recs`. */
        std::shared_ptr<WarmCheckpoint> boundary;
    };

    /** One partition: its chunk ring and its worker's hierarchy. */
    struct Lane
    {
        Lane(const SimConfig &cfg, uint32_t num_cores)
            : hierarchy(cfg, num_cores)
        {
        }

        /** The producer runs at most kChunksPerLane chunks ahead of
         * the worker instead of buffering the run. */
        ChunkRing<Chunk> ring{kChunksPerLane, 1};
        CacheHierarchy hierarchy;
        std::thread worker;
    };

    /** The producer's side of one partition, alone on its line. */
    struct alignas(64) Fill
    {
        /** The chunk being filled and its records. */
        Chunk *chunk = nullptr;
        uint64_t *recs = nullptr;
        uint32_t n = 0;
        /** The last record shipped (the repeat memo). */
        uint64_t last = 0;
        uint64_t shipped = 0;
        uint64_t dropped = 0;
    };

    uint64_t
    record(uint32_t core, Addr addr, uint64_t kind) const
    {
        return (addr >> lineShift) << 8 | uint64_t{core} << 2 | kind;
    }

    void
    push(uint64_t rec)
    {
        const uint32_t p = owner[(rec >> 8) & setMask];
        Fill &f = fills[p];
        // Same core and line as the memo: equal for a repeat of its
        // kind; differing in bit 0 alone for a Read after a Write
        // (kRead is even). See the file comment.
        if ((rec ^ f.last) <= (~rec & 1)) {
            ++f.dropped;
            return;
        }
        f.last = rec;
        f.recs[f.n] = rec;
        if (++f.n == kChunkRecords)
            ship(p, nullptr);
    }

    /** Queue partition `p`'s filling chunk and start the next one. */
    void ship(uint32_t p, std::shared_ptr<WarmCheckpoint> boundary);
    /** Worker body of partition `p`. */
    void run(uint32_t p);

    uint32_t lineShift = 0;
    uint32_t setMask = 0; ///< fewest sets - 1
    /** Owning partition per residue of the line modulo fewest sets. */
    std::vector<uint32_t> owner;
    std::vector<std::unique_ptr<Lane>> lanes;
    std::unique_ptr<Fill[]> fills;
    bool finished = false;
};

} // namespace looppoint

#endif // LOOPPOINT_SIM_WARM_PARTITION_HH
