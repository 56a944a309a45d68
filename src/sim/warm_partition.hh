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
    void fetch(uint32_t core, Addr pc) { push(core, pc, Kind::Fetch); }

    /** Data access of `core` (CacheHierarchy::access). */
    void
    access(uint32_t core, Addr addr, bool is_write)
    {
        push(core, addr, is_write ? Kind::Write : Kind::Read);
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

  private:
    enum class Kind : uint32_t { Fetch, Read, Write };

    struct Access
    {
        Addr addr;
        uint32_t core;
        Kind kind;
    };

    /** Records per chunk and chunks per partition: 64 KB x 8. */
    static constexpr uint32_t kChunkRecords = 4096;
    static constexpr uint32_t kChunksPerLane = 8;

    struct Chunk
    {
        std::unique_ptr<Access[]> recs{new Access[kChunkRecords]};
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
        /** The chunk the producer appends to. */
        Chunk *filling = &ring.first();
        CacheHierarchy hierarchy;
        std::thread worker;
    };

    void
    push(uint32_t core, Addr addr, Kind kind)
    {
        Lane &lane = *lanes[owner[(addr >> lineShift) & setMask]];
        Chunk &c = *lane.filling;
        c.recs[c.n++] = {addr, core, kind};
        if (c.n == kChunkRecords)
            ship(lane, nullptr);
    }

    /** Queue the lane's filling chunk and start the next one. */
    void ship(Lane &lane, std::shared_ptr<WarmCheckpoint> boundary);
    /** Worker body of partition `p`. */
    void run(uint32_t p);

    uint32_t lineShift = 0;
    uint32_t setMask = 0; ///< fewest sets - 1
    /** Owning partition per residue of the line modulo fewest sets. */
    std::vector<uint32_t> owner;
    std::vector<std::unique_ptr<Lane>> lanes;
    bool finished = false;
};

} // namespace looppoint

#endif // LOOPPOINT_SIM_WARM_PARTITION_HH
