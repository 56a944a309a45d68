/**
 * @file
 * ChunkRing: a bounded, in-order hand-off of fixed-size chunks from one
 * producer thread to one or more consumer threads, each of which sees
 * every chunk in publication order.
 *
 * The ring owns `capacity` chunks and reuses them in sequence. The
 * producer fills one chunk, publishes it and moves on to the next,
 * which it may refill only once every consumer has released that
 * chunk's previous round: this back-pressure keeps the producer at most
 * `capacity` chunks ahead of the slowest consumer instead of buffering
 * the whole stream.
 *
 * A side that runs out sleeps until half the ring is ready for it: a
 * full producer until half the chunks are free, a consumer that has
 * read everything until half a ring is published, or the producer
 * flushes. That wakes each side once per half ring instead of once per
 * chunk; on roms ref, per-chunk wake-ups left the pipelined recording
 * and the partitioned warming pass slower than with batched ones.
 *
 * Each side accumulates the seconds it spent blocked; a wait whose
 * condition already holds is not timed, so an unloaded ring reads 0.
 *
 * A consumer reads a chunk between acquire() and release() and must not
 * modify it unless it is the ring's only consumer. close() ends the
 * stream after the chunk being filled; abort() ends it at once and
 * wakes every waiter, so an error on any side can stop the others.
 */

#ifndef LOOPPOINT_UTIL_CHUNK_RING_HH
#define LOOPPOINT_UTIL_CHUNK_RING_HH

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace looppoint {

/** See file comment. */
template <typename Chunk>
class ChunkRing
{
  public:
    ChunkRing(uint32_t capacity, uint32_t consumers)
        : cap(capacity), batch(capacity > 1 ? capacity / 2 : 1),
          slots(new Chunk[capacity]), readers(consumers)
    {
    }

    ChunkRing(const ChunkRing &) = delete;
    ChunkRing &operator=(const ChunkRing &) = delete;

    /** Producer: the first chunk to fill. */
    Chunk &first() { return slots[0]; }

    /**
     * Producer: hand the chunk being filled to the consumers and
     * return the next one to fill; nullptr once the ring is aborted.
     * A full ring waits until half of it is free.
     */
    Chunk *
    publish()
    {
        std::unique_lock<std::mutex> lock(mtx);
        ++published;
        if (published >= readerWake) {
            readerWake = kNever;
            filled.notify_all();
        }
        if (published - slowestReader() >= cap) {
            const auto t0 = std::chrono::steady_clock::now();
            while (!aborted && published - slowestReader() > cap - batch) {
                producerWake = published - cap + batch;
                freed.wait(lock);
            }
            producerWait += secondsSince(t0);
        }
        return aborted ? nullptr : &slots[published % cap];
    }

    /** Producer: wake waiting consumers for what is published now,
     * short of half a ring (a chunk someone waits on). */
    void
    flush()
    {
        {
            std::lock_guard<std::mutex> lock(mtx);
            flushed = published;
            readerWake = kNever;
        }
        filled.notify_all();
    }

    /** Producer: the next publish() would wait for a free chunk. */
    bool
    full() const
    {
        std::lock_guard<std::mutex> lock(mtx);
        return published + 1 - slowestReader() >= cap;
    }

    /** Producer: publish the chunk being filled as the last one. */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mtx);
            ++published;
            closed = true;
        }
        filled.notify_all();
    }

    /** Any thread: end the stream now and wake every waiter. */
    void
    abort()
    {
        {
            std::lock_guard<std::mutex> lock(mtx);
            aborted = true;
        }
        filled.notify_all();
        freed.notify_all();
    }

    /**
     * Consumer `reader`: its next chunk; nullptr at the end of the
     * stream or once aborted. A consumer that has read everything
     * waits until half the ring is published (or a flush, or the end).
     */
    Chunk *
    acquire(uint32_t reader)
    {
        Reader &r = readers[reader];
        std::unique_lock<std::mutex> lock(mtx);
        if (r.next == published && !closed && !aborted) {
            const auto t0 = std::chrono::steady_clock::now();
            while (!aborted && !closed && published - r.next < batch &&
                   flushed <= r.next) {
                readerWake = std::min(readerWake, r.next + batch);
                filled.wait(lock);
            }
            r.idle += secondsSince(t0);
        }
        if (aborted || r.next == published)
            return nullptr;
        return &slots[r.next % cap];
    }

    /** Consumer `reader`: done with the chunk acquire() returned. */
    void
    release(uint32_t reader)
    {
        bool wake = false;
        {
            std::lock_guard<std::mutex> lock(mtx);
            ++readers[reader].next;
            if (slowestReader() >= producerWake) {
                producerWake = kNever;
                wake = true;
            }
        }
        if (wake)
            freed.notify_one();
    }

    /** Seconds the producer waited for free chunks. */
    double
    producerWaitSeconds() const
    {
        std::lock_guard<std::mutex> lock(mtx);
        return producerWait;
    }

    /** Seconds consumer `reader` waited for published chunks. */
    double
    idleSeconds(uint32_t reader) const
    {
        std::lock_guard<std::mutex> lock(mtx);
        return readers[reader].idle;
    }

  private:
    static constexpr uint64_t kNever = ~uint64_t(0);

    struct Reader
    {
        /** Sequence number of the next chunk to read. */
        uint64_t next = 0;
        double idle = 0.0;
    };

    static double
    secondsSince(std::chrono::steady_clock::time_point t0)
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    }

    /** Lowest unread sequence number over the readers (mtx held). */
    uint64_t
    slowestReader() const
    {
        uint64_t lowest = published;
        for (const Reader &r : readers)
            lowest = std::min(lowest, r.next);
        return lowest;
    }

    const uint64_t cap;
    /** Chunks a waiting side lets accumulate before it is woken. */
    const uint64_t batch;
    std::unique_ptr<Chunk[]> slots;

    mutable std::mutex mtx;
    std::condition_variable filled; ///< consumers wait: nothing new
    std::condition_variable freed;  ///< producer waits: no free chunk
    /** Chunks published so far; the producer fills slot `published`. */
    uint64_t published = 0;
    /** `published` at the last flush. */
    uint64_t flushed = 0;
    /** Wake waiting consumers once `published` reaches this. */
    uint64_t readerWake = kNever;
    /** Wake the waiting producer once the slowest reader reaches
     * this. */
    uint64_t producerWake = kNever;
    std::vector<Reader> readers;
    double producerWait = 0.0;
    bool closed = false;
    bool aborted = false;
};

} // namespace looppoint

#endif // LOOPPOINT_UTIL_CHUNK_RING_HH
