/**
 * @file
 * BlockPipe: one execution's block events, handed in order to listeners
 * that run on other threads.
 *
 * Listeners attached inline run on the thread that steps the engine, so
 * their work adds to the execution's. Through a pipe, that thread only
 * packs each event as (tid, block) into the fixed-size chunks of a
 * ChunkRing (util/chunk_ring.hh), and each listener drains the ring on
 * its own thread. Every listener sees exactly the event sequence it
 * would see inline, so its results are identical; but it gets no engine
 * to query, so only engine-free listeners (BlockSink) can be attached.
 *
 * Memory is bounded: at most kChunks chunks of kChunkEvents events are
 * in flight, and the execution waits when its readers fall that far
 * behind. Nothing is allocated per event.
 */

#ifndef LOOPPOINT_EXEC_BLOCK_PIPE_HH
#define LOOPPOINT_EXEC_BLOCK_PIPE_HH

#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>

#include "exec/listener.hh"
#include "util/chunk_ring.hh"

namespace looppoint {

/** A listener that needs no engine: onBlock(tid, block). */
template <typename S>
concept BlockSink = requires(S &sink, uint32_t tid, BlockId block) {
    sink.onBlock(tid, block);
};

/** Seconds each side of a pipe spent blocked (ChunkRing waits). */
struct BlockPipeStats
{
    /** The execution waited for its slowest reader. */
    double producerWaitSeconds = 0.0;
    /** The helper-thread sink waited for events. */
    double helperIdleSeconds = 0.0;
    /** The calling-thread sink waited for events. */
    double callerIdleSeconds = 0.0;
};

/** See file comment. The producer side is an ExecListener. */
class BlockPipe final : public ExecListener
{
  public:
    /** Events per chunk and chunks in the ring: 64 KB x 16. */
    static constexpr uint32_t kChunkEvents = 8192;
    static constexpr uint32_t kChunks = 16;

    explicit BlockPipe(uint32_t readers) : ring(kChunks, readers) {}

    /** Producer: queue one event; waits while the ring is full. */
    void
    onBlock(uint32_t tid, BlockId block, const ExecutionEngine &) override
    {
        fill->events[fill->n++] = {tid, block};
        if (fill->n == kChunkEvents)
            ship();
    }

    /** Producer: the execution ended; readers drain what is queued. */
    void close() { ring.close(); }

    /** Reader `reader`: feed every event, in order, to `sink`. Returns
     * at the end of the stream or once the pipe failed. */
    template <BlockSink Sink>
    void
    drain(uint32_t reader, Sink &sink)
    {
        while (const Chunk *c = ring.acquire(reader)) {
            for (uint32_t i = 0; i < c->n; ++i)
                sink.onBlock(c->events[i].tid, c->events[i].block);
            ring.release(reader);
        }
    }

    /**
     * Run `body`; an exception it throws is kept (the first one of any
     * thread wins) and ends the stream for every side, so none waits
     * forever.
     */
    template <typename Body>
    void
    guard(Body &&body)
    {
        try {
            body();
        } catch (...) {
            fail(std::current_exception());
        }
    }

    /** Rethrow the kept exception, if any (after every side joined). */
    void rethrowFailure();

    double producerWaitSeconds() const { return ring.producerWaitSeconds(); }
    double idleSeconds(uint32_t reader) const
    {
        return ring.idleSeconds(reader);
    }

  private:
    struct Event
    {
        uint32_t tid;
        BlockId block;
    };

    struct Chunk
    {
        Event events[kChunkEvents];
        uint32_t n = 0;
    };

    /** Publish the full chunk and start the next; throws once the
     * pipe failed, to unwind the execution. */
    void ship();
    void fail(std::exception_ptr e);

    ChunkRing<Chunk> ring;
    Chunk *fill = &ring.first();
    std::mutex failureMtx;
    std::exception_ptr failure; ///< guarded by failureMtx
};

/**
 * Run `produce(listener)` — an execution that reports its blocks to
 * `listener` — on a helper thread, with `helper_sink` draining its
 * events on a second helper thread and `caller_sink` on the calling
 * thread. Returns once all three are done. The first exception any of
 * them throws is rethrown here, after both helpers have joined.
 */
template <typename Produce, BlockSink HelperSink, BlockSink CallerSink>
BlockPipeStats
runBlockPipe(Produce &&produce, HelperSink &helper_sink,
             CallerSink &caller_sink)
{
    BlockPipe pipe(2);
    {
        // Joined at scope exit, also when starting one fails: guard()
        // then ends the stream, so neither waits on the ring.
        std::jthread producer, helper;
        pipe.guard([&] {
            producer = std::jthread([&] {
                pipe.guard([&] {
                    produce(static_cast<ExecListener &>(pipe));
                    pipe.close();
                });
            });
            helper = std::jthread(
                [&] { pipe.guard([&] { pipe.drain(0, helper_sink); }); });
            pipe.drain(1, caller_sink);
        });
    }
    pipe.rethrowFailure();
    return {pipe.producerWaitSeconds(), pipe.idleSeconds(0),
            pipe.idleSeconds(1)};
}

} // namespace looppoint

#endif // LOOPPOINT_EXEC_BLOCK_PIPE_HH
