#include "exec/block_pipe.hh"

namespace looppoint {

namespace {

/** Unwinds the execution after a reader failed; never reported, since
 * the reader's own exception is the one kept. */
struct PipeFailed
{
};

} // namespace

void
BlockPipe::ship()
{
    fill = ring.publish();
    if (!fill)
        throw PipeFailed{};
    fill->n = 0;
}

void
BlockPipe::fail(std::exception_ptr e)
{
    {
        std::lock_guard<std::mutex> lock(failureMtx);
        if (!failure)
            failure = std::move(e);
    }
    ring.abort();
}

void
BlockPipe::rethrowFailure()
{
    std::lock_guard<std::mutex> lock(failureMtx);
    if (failure)
        std::rethrow_exception(failure);
}

} // namespace looppoint
