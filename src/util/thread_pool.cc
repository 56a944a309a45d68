#include "util/thread_pool.hh"

#include <algorithm>
#include <atomic>

#include "obs/trace.hh"

namespace looppoint {

uint32_t
ThreadPool::defaultWorkers()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? static_cast<uint32_t>(n) : 1u;
}

ThreadPool::ThreadPool(uint32_t num_workers)
{
    const uint32_t n = resolveWorkers(num_workers);
    workers.reserve(n);
    for (uint32_t wid = 0; wid < n; ++wid)
        workers.emplace_back([this, wid] { workerLoop(wid); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> g(mtx);
        stopping = true;
    }
    cv.notify_all();
    // A worker exits only once the queue is empty, and a task that
    // enqueues more keeps its own worker alive to run it, so nothing
    // queued is ever dropped.
    for (std::thread &w : workers)
        w.join();
}

void
ThreadPool::enqueue(Task task)
{
    {
        std::lock_guard<std::mutex> g(mtx);
        queue.push_back(std::move(task));
    }
    cv.notify_one();
}

bool
ThreadPool::runPendingTask()
{
    Task task;
    {
        std::lock_guard<std::mutex> g(mtx);
        if (queue.empty())
            return false;
        task = std::move(queue.front());
        queue.pop_front();
    }
    task();
    return true;
}

void
ThreadPool::workerLoop(uint32_t wid)
{
    // Claim a named trace track so spans recorded while running pool
    // tasks land on a recognizable timeline.
    if (Tracer::global().enabled())
        Tracer::global().nameCurrentThread(
            "pool worker " + std::to_string(wid));
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> g(mtx);
            cv.wait(g, [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping, and drained
            task = std::move(queue.front());
            queue.pop_front();
        }
        task();
    }
}

void
ThreadPool::parallelFor(size_t begin, size_t end,
                        const std::function<void(size_t)> &body)
{
    if (end <= begin)
        return;
    const size_t total = end - begin;
    if (total == 1) {
        body(begin);
        return;
    }

    // Shared per-call state; runner tasks may outlive this frame (a
    // runner that loses the race for the last index still has to wake
    // up and return), hence the shared_ptr. `body` itself is only
    // dereferenced for indices < total, all of which complete before
    // this frame returns.
    struct State
    {
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
        size_t total = 0;
        size_t begin = 0;
        const std::function<void(size_t)> *body = nullptr;
        std::mutex mtx;
        std::condition_variable cv;
        std::exception_ptr error;
    };
    auto state = std::make_shared<State>();
    state->total = total;
    state->begin = begin;
    state->body = &body;

    auto run = [state] {
        for (;;) {
            size_t i =
                state->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= state->total)
                return;
            try {
                (*state->body)(state->begin + i);
            } catch (...) {
                std::lock_guard<std::mutex> g(state->mtx);
                if (!state->error)
                    state->error = std::current_exception();
            }
            if (state->done.fetch_add(1) + 1 == state->total) {
                std::lock_guard<std::mutex> g(state->mtx);
                state->cv.notify_all();
            }
        }
    };

    // One runner per worker (capped by the index count); the calling
    // thread is runner number zero, inline, so progress is guaranteed
    // even when every worker is busy elsewhere.
    const size_t runners = std::min<size_t>(numWorkers(), total - 1);
    for (size_t r = 0; r < runners; ++r)
        enqueue(run);
    run();

    std::unique_lock<std::mutex> g(state->mtx);
    state->cv.wait(g, [&] {
        return state->done.load() == state->total;
    });
    if (state->error)
        std::rethrow_exception(state->error);
}

void
ThreadPool::forEach(ThreadPool *pool, size_t begin, size_t end,
                    const std::function<void(size_t)> &body)
{
    if (!pool) {
        for (size_t i = begin; i < end; ++i)
            body(i);
        return;
    }
    pool->parallelFor(begin, end, body);
}

} // namespace looppoint
