/**
 * @file
 * A shared work-stealing thread pool for host-parallel phases of the
 * pipeline (checkpointed region simulation, the k-means BIC sweep,
 * per-slice random projection).
 *
 * Design: a fixed set of workers, each owning a mutex-guarded deque.
 * Local work is pushed and popped LIFO at the back (locality); idle
 * workers steal the oldest *half* of a victim's deque (steal-half), so
 * one long queue spreads across the pool in O(log n) steals. External
 * submitters distribute round-robin across the worker deques. There is
 * no global queue and no lock shared by running workers; the only
 * shared lock is the sleep mutex, touched when a worker runs dry.
 *
 * Determinism contract: the pool schedules *when and where* tasks run,
 * never *what they compute*. Callers must seed any randomness by task
 * index (e.g. hashCombine(seed, idx)), write results into
 * index-addressed slots, and never depend on worker identity or
 * completion order; every use in this codebase follows that rule, so
 * results are bit-identical for any worker count.
 *
 * Blocking inside a task is safe only via the helping APIs
 * (parallelFor, waitHelping, runPendingTask), which execute queued
 * work instead of sleeping — a task that plain-waits on a future can
 * deadlock a one-worker pool.
 */

#ifndef LOOPPOINT_UTIL_THREAD_POOL_HH
#define LOOPPOINT_UTIL_THREAD_POOL_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace looppoint {

class Counter;

/** See file comment. */
class ThreadPool
{
  public:
    /** @param num_workers worker threads; 0 = defaultWorkers(). */
    explicit ThreadPool(uint32_t num_workers = 0);

    /**
     * Drains: queued tasks are completed (on the workers, then on the
     * destructing thread if a racing task enqueued more), never
     * dropped.
     */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    uint32_t
    numWorkers() const
    {
        return static_cast<uint32_t>(workers.size());
    }

    /** Hardware concurrency, clamped to at least 1. */
    static uint32_t defaultWorkers();

    /** The largest worker count a --jobs flag accepts, so a typo
     * cannot ask the host for billions of threads. */
    static constexpr uint32_t kMaxJobs = 1024;

    /**
     * Resolve a user-facing worker-count knob (--jobs): 0 means
     * "auto-detect" and resolves to defaultWorkers()
     * (std::thread::hardware_concurrency, clamped to at least 1);
     * any other value is taken as is. The one shared helper for every
     * such knob, so auto-detection is uniform across region
     * simulation, warming partitions and the analysis phase.
     */
    static uint32_t
    resolveWorkers(uint32_t requested)
    {
        return requested ? requested : defaultWorkers();
    }

    /**
     * Queue one task; the future carries its result or exception.
     * Called from a worker, the task lands on that worker's own deque
     * (LIFO, stealable); otherwise it is distributed round-robin.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> fut = task->get_future();
        enqueue([task] { (*task)(); });
        return fut;
    }

    /**
     * Run body(i) for every i in [begin, end), on the workers plus the
     * calling thread. Indices are handed out one at a time from a
     * shared cursor, so uneven per-index costs balance automatically.
     * Blocks until every index completed; the first exception thrown
     * by any body is rethrown here (after all indices finish). Safe to
     * call from inside a pool task (the nested call helps instead of
     * sleeping).
     */
    void parallelFor(size_t begin, size_t end,
                     const std::function<void(size_t)> &body);

    /**
     * Execute one queued task on the calling thread, if any is
     * available (own deque first for workers, then stealing). Returns
     * false when every deque was empty.
     */
    bool runPendingTask();

    /**
     * Wait for `fut`, executing queued tasks while waiting, so a task
     * can safely block on work it submitted. Rethrows the task's
     * exception, like future::get().
     */
    template <typename T>
    T
    waitHelping(std::future<T> &fut)
    {
        while (fut.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready) {
            if (!runPendingTask())
                fut.wait_for(std::chrono::milliseconds(1));
        }
        return fut.get();
    }

    /**
     * parallelFor that tolerates a missing pool: runs the plain serial
     * loop when `pool` is null (the jobs <= 1 configuration).
     */
    static void forEach(ThreadPool *pool, size_t begin, size_t end,
                        const std::function<void(size_t)> &body);

  private:
    using Task = std::function<void()>;

    struct Worker
    {
        std::mutex mtx;
        std::deque<Task> deque;
        std::thread thread;
        // Telemetry handles, owned by the global MetricsRegistry and
        // wired in the pool constructor. Updates are no-ops while the
        // registry is disabled.
        Counter *statTasks = nullptr;
        Counter *statSteals = nullptr;
        Counter *statIdleNs = nullptr;
    };

    void enqueue(Task task);
    /** Pop the newest task of worker `wid`'s own deque. */
    bool popLocal(uint32_t wid, Task &out);
    /**
     * Steal-half: take the oldest half of some victim's deque, run the
     * first stolen task as `out`, requeue the rest on `wid`'s deque
     * (or, for external thieves with no deque, steal just one).
     */
    bool steal(uint32_t wid, Task &out);
    bool takeTask(uint32_t wid, Task &out);
    void bumpEpoch();
    void workerLoop(uint32_t wid);

    std::vector<std::unique_ptr<Worker>> workers;

    // Sleep/wake machinery: workers that find every deque empty block
    // on `sleepCv` until the submit epoch moves (epoch is read before
    // scanning, so a push between scan and sleep is never missed).
    std::mutex sleepMtx;
    std::condition_variable sleepCv;
    uint64_t wakeEpoch = 0;
    bool stopping = false;

    std::atomic<uint64_t> pushCursor{0};

    /** Steals performed by threads outside the pool (helping APIs). */
    Counter *statExternalSteals = nullptr;
};

} // namespace looppoint

#endif // LOOPPOINT_UTIL_THREAD_POOL_HH
