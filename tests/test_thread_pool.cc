/**
 * @file
 * Tests for the shared work-stealing thread pool: parallelFor under
 * uneven task costs, exception propagation (futures and parallelFor
 * bodies), nested submission from inside tasks, and destructor
 * behaviour with work still queued.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.hh"

namespace looppoint {
namespace {

TEST(ThreadPool, DefaultWorkersAtLeastOne)
{
    EXPECT_GE(ThreadPool::defaultWorkers(), 1u);
    ThreadPool pool;
    EXPECT_EQ(pool.numWorkers(), ThreadPool::defaultWorkers());
    ThreadPool three(3);
    EXPECT_EQ(three.numWorkers(), 3u);
}

TEST(ThreadPool, ResolveWorkersAutoDetects)
{
    EXPECT_EQ(ThreadPool::resolveWorkers(0),
              ThreadPool::defaultWorkers());
    EXPECT_GE(ThreadPool::resolveWorkers(0), 1u);
    EXPECT_EQ(ThreadPool::resolveWorkers(1), 1u);
    EXPECT_EQ(ThreadPool::resolveWorkers(5), 5u);
}

TEST(ThreadPool, SubmitReturnsValue)
{
    ThreadPool pool(2);
    auto fut = pool.submit([] { return 6 * 7; });
    EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, ParallelForUnevenCosts)
{
    // Uneven per-index cost exercises stealing: a static partition
    // would leave one worker with nearly all the work.
    constexpr size_t n = 257;
    ThreadPool pool(4);
    std::vector<uint64_t> out(n, 0);
    pool.parallelFor(0, n, [&](size_t i) {
        uint64_t acc = 0;
        const uint64_t spins = (i % 7 == 0) ? 200'000 : 50;
        for (uint64_t j = 0; j < spins; ++j)
            acc += j * j + i;
        out[i] = acc;
    });
    for (size_t i = 0; i < n; ++i) {
        uint64_t acc = 0;
        const uint64_t spins = (i % 7 == 0) ? 200'000 : 50;
        for (uint64_t j = 0; j < spins; ++j)
            acc += j * j + i;
        EXPECT_EQ(out[i], acc) << "index " << i;
    }
}

TEST(ThreadPool, ParallelForEveryIndexExactlyOnce)
{
    constexpr size_t n = 1000;
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(0, n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForEmptyAndSingle)
{
    ThreadPool pool(2);
    int calls = 0;
    pool.parallelFor(5, 5, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(5, 6, [&](size_t i) {
        EXPECT_EQ(i, 5u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, FutureExceptionPropagates)
{
    ThreadPool pool(2);
    auto fut = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForExceptionPropagates)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallelFor(0, 100,
                                  [&](size_t i) {
                                      ran.fetch_add(1);
                                      if (i == 37)
                                          throw std::runtime_error(
                                              "index 37");
                                  }),
                 std::runtime_error);
    // Every claimed index finished before the rethrow; the pool stays
    // usable afterwards.
    int sum = 0;
    pool.parallelFor(0, 10, [&](size_t) { sum += 0; });
    auto fut = pool.submit([] { return 1; });
    EXPECT_EQ(fut.get(), 1);
    EXPECT_GE(ran.load(), 1);
}

TEST(ThreadPool, NestedSubmitWithWaitHelping)
{
    // A task that submits subtasks and waits for them must not
    // deadlock, even on a one-worker pool: waitHelping runs queued
    // tasks while waiting.
    for (uint32_t workers : {1u, 4u}) {
        ThreadPool pool(workers);
        auto outer = pool.submit([&pool] {
            std::vector<std::future<int>> subs;
            for (int i = 0; i < 8; ++i)
                subs.push_back(pool.submit([i] { return i * i; }));
            int sum = 0;
            for (auto &f : subs)
                sum += pool.waitHelping(f);
            return sum;
        });
        EXPECT_EQ(pool.waitHelping(outer), 140) << workers
                                                << " workers";
    }
}

TEST(ThreadPool, NestedParallelFor)
{
    // parallelFor from inside a pool task: the inner caller claims its
    // own indices, so this cannot deadlock regardless of pool width.
    ThreadPool pool(2);
    std::vector<std::vector<int>> grid(8, std::vector<int>(8, 0));
    pool.parallelFor(0, 8, [&](size_t r) {
        pool.parallelFor(0, 8, [&, r](size_t c) {
            grid[r][c] = static_cast<int>(r * 8 + c);
        });
    });
    for (size_t r = 0; r < 8; ++r)
        for (size_t c = 0; c < 8; ++c)
            EXPECT_EQ(grid[r][c], static_cast<int>(r * 8 + c));
}

TEST(ThreadPool, DestructorDrainsQueuedWork)
{
    // Submitted work must complete even when the pool is destroyed
    // immediately: futures obtained before destruction are all ready
    // afterwards.
    std::atomic<int> done{0};
    std::vector<std::future<void>> futs;
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            futs.push_back(pool.submit([&done] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
                done.fetch_add(1);
            }));
    }
    for (auto &f : futs)
        f.get(); // throws if a task was dropped
    EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, ForEachSerialFallback)
{
    // The static helper runs inline when no pool is given — the shape
    // used by callers that keep a serial path (jobs=1).
    std::vector<size_t> order;
    ThreadPool::forEach(nullptr, 3, 8,
                        [&](size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<size_t>{3, 4, 5, 6, 7}));

    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(16);
    ThreadPool::forEach(&pool, 0, 16,
                        [&](size_t i) { hits[i].fetch_add(1); });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ManySmallTasksFromManyThreads)
{
    // External submitters racing with workers; total must be exact.
    ThreadPool pool(4);
    std::atomic<uint64_t> sum{0};
    std::vector<std::thread> submitters;
    std::vector<std::future<void>> futs;
    std::mutex futs_mtx;
    for (int t = 0; t < 4; ++t)
        submitters.emplace_back([&, t] {
            for (int i = 0; i < 100; ++i) {
                auto f = pool.submit(
                    [&sum, t, i] { sum.fetch_add(t * 100 + i); });
                std::lock_guard<std::mutex> lk(futs_mtx);
                futs.push_back(std::move(f));
            }
        });
    for (auto &s : submitters)
        s.join();
    for (auto &f : futs)
        pool.waitHelping(f);
    uint64_t expect = 0;
    for (int t = 0; t < 4; ++t)
        for (int i = 0; i < 100; ++i)
            expect += t * 100 + i;
    EXPECT_EQ(sum.load(), expect);
}

} // namespace
} // namespace looppoint
