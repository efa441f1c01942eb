/**
 * @file
 * Tests for the thread pool and the deterministic parallel-for.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/parallel.hh"

namespace pvar
{
namespace
{

TEST(Parallel, HardwareJobsIsPositive)
{
    EXPECT_GE(hardwareJobs(), 1);
}

TEST(Parallel, ResolveJobsTreatsNonPositiveAsHardware)
{
    EXPECT_EQ(resolveJobs(0), hardwareJobs());
    EXPECT_EQ(resolveJobs(-3), hardwareJobs());
    EXPECT_EQ(resolveJobs(1), 1);
    EXPECT_EQ(resolveJobs(7), 7);
}

TEST(ThreadPool, DefaultsToHardwareWorkers)
{
    ThreadPool pool;
    EXPECT_EQ(pool.workerCount(), hardwareJobs());
    ThreadPool pool0(0);
    EXPECT_EQ(pool0.workerCount(), hardwareJobs());
}

TEST(ThreadPool, SubmitRunsEveryTask)
{
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 100; ++i)
        futs.push_back(pool.submit([&counter] { ++counter; }));
    for (auto &f : futs)
        f.get();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitPropagatesExceptions)
{
    ThreadPool pool(2);
    auto fut = pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 50; ++i)
            pool.submit([&counter] { ++counter; });
    }
    EXPECT_EQ(counter.load(), 50);
}

/** Results land in order regardless of worker count. */
void
expectOrderedSquares(int jobs)
{
    const std::size_t n = 257;
    std::vector<int> out(n, -1);
    parallelFor(n, jobs, [&](std::size_t i) {
        out[i] = static_cast<int>(i * i);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i)) << "jobs=" << jobs;
}

TEST(ParallelFor, DeterministicOrderingAcrossWorkerCounts)
{
    expectOrderedSquares(0); // all hardware threads
    expectOrderedSquares(1); // inline serial path
    expectOrderedSquares(2);
    expectOrderedSquares(8);
    expectOrderedSquares(64); // more workers than a sane machine
}

TEST(ParallelFor, EmptyRangeIsANoop)
{
    bool ran = false;
    parallelFor(0, 8, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ParallelFor, SingleItemRunsInline)
{
    std::size_t seen = 99;
    parallelFor(1, 8, [&](std::size_t i) { seen = i; });
    EXPECT_EQ(seen, 0u);
}

TEST(ParallelFor, ExceptionPropagatesSerial)
{
    EXPECT_THROW(parallelFor(10, 1,
                             [](std::size_t i) {
                                 if (i == 3)
                                     throw std::runtime_error("bad");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, ExceptionPropagatesParallel)
{
    EXPECT_THROW(parallelFor(100, 4,
                             [](std::size_t i) {
                                 if (i == 42)
                                     throw std::runtime_error("bad");
                             }),
                 std::runtime_error);
}

TEST(ParallelFor, ExceptionSkipsRemainingIndices)
{
    std::atomic<int> ran{0};
    try {
        parallelFor(10000, 2, [&](std::size_t i) {
            if (i == 0)
                throw std::runtime_error("early");
            ++ran;
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &) {
    }
    // Other lanes may finish in-flight work, but nowhere near all of it.
    EXPECT_LT(ran.load(), 10000);
}

TEST(ParallelFor, ThrowingTaskKeepsSurvivorsAndPoolStaysUsable)
{
    // A task that throws mid-batch must not deadlock the pool, must
    // not clobber slots that already completed, and must leave the
    // pool fully usable for the next batch.
    ThreadPool pool(4);
    const std::size_t n = 64;
    std::vector<int> slots(n, -1);

    try {
        pool.parallelFor(n, [&](std::size_t i) {
            if (i == 7)
                throw std::runtime_error("poisoned task");
            slots[i] = static_cast<int>(i);
        });
        FAIL() << "expected the task's exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "poisoned task");
    }

    // Survivors keep their results; nothing wrote garbage.
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_TRUE(slots[i] == -1 || slots[i] == static_cast<int>(i))
            << "slot " << i;
    EXPECT_EQ(slots[7], -1) << "the throwing index must not commit";

    // The same pool runs the next batch to completion.
    std::vector<int> again(n, -1);
    pool.parallelFor(n, [&](std::size_t i) {
        again[i] = static_cast<int>(i);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(again[i], static_cast<int>(i));
}

TEST(ParallelFor, ParallelSumMatchesSerial)
{
    const std::size_t n = 1000;
    std::vector<double> serial(n), parallel(n);
    auto f = [](std::size_t i) {
        return static_cast<double>(i) * 0.75 + 1.0 / (1.0 + i);
    };
    parallelFor(n, 1, [&](std::size_t i) { serial[i] = f(i); });
    parallelFor(n, 8, [&](std::size_t i) { parallel[i] = f(i); });
    EXPECT_EQ(serial, parallel); // bit-identical, not just close
}

// ---------------------------------------------------------------------
// The process-wide pool behind parallelFor(n, jobs, fn).
// ---------------------------------------------------------------------

TEST(SharedPool, ConcurrentCallersAllGetTheirOwnResults)
{
    const int callers = 4;
    const std::size_t n = 193;
    std::vector<std::vector<std::size_t>> out(
        callers, std::vector<std::size_t>(n, 0));
    std::vector<std::thread> threads;
    for (int c = 0; c < callers; ++c) {
        threads.emplace_back([&out, c] {
            for (int round = 1; round <= 20; ++round) {
                parallelFor(n, 0, [&](std::size_t i) {
                    out[c][i] = i * static_cast<std::size_t>(round + c);
                });
                for (std::size_t i = 0; i < n; ++i) {
                    if (out[c][i] !=
                        i * static_cast<std::size_t>(round + c)) {
                        ADD_FAILURE() << "caller " << c << " round "
                                      << round << " slot " << i;
                        return;
                    }
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
}

TEST(SharedPool, NestedParallelForCompletes)
{
    // Every outer task borrows the same pool for an inner loop; the
    // inner callers claim their own indices, so none can starve.
    const std::size_t outer = 16, inner = 32;
    std::vector<int> cells(outer * inner, 0);
    parallelFor(outer, 0, [&](std::size_t o) {
        parallelFor(inner, 0, [&](std::size_t i) {
            cells[o * inner + i] = static_cast<int>(o * inner + i);
        });
    });
    for (std::size_t k = 0; k < cells.size(); ++k)
        EXPECT_EQ(cells[k], static_cast<int>(k));
}

TEST(SharedPool, ThrowingTaskKeepsSurvivorsAndPoolStaysUsable)
{
    const std::size_t n = 64;
    std::vector<int> slots(n, -1);
    try {
        parallelFor(n, 0, [&](std::size_t i) {
            if (i == 7)
                throw std::runtime_error("poisoned task");
            if (i == 9)
                throw std::logic_error("second failure");
            slots[i] = static_cast<int>(i);
        });
        FAIL() << "expected a task's exception";
    } catch (const std::exception &e) {
        // One failure report, from whichever task failed first.
        EXPECT_TRUE(std::string(e.what()) == "poisoned task" ||
                    std::string(e.what()) == "second failure")
            << e.what();
    }
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_TRUE(slots[i] == -1 || slots[i] == static_cast<int>(i))
            << "slot " << i;
    EXPECT_EQ(slots[7], -1) << "the throwing index must not commit";

    std::vector<int> again(n, -1);
    parallelFor(n, 0, [&](std::size_t i) {
        again[i] = static_cast<int>(i);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(again[i], static_cast<int>(i));
}

TEST(SharedPool, CallsReuseThreadsInsteadOfSpawningThem)
{
    // Kernel thread ids, not std::thread::id: glibc reuses the handle
    // of a joined thread, so only a tid tells a new thread apart. Each
    // task sleeps, so the helper lanes take indices too.
    const pid_t caller = ::gettid();
    std::mutex mutex;
    std::set<pid_t> seen;
    const std::size_t n = 2 * static_cast<std::size_t>(hardwareJobs());
    for (int call = 0; call < 200; ++call) {
        parallelFor(n, 0, [&](std::size_t) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            std::lock_guard<std::mutex> lock(mutex);
            seen.insert(::gettid());
        });
    }
    seen.erase(caller);
    EXPECT_LE(seen.size(), static_cast<std::size_t>(hardwareJobs()));
}

TEST(SharedPool, JobsAboveThePoolSizeAreCapped)
{
    // Each task sleeps, so every lane the call has takes indices.
    std::mutex mutex;
    std::set<pid_t> seen;
    parallelFor(64, 64 * hardwareJobs(), [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::lock_guard<std::mutex> lock(mutex);
        seen.insert(::gettid());
    });
    EXPECT_LE(seen.size(), static_cast<std::size_t>(hardwareJobs()));
}

/**
 * True when both lanes of a two-index parallelFor run at once, which
 * needs a live pool worker beside the caller: each task waits (up to
 * 10 s) for the other to arrive.
 */
bool
twoLanesMeet()
{
    std::atomic<int> arrived{0};
    std::atomic<bool> met{true};
    parallelFor(2, 2, [&](std::size_t) {
        arrived.fetch_add(1);
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (arrived.load() < 2) {
            if (std::chrono::steady_clock::now() > deadline) {
                met = false;
                return;
            }
            std::this_thread::yield();
        }
    });
    return met.load();
}

TEST(SharedPool, ForkedChildRunsParallelFor)
{
    if (hardwareJobs() < 2)
        GTEST_SKIP() << "one hardware thread: parallelFor runs inline";
    // The parent's pool exists before the fork; the child must get
    // live workers of its own, not a pool whose threads stayed behind.
    ASSERT_TRUE(twoLanesMeet());

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::alarm(30); // a hang fails the test instead of stalling it
        std::vector<int> out(257, -1);
        parallelFor(out.size(), 0, [&](std::size_t i) {
            out[i] = static_cast<int>(i * i);
        });
        for (std::size_t i = 0; i < out.size(); ++i) {
            if (out[i] != static_cast<int>(i * i))
                ::_exit(1);
        }
        ::_exit(twoLanesMeet() ? 0 : 2);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "child status " << status;
    EXPECT_EQ(WEXITSTATUS(status), 0);

    // The parent's pool keeps working after the fork.
    EXPECT_TRUE(twoLanesMeet());
}

} // namespace
} // namespace pvar
