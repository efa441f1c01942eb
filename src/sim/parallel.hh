/**
 * @file
 * A small fixed-size thread pool and a deterministic parallel-for.
 *
 * The study protocol is embarrassingly parallel: every experiment owns
 * its own Simulator, device, chamber and RNG, so experiments can run on
 * worker threads with no shared mutable state beyond logging. The
 * helpers here keep that parallelism *deterministic*: work items are
 * identified by index and results are written into caller-preallocated
 * slots, so the output of `parallelFor` is bit-identical regardless of
 * worker count or scheduling order.
 *
 * `parallelFor(n, jobs, fn)` borrows one long-lived, process-wide pool
 * of hardwareJobs() - 1 workers, created on first use, so a call costs
 * a queue push and a wake-up rather than a thread spawn. The calling
 * thread is always one of the lanes and claims indices itself: a call
 * never waits behind another caller's queued work, and a parallelFor
 * inside a task cannot deadlock. The pool is fork-safe: fork() joins
 * its idle workers first, and parent and child each start a fresh pool
 * on their next call.
 *
 * `jobs <= 1` (after resolution) executes inline on the calling thread
 * with no pool at all, which makes the serial path the exact reference
 * the parallel path is checked against.
 */

#ifndef PVAR_SIM_PARALLEL_HH
#define PVAR_SIM_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace pvar
{

/** Usable hardware concurrency (never less than 1), read once. */
int hardwareJobs();

/**
 * Resolve a user-facing jobs knob: values <= 0 mean "use all hardware
 * threads"; anything else is taken literally.
 */
int resolveJobs(int jobs);

/**
 * A fixed-size pool of worker threads with a FIFO task queue.
 *
 * Workers tag their log output `w0`, `w1`, ... (see setLogThreadTag)
 * so interleaved progress lines from parallel experiments stay
 * attributable; work done on a calling thread's own lane keeps that
 * thread's tag.
 */
class ThreadPool
{
  public:
    /**
     * Start the pool.
     *
     * @param workers worker-thread count; <= 0 uses hardwareJobs().
     */
    explicit ThreadPool(int workers = 0);

    /** Drains queued tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    int workerCount() const { return static_cast<int>(_threads.size()); }

    /**
     * Enqueue a task; the future resolves when it finishes (or
     * rethrows the task's exception).
     */
    std::future<void> submit(std::function<void()> fn);

    /**
     * Run `fn(i)` for every i in [0, n) and wait, on at most
     * min(n, workerCount() + 1) lanes: the calling thread plus one
     * queued helper task per other lane.
     *
     * Indices are claimed dynamically but the caller sees no ordering
     * effect as long as `fn` writes only to its own slot. The caller
     * claims indices too and waits only for helpers that have started,
     * so helpers still queued behind other work cost it nothing.
     *
     * Exception contract — first exception wins:
     *  - the first exception thrown by any task is captured and
     *    rethrown here, after every in-flight task has settled —
     *    never while workers still touch caller state;
     *  - indices not yet claimed when the exception is captured are
     *    skipped, so a poisoned batch fails fast instead of running
     *    to completion;
     *  - indices that completed before (or concurrently with) the
     *    failure keep their results: a caller that preallocated a
     *    results vector can inspect the survivors after catching;
     *  - exceptions after the first are swallowed — one batch, one
     *    failure report;
     *  - the pool itself stays usable: a later parallelFor on the
     *    same pool runs normally.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /** parallelFor() on at most @p lanes lanes (>= 1). */
    void parallelFor(std::size_t n, std::size_t lanes,
                     const std::function<void(std::size_t)> &fn);

  private:
    std::vector<std::thread> _threads;
    std::deque<std::function<void()>> _queue;
    std::mutex _mutex;
    std::condition_variable _cv;
    bool _stop = false;

    void workerLoop(int worker_id);
};

/**
 * Parallel-for on the process-wide pool.
 *
 * `jobs` is resolved via resolveJobs(); a resolved value of 1 (or
 * n <= 1) runs inline on the calling thread. Otherwise the call uses
 * min(n, resolveJobs(jobs), hardwareJobs()) lanes: the calling thread
 * and helpers from a pool of hardwareJobs() - 1 workers. A `jobs`
 * above hardwareJobs() is capped there, at the pool size plus the
 * caller. Exceptions propagate as in ThreadPool::parallelFor.
 *
 * Calls from many threads at once share the pool safely. Calling
 * fork() from inside a parallelFor task is not supported.
 */
void parallelFor(std::size_t n, int jobs,
                 const std::function<void(std::size_t)> &fn);

} // namespace pvar

#endif // PVAR_SIM_PARALLEL_HH
