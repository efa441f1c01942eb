#include "sim/parallel.hh"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "sim/logging.hh"
#include "sim/strfmt.hh"

namespace pvar
{

int
hardwareJobs()
{
    // Read once: the query costs microseconds (it reads the online CPU
    // list), and every parallelFor asks.
    static const int jobs = [] {
        unsigned n = std::thread::hardware_concurrency();
        return n > 0 ? static_cast<int>(n) : 1;
    }();
    return jobs;
}

int
resolveJobs(int jobs)
{
    return jobs > 0 ? jobs : hardwareJobs();
}

ThreadPool::ThreadPool(int workers)
{
    int n = workers > 0 ? workers : hardwareJobs();
    _threads.reserve(n);
    for (int i = 0; i < n; ++i)
        _threads.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stop = true;
    }
    _cv.notify_all();
    for (auto &t : _threads)
        t.join();
}

void
ThreadPool::workerLoop(int worker_id)
{
    setLogThreadTag(strfmt("w%d", worker_id));
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _cv.wait(lock, [this] { return _stop || !_queue.empty(); });
            if (_queue.empty())
                return; // stopping, and nothing left to drain
            task = std::move(_queue.front());
            _queue.pop_front();
        }
        task(); // never throws: submit() and parallelFor() catch
    }
}

std::future<void>
ThreadPool::submit(std::function<void()> fn)
{
    auto task =
        std::make_shared<std::packaged_task<void()>>(std::move(fn));
    std::future<void> fut = task->get_future();
    {
        std::lock_guard<std::mutex> lock(_mutex);
        if (_stop)
            panic("ThreadPool: submit after shutdown");
        // packaged_task captures any exception in the future.
        _queue.emplace_back([task] { (*task)(); });
    }
    _cv.notify_one();
    return fut;
}

namespace
{

/**
 * One parallelFor call, shared by the caller and its helper tasks.
 * Helpers hold it by shared_ptr, so one that is dequeued after the
 * call returned finds `closed` set and leaves without touching `fn`.
 */
struct ForCall
{
    const std::function<void(std::size_t)> *fn;
    std::size_t n;
    std::atomic<std::size_t> next{0};

    std::mutex mutex;
    std::condition_variable settled;
    int active = 0;      ///< helpers inside drain()
    bool closed = false; ///< the caller stopped waiting for new helpers
    std::exception_ptr firstError;

    ForCall(const std::function<void(std::size_t)> &f, std::size_t count)
        : fn(&f), n(count)
    {
    }

    /**
     * Claim and run indices until none are left. On failure the first
     * exception is kept and the counter is pushed past n so the
     * remaining indices are skipped.
     */
    void
    drain()
    {
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                (*fn)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (!firstError)
                    firstError = std::current_exception();
                next.store(n);
                return;
            }
        }
    }

    /** A queued helper lane. */
    void
    help()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (closed)
                return;
            ++active;
        }
        drain();
        std::lock_guard<std::mutex> lock(mutex);
        if (--active == 0 && closed)
            settled.notify_one();
    }
};

} // namespace

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    parallelFor(n, static_cast<std::size_t>(workerCount()) + 1, fn);
}

void
ThreadPool::parallelFor(std::size_t n, std::size_t lanes,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;

    auto call = std::make_shared<ForCall>(fn, n);
    std::size_t helpers = std::min(n, std::max<std::size_t>(lanes, 1)) - 1;
    if (helpers > 0) {
        {
            std::lock_guard<std::mutex> lock(_mutex);
            for (std::size_t h = 0; h < helpers; ++h)
                _queue.emplace_back([call] { call->help(); });
        }
        for (std::size_t h = 0; h < helpers; ++h)
            _cv.notify_one();
    }

    // The calling thread is a lane too, then waits only for helpers
    // that already started: those still queued will find `closed`.
    call->drain();
    std::unique_lock<std::mutex> lock(call->mutex);
    call->closed = true;
    call->settled.wait(lock, [&] { return call->active == 0; });
    // Move the error out, so this thread drops the last reference to
    // it rather than whichever worker releases `call` last.
    std::exception_ptr error = std::move(call->firstError);
    lock.unlock();
    if (error)
        std::rethrow_exception(error);
}

namespace
{

/**
 * The process-wide pool behind the free parallelFor(). It is created
 * on first use with hardwareJobs() - 1 workers, because every caller
 * is a lane too: each thread that runs tasks keeps a malloc arena of
 * several MiB, and a worker per hardware thread on top of the caller
 * raised peak RSS by 8-20 % in the benchmark's study, crowd and resume
 * workloads. The pool is borrowed by every call, and never destroyed at
 * exit: its workers sleep through static destruction instead of
 * joining while other statics go away. fork() (see the atfork
 * handlers) joins it when no call is in flight, so the fork copies no
 * worker that might hold a lock; the parent and the child each start a
 * fresh pool on their next call. A pool whose workers did not survive
 * the fork is parked, never touched again: its mutex may be held by a
 * thread that no longer exists.
 */
std::mutex sharedMutex;
ThreadPool *sharedPool = nullptr;
ThreadPool *forkedAwayPool = nullptr; ///< parked, still reachable
int borrowers = 0;
bool atforkRegistered = false;

void
beforeFork()
{
    sharedMutex.lock();
    if (sharedPool && borrowers == 0) {
        delete sharedPool;
        sharedPool = nullptr;
    }
}

void
afterForkParent()
{
    sharedMutex.unlock();
}

void
afterForkChild()
{
    if (sharedPool) {
        forkedAwayPool = sharedPool;
        sharedPool = nullptr;
    }
    borrowers = 0;
    sharedMutex.unlock();
}

/** Holds the shared pool for one parallelFor call. */
class SharedPoolLease
{
  public:
    SharedPoolLease()
    {
        std::lock_guard<std::mutex> lock(sharedMutex);
        if (!sharedPool) {
            if (!atforkRegistered)
                pthread_atfork(beforeFork, afterForkParent, afterForkChild);
            atforkRegistered = true;
            sharedPool = new ThreadPool(hardwareJobs() - 1);
        }
        ++borrowers;
        _pool = sharedPool;
    }

    ~SharedPoolLease()
    {
        std::lock_guard<std::mutex> lock(sharedMutex);
        --borrowers;
    }

    SharedPoolLease(const SharedPoolLease &) = delete;
    SharedPoolLease &operator=(const SharedPoolLease &) = delete;

    ThreadPool &pool() const { return *_pool; }

  private:
    ThreadPool *_pool;
};

} // namespace

void
parallelFor(std::size_t n, int jobs,
            const std::function<void(std::size_t)> &fn)
{
    std::size_t lanes = std::min<std::size_t>(
        n, static_cast<std::size_t>(
               std::min(resolveJobs(jobs), hardwareJobs())));
    if (lanes <= 1) {
        // Inline serial reference path: no threads, same results.
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    SharedPoolLease lease;
    lease.pool().parallelFor(n, lanes, fn);
}

} // namespace pvar
