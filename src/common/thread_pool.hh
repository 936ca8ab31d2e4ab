/**
 * @file
 * A fixed-size thread pool with a blocked parallel-for primitive,
 * shared by every compute subsystem (GEMM, layer forward passes,
 * packing). Deliberately work-stealing-free: each parallelFor call
 * becomes one job whose chunks are handed out from a single queue
 * under a mutex, so scheduling is simple to reason about and the
 * arithmetic performed for a given range never depends on how many
 * workers drained it (the determinism guarantee DESIGN.md §8
 * documents).
 */

#ifndef DJINN_COMMON_THREAD_POOL_HH
#define DJINN_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace djinn {
namespace common {

/**
 * Fixed worker-count thread pool. A pool of size N owns N-1 worker
 * threads; the thread calling parallelFor() always participates as
 * the Nth executor, so a pool of size 1 runs everything inline with
 * no synchronization at all.
 *
 * Thread safety: parallelFor() may be called concurrently from any
 * number of threads; jobs share the worker set. Calls made from
 * inside a pool task (nested parallelism) are rejected in the sense
 * that they run their whole range inline on the calling worker —
 * never deadlocking, never oversubscribing.
 */
class ThreadPool
{
  public:
    /**
     * @param threads total executor count including the caller;
     *                clamped to at least 1.
     */
    explicit ThreadPool(int threads);

    /** Joins all workers. No job may be in flight. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total executor count (workers + the calling thread). */
    int size() const { return size_; }

    /**
     * Run body(chunkBegin, chunkEnd) over [begin, end) split into
     * contiguous chunks of at least @p grain indices, in parallel
     * across the pool. Blocks until the whole range is done.
     *
     * The union of chunks is exactly [begin, end) with no overlap,
     * so per-index work runs exactly once regardless of pool size.
     * If any chunk throws, the first exception is rethrown on the
     * calling thread after the job drains (remaining chunks are
     * skipped).
     *
     * Runs inline (single call covering the whole range) when the
     * pool has one executor, the range is no larger than the grain,
     * the caller is itself a pool task, or a SerialScope is active.
     */
    void parallelFor(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t, int64_t)>
                         &body);

    /**
     * True while the calling thread is executing a pool task (so a
     * nested parallelFor would run inline).
     */
    static bool inParallelRegion();

    /**
     * Executors currently running a chunk (workers plus
     * participating callers). A saturation signal: equal to size()
     * while the pool is fully busy, 0 when idle. Sampled by the
     * server's BackgroundSampler into `djinn_compute_pool_busy`.
     */
    int activeWorkers() const
    {
        return active_.load(std::memory_order_relaxed);
    }

  private:
    struct Job {
        const std::function<void(int64_t, int64_t)> *body = nullptr;
        int64_t begin = 0;
        int64_t chunk = 1;
        int64_t chunks = 0;
        int64_t end = 0;
        int64_t next = 0; ///< next unclaimed chunk (pool mutex)
        int64_t done = 0; ///< completed chunks (pool mutex)
        std::exception_ptr error;
        bool failed = false;
        std::condition_variable doneCv;
    };

    void workerLoop();
    void runChunk(Job *job, int64_t index);

    int size_;
    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable workCv_;
    std::deque<Job *> jobs_;
    bool stop_ = false;
    std::atomic<int> active_{0};
};

/**
 * Suppress pool parallelism on the current thread for the scope's
 * lifetime: every parallelFor runs inline, so a forward pass under
 * the scope runs serially on the calling thread. Used by tests
 * pinning execution order.
 */
class SerialScope
{
  public:
    SerialScope();
    ~SerialScope();

    SerialScope(const SerialScope &) = delete;
    SerialScope &operator=(const SerialScope &) = delete;
};

/**
 * The process-wide compute pool shared by the nn hot paths. Created
 * on first use with the size from setComputeThreads(), the
 * DJINN_COMPUTE_THREADS environment variable, or
 * hardware_concurrency, in that precedence order.
 */
ThreadPool &computePool();

/** Executor count the compute pool has (or would be created with). */
int computeThreads();

/**
 * Set the compute pool size. @p threads <= 0 re-applies the
 * automatic choice (environment variable, then hardware
 * concurrency). Recreates the pool; must not race with in-flight
 * parallelFor calls — configure at startup or between runs.
 */
void setComputeThreads(int threads);

/**
 * Register a name for the calling thread, visible to tooling two
 * ways: as the pthread name (top, /proc) and as the root frame of
 * the thread's stacks in the sampling profiler's collapsed
 * output. Pool workers self-register as "compute-N"; the server
 * names its acceptor, connection workers, and batch dispatchers.
 * Truncated to 15 characters (the pthread limit).
 */
void setCurrentThreadName(const char *name);

/**
 * The name registered by setCurrentThreadName on this thread, or
 * "" when it never registered. Async-signal-safe (a plain
 * thread-local array read), which is why the profiler's SIGPROF
 * handler may call it.
 */
const char *currentThreadName();

} // namespace common
} // namespace djinn

#endif // DJINN_COMMON_THREAD_POOL_HH
