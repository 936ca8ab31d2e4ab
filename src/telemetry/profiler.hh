/**
 * @file
 * Always-on sampling profiler: a SIGPROF timer fires at a
 * configurable rate against the process's consumed CPU time, the
 * handler captures the interrupted thread's backtrace into a
 * lock-free ring, and the aggregator collapses the ring into
 * Brendan-Gregg "collapsed stack" text
 * (`thread;outer;inner count` per line, flamegraph.pl input).
 *
 * The signal path is async-signal-safe: one backtrace() call
 * (pre-warmed at start so libgcc is already loaded), a read of the
 * thread's registered name, and a seqlock-slot write into the
 * ring — no locks, no allocation. Aggregation and symbolization
 * (dladdr + demangle) happen on the reader's thread at export
 * time, never in the handler.
 *
 * Because the timer counts CPU time (ITIMER_PROF), an idle server
 * produces no samples and costs nothing; `hz` means samples per
 * consumed CPU-second, summed over all running threads.
 */

#ifndef DJINN_TELEMETRY_PROFILER_HH
#define DJINN_TELEMETRY_PROFILER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hh"
#include "telemetry/seqlock.hh"

namespace djinn {
namespace telemetry {

/** One captured backtrace. */
struct StackSample {
    /** Deepest-first program counters, as backtrace() returns. */
    static constexpr int kMaxDepth = 48;
    void *pcs[kMaxDepth];

    /** Captured frame count; 0 marks an empty sample. */
    int depth = 0;

    /** Registered name of the interrupted thread ("" when the
     * thread never registered). */
    char thread[16] = {0};
};

/**
 * Fixed-capacity lock-free sample ring. push() is safe from a
 * signal handler (and from concurrent handlers on different
 * threads); drain() runs on an ordinary thread. Each slot is a
 * SeqlockSlot: a push that finds its slot mid-write or already
 * holding a newer sample drops its own, and a drain that races a
 * wrap-around skips the slot; either way the loss is counted by
 * dropped().
 */
class StackRing
{
  public:
    /** @param capacity slot count (rounded up to a power of 2). */
    explicit StackRing(size_t capacity = 4096);

    StackRing(const StackRing &) = delete;
    StackRing &operator=(const StackRing &) = delete;

    /** Append one sample. Signal-safe; overwrites the oldest slot
     * when full. */
    void push(const StackSample &sample);

    /** Remove and return every complete sample pushed since the
     * last drain (oldest first). Samples overwritten before being
     * drained are counted by dropped(). */
    std::vector<StackSample> drain();

    /** Samples lost to wrap-around or torn reads so far. */
    uint64_t dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /** Samples ever pushed. */
    uint64_t pushed() const
    {
        return next_.load(std::memory_order_relaxed);
    }

  private:
    size_t capacity_;
    /** Slot ticket % capacity holds ticket's sample as its
     * generation. */
    std::unique_ptr<SeqlockSlot<StackSample>[]> slots_;
    std::atomic<uint64_t> next_{0};
    uint64_t readSeq_ = 0; ///< drain() is single-consumer
    std::atomic<uint64_t> dropped_{0};
};

/** Turns one program counter into a frame name. */
using Symbolizer = std::function<std::string(void *pc)>;

/** dladdr-based symbolizer: demangled function name when the
 * symbol is exported (link with ENABLE_EXPORTS for main-binary
 * frames), else `module+0xoffset`, else the raw address. */
std::string defaultSymbolize(void *pc);

/**
 * Collapse samples into flamegraph.pl input: one
 * `thread;root;...;leaf count` line per distinct stack, sorted by
 * descending count then lexicographically. Frame names are
 * sanitized (spaces and semicolons replaced) so the output always
 * tokenizes. Empty input renders as an empty string.
 */
std::string renderCollapsed(const std::vector<StackSample> &samples,
                            const Symbolizer &symbolize =
                                defaultSymbolize);

/**
 * The process-wide profiler (SIGPROF has one handler, so there is
 * exactly one). start()/stop() are not async-signal-safe; call
 * them from ordinary threads only.
 */
class Profiler
{
  public:
    /** The singleton. */
    static Profiler &instance();

    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /**
     * Install the SIGPROF handler and arm the CPU-time timer.
     *
     * @param hz samples per consumed CPU-second, clamped to
     *        [1, 1000].
     * @return InvalidArgument when already running, Unavailable
     *         when the kernel refuses the handler or timer (e.g.
     *         seccomp-restricted sandboxes).
     */
    Status start(int hz);

    /** Disarm the timer and restore the previous handler. */
    void stop();

    /** True while sampling. */
    bool running() const
    {
        return running_.load(std::memory_order_relaxed);
    }

    /** Configured rate; 0 when stopped. */
    int hz() const { return hz_; }

    /** The sample ring (drain from one thread at a time). */
    StackRing &ring() { return ring_; }

    /**
     * Gather samples for @p seconds of wall time and render them
     * collapsed. When the profiler is stopped it is started at
     * @p temporaryHz for the window and stopped again (the server
     * never runs it continuously: samples from before a window are
     * discarded). Blocks the calling thread for the window.
     */
    Result<std::string> collect(double seconds,
                                int temporaryHz = 97);

  private:
    Profiler() = default;

    std::atomic<bool> running_{false};
    std::atomic<bool> collecting_{false};
    int hz_ = 0;
    StackRing ring_;
};

} // namespace telemetry
} // namespace djinn

#endif // DJINN_TELEMETRY_PROFILER_HH
