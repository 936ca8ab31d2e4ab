/**
 * @file
 * The trace buffer and timeline exporter behind end-to-end request
 * tracing. Components on the service path record completed spans
 * (client round-trip, server phases, batched forward passes,
 * per-layer compute) and counter samples (queue depth, in-flight
 * requests, process RSS) into a fixed-capacity ring; the buffer
 * renders as Chrome trace-event JSON, loadable in chrome://tracing
 * or Perfetto, with one named track per logical thread and the
 * trace/span/parent ids attached to every event's args.
 *
 * All timestamps share one process-wide steady-clock epoch
 * (`traceNowUs()`), so spans recorded by different Tracer instances
 * in one process merge onto a single timeline.
 */

#ifndef DJINN_TELEMETRY_TRACER_HH
#define DJINN_TELEMETRY_TRACER_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/metrics.hh"
#include "telemetry/trace_context.hh"

namespace djinn {
namespace telemetry {

/** Microseconds since the process-wide trace epoch (steady). */
int64_t traceNowUs();

/** One recorded timeline event. */
struct TraceEvent {
    /** Event name ("decode", "conv1", "queue_depth", ...). */
    std::string name;

    /** Coarse grouping: "client", "phase", "layer", "sampler". */
    std::string category;

    /** Track (rendered as a named Chrome thread) the event is on. */
    std::string track;

    /** Owning trace; 0 for counter samples. */
    uint64_t traceId = 0;

    /** This span's id. */
    uint64_t spanId = 0;

    /** Enclosing span's id; 0 for roots. */
    uint64_t parentSpanId = 0;

    /** Start time, traceNowUs() units. */
    int64_t startUs = 0;

    /** Span duration; ignored for counter samples. */
    int64_t durationUs = 0;

    /** True for counter samples (rendered as Chrome "C" events). */
    bool counter = false;

    /** Counter value when counter is true. */
    double value = 0.0;

    /** Extra args rendered into the event's args object. */
    std::vector<std::pair<std::string, std::string>> args;
};

/**
 * Thread-safe fixed-capacity event ring. When full, the oldest
 * events are overwritten; dropped() counts the overwrites.
 */
class Tracer
{
  public:
    /** @param capacity event ring size. */
    explicit Tracer(size_t capacity = 16384);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** A fresh span id unique within the process. */
    uint64_t nextSpanId() { return nextGlobalSpanId(); }

    /** Append one event (span or counter). */
    void record(TraceEvent event);

    /** Append a counter sample stamped with the current time. */
    void recordCounter(const std::string &name, double value,
                       const std::string &track = "sampler");

    /**
     * Chronological copy of the buffered events.
     *
     * @param last_n keep only the newest N events; 0 keeps all.
     */
    std::vector<TraceEvent> events(size_t last_n = 0) const;

    /** Events overwritten because the ring was full. */
    uint64_t dropped() const;

    /** Buffered event count. */
    size_t size() const;

    /** Discard all buffered events. */
    void clear();

  private:
    const size_t capacity_;

    mutable std::mutex mutex_;
    std::vector<TraceEvent> ring_;
    size_t head_ = 0; // next write position once the ring is full
    uint64_t dropped_ = 0;
};

/**
 * Render events as a Chrome trace-event JSON document
 * (`{"traceEvents": [...]}`): spans become complete ("X") events,
 * counters become "C" events, and every distinct track gets a
 * thread_name metadata record. Events are emitted in start-time
 * order.
 */
std::string renderChromeTrace(const std::vector<TraceEvent> &events);

/**
 * Background thread that periodically samples service vitals into a
 * tracer as counter events: every gauge in the registry (queue
 * depths, batch occupancy, in-flight requests, SLO burn rates)
 * plus the process's resident set size. Two optional hooks: an
 * update hook runs *before* the gauge sweep so owners can refresh
 * gauges whose source is not registry-backed (compute-pool
 * active-thread count, aggregate batcher queue depth, burn-rate
 * recomputation) and have them exported on the same tick — the
 * single sampling path for every saturation signal — and a record
 * hook runs after the sweep for direct extra samples.
 */
class BackgroundSampler
{
  public:
    using Hook = std::function<void(Tracer &)>;

    /** Pre-sweep gauge refresh callback. */
    using UpdateHook = std::function<void()>;

    /**
     * @param tracer destination buffer; must outlive the sampler.
     * @param metrics registry whose gauges are sampled.
     * @param period_seconds sampling interval.
     * @param hook optional extra per-tick sampling (post-sweep).
     * @param update optional gauge refresh run before each sweep.
     */
    BackgroundSampler(Tracer &tracer,
                      const MetricRegistry &metrics,
                      double period_seconds, Hook hook = {},
                      UpdateHook update = {});

    /** Stops the thread if running. */
    ~BackgroundSampler();

    BackgroundSampler(const BackgroundSampler &) = delete;
    BackgroundSampler &operator=(const BackgroundSampler &) = delete;

    /** Start sampling; no-op when already running. */
    void start();

    /** Stop and join the sampling thread. */
    void stop();

    /** Record one sample synchronously (also used per tick). */
    void sampleOnce();

  private:
    void loop();

    Tracer &tracer_;
    const MetricRegistry &metrics_;
    double period_;
    Hook hook_;
    UpdateHook update_;

    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
    bool running_ = false;
    std::thread thread_;
};

/** Current process resident set size in bytes; 0 when unknown. */
double processRssBytes();

} // namespace telemetry
} // namespace djinn

#endif // DJINN_TELEMETRY_TRACER_HH
