/**
 * @file
 * The trace buffer and timeline exporter behind end-to-end request
 * tracing. Components on the service path record completed spans
 * (client round-trip, the server's request phases derived from its
 * flight record, batched forward passes, per-layer compute) into a
 * fixed-capacity ring; the buffer renders as Chrome trace-event
 * JSON, loadable in chrome://tracing or Perfetto, with one named
 * track per logical thread and the trace/span/parent ids attached
 * to every event's args. Counter tracks (queue depths, in-flight
 * requests, process RSS) are not buffered here: the exporter
 * renders them from the time-series store's gauge history.
 *
 * All timestamps share one process-wide steady-clock epoch
 * (`traceNowUs()`), so spans recorded by different Tracer instances
 * in one process merge onto a single timeline.
 */

#ifndef DJINN_TELEMETRY_TRACER_HH
#define DJINN_TELEMETRY_TRACER_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/trace_context.hh"

namespace djinn {
namespace telemetry {

class TimeSeriesStore;

/** Microseconds since the process-wide trace epoch (steady). */
int64_t traceNowUs();

/** One recorded span. */
struct TraceEvent {
    /** Span name ("decode", "conv1", "forward", ...). */
    std::string name;

    /** Coarse grouping: "client", "server", "batch", "layer". */
    std::string category;

    /** Track (rendered as a named Chrome thread) the event is on. */
    std::string track;

    /** Owning trace. */
    uint64_t traceId = 0;

    /** This span's id. */
    uint64_t spanId = 0;

    /** Enclosing span's id; 0 for roots. */
    uint64_t parentSpanId = 0;

    /** Start time, traceNowUs() units. */
    int64_t startUs = 0;

    /** Span duration, microseconds. */
    int64_t durationUs = 0;

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

    /** Append one span. */
    void record(TraceEvent event);

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
 * Render spans as a Chrome trace-event JSON document
 * (`{"traceEvents": [...]}`): spans become complete ("X") events in
 * start-time order, and every distinct track gets a thread_name
 * metadata record. With @p store, every gauge track it holds
 * follows as "C" events on the "sampler" track, named
 * renderMetricId(name, labels): its first retained slot from the
 * oldest span's start on (from the oldest retained slot when
 * @p events is empty), then each slot whose value changed.
 */
std::string renderChromeTrace(const std::vector<TraceEvent> &events,
                              const TimeSeriesStore *store = nullptr);

} // namespace telemetry
} // namespace djinn

#endif // DJINN_TELEMETRY_TRACER_HH
