/**
 * @file
 * Request recording: one finished DjiNN request is written once.
 * The connection worker fills the request's FlightRecord (phase
 * durations decode -> batch-queue wait -> forward pass -> encode,
 * plus the end-to-end service span, batch context and outcome) and
 * measures the per-phase counter deltas beside it; RequestLog::
 * finish() publishes the record to the flight recorder and derives
 * from it every per-request metric sample and, for a sampled
 * traced request, the server's request-phase spans. A log also
 * maintains the `djinn_inflight_requests` gauge.
 */

#ifndef DJINN_TELEMETRY_TRACE_HH
#define DJINN_TELEMETRY_TRACE_HH

#include <atomic>
#include <mutex>
#include <string>

#include "telemetry/flight_recorder.hh"
#include "telemetry/metrics.hh"
#include "telemetry/perf_counters.hh"
#include "telemetry/tracer.hh"

namespace djinn {
namespace telemetry {

/** The phases a request passes through on the service path. */
enum class Phase {
    /** Wire-frame to Request decode. */
    Decode,

    /** Waiting in the batching queue for peers or the dispatcher. */
    QueueWait,

    /** The (possibly batched) DNN forward pass. */
    Forward,

    /** Response to wire-frame encode. */
    Encode,

    /** End-to-end request handling (all of the above). */
    Service,
};

/** Stable lowercase label for a phase ("queue_wait", ...). */
const char *phaseName(Phase phase);

/** Metric family every phase histogram records under. */
inline const char *const phaseMetricName = "djinn_phase_seconds";

/**
 * Per-phase cycle accounting (the Figure-4 breakdown). Carries CPU
 * cycles when `djinn_perf_counters_available` is 1, wall
 * nanoseconds otherwise — either way the phase shares of one
 * request sum to ~100% of its `djinn_request_cycles` span.
 */
inline const char *const phaseCyclesMetricName =
    "djinn_phase_cycles";

/** Per-phase instructions retired (hardware counters only). */
inline const char *const phaseInstructionsMetricName =
    "djinn_phase_instructions";

/** Per-phase instructions-per-cycle (hardware counters only). */
inline const char *const phaseIpcMetricName = "djinn_phase_ipc";

/** Per-phase cache misses (hardware counters only). */
inline const char *const phaseCacheMissMetricName =
    "djinn_phase_cache_misses";

/** Whole-request work (same unit rule as djinn_phase_cycles). */
inline const char *const requestCyclesMetricName =
    "djinn_request_cycles";

/** Whole-request IPC (hardware counters only). */
inline const char *const requestIpcMetricName =
    "djinn_request_ipc";

/** Gauge tracking requests currently being handled. */
inline const char *const inflightMetricName =
    "djinn_inflight_requests";

/** Counters of successful requests and their input rows. */
inline const char *const requestsTotalMetricName =
    "djinn_requests_total";
inline const char *const rowsTotalMetricName = "djinn_rows_total";

/**
 * The per-phase counter deltas a connection worker measures beside
 * a request's FlightRecord (the record carries only the
 * whole-request hardware counts).
 */
struct RequestWork {
    CounterDelta decode;

    /** The worker's blocked span on the batching queue. */
    CounterDelta queueWait;

    CounterDelta encode;

    /** The whole request span on the worker thread (frame in hand
     * through encode), the denominator of the phase shares. */
    CounterDelta request;
};

/**
 * One model's per-request instruments, resolved from the registry
 * on first use and cached, so recording a request does no registry
 * lookup. Thread-safe.
 */
class RequestLog
{
  public:
    /**
     * @param queued requests reach the model through the batching
     *        queue, so their records carry a queue_wait phase.
     * @param sloTargetSeconds service-latency target that splits
     *        successes into the SLO good/bad counters; <= 0
     *        disables SLO accounting.
     * @param tracer span destination of sampled requests; null
     *        when tracing is off. Must outlive the log.
     */
    RequestLog(MetricRegistry &registry, FlightRecorder &recorder,
               std::string model, bool queued,
               double sloTargetSeconds, Tracer *tracer = nullptr);

    RequestLog(const RequestLog &) = delete;
    RequestLog &operator=(const RequestLog &) = delete;

    /** A request has entered the service path: raises the
     * in-flight gauge until its finish(). */
    void begin() { inflight_.add(1.0); }

    /**
     * Write one finished request: stamp @p record with the model
     * and @p work's whole-request counts, publish it to the flight
     * recorder (setting its seq), then derive from it
     *  - `djinn_phase_*{phase=decode|encode}` for every request,
     *  - `{phase=queue_wait}` for queued requests the batcher saw:
     *    work once admitted or shed at admission, seconds once
     *    dispatched (outcome Ok or ShedDeadline),
     *  - `djinn_request_{seconds,cycles,ipc}`, the seconds sample
     *    carrying the record's seq as its exemplar ref,
     *  - and for outcome Ok the `service` phase seconds, the
     *    request and row counters and the SLO good/bad counters.
     *
     * With a tracer and a nonzero @p serverSpan it also records the
     * request's spans (see recordSpans()).
     *
     * @param serverSpan the server's request span id; 0 when the
     *        request is unsampled.
     * @param clientSpan the client's span id, the request span's
     *        parent.
     * @return the record's sequence number.
     */
    uint64_t finish(FlightRecord &record, const RequestWork &work,
                    uint64_t serverSpan = 0, uint64_t clientSpan = 0);

    /** Successful requests finished so far (0 before the first). */
    uint64_t requests() const;

    /** Rows of those requests. */
    uint64_t rows() const;

    /** The `service` phase seconds of those requests; null before
     * the first. */
    const LogHistogram *serviceSeconds() const
    {
        return histograms_[Seconds][static_cast<int>(Phase::Service)]
            .load(std::memory_order_acquire);
    }

  private:
    /** The histogram families; the phased ones come first. */
    enum Family {
        Seconds,
        Cycles,
        Instructions,
        Ipc,
        CacheMisses,
        RequestSeconds,
        RequestCycles,
        RequestIpc,
        FamilyCount
    };
    static constexpr int kPhases = static_cast<int>(Phase::Service) + 1;

    /** @p family's histogram for @p phase (ignored for the request
     * families), resolved on first use. */
    LogHistogram &histogram(Family family, Phase phase = Phase::Decode);

    /** Record @p delta's work (and hardware detail) for @p phase. */
    void recordWork(Phase phase, const CounterDelta &delta);

    /** True when @p record carries a measured queue wait: queued,
     * and dispatched (outcome Ok or ShedDeadline). */
    bool dispatched(const FlightRecord &record) const;

    /**
     * Lay out @p record's spans on the calling worker's track, as
     * the per-layer spans are laid out from their durations:
     * `request <model>` (id @p serverSpan, parent @p clientSpan)
     * over [end - (total - read), end] with end = timestampUs;
     * under it `decode` from the request's start, `queue_wait`
     * right after decode when dispatched(), and `encode` ending at
     * end.
     */
    void recordSpans(const FlightRecord &record, uint64_t serverSpan,
                     uint64_t clientSpan);

    MetricRegistry &registry_;
    FlightRecorder &recorder_;
    std::string model_;
    bool queued_;
    double sloTargetSeconds_;
    Tracer *tracer_;
    Gauge &inflight_;
    std::atomic<LogHistogram *> histograms_[FamilyCount][kPhases] = {};

    /** The per-success counters (the SLO pair null when SLO
     * accounting is off), registered by the model's first success
     * under firstSuccess_, so they are exported only once used.
     * The request and row counters are published atomically for
     * requests() and rows(), which other threads call. */
    std::once_flag firstSuccess_;
    std::atomic<Counter *> requests_{nullptr};
    std::atomic<Counter *> rows_{nullptr};
    Counter *sloGood_ = nullptr;
    Counter *sloBad_ = nullptr;
};

} // namespace telemetry
} // namespace djinn

#endif // DJINN_TELEMETRY_TRACE_HH
