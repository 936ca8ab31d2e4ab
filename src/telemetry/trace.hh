/**
 * @file
 * Request tracing: decomposes one DjiNN request into timed phases
 * (decode -> batch-queue wait -> forward pass -> encode, plus the
 * end-to-end service span) and records each phase into the metric
 * registry's per-model `djinn_phase_seconds` histograms. The caller
 * times each phase once and records it; a trace also maintains the
 * `djinn_inflight_requests` gauge.
 */

#ifndef DJINN_TELEMETRY_TRACE_HH
#define DJINN_TELEMETRY_TRACE_HH

#include <string>

#include "telemetry/metrics.hh"
#include "telemetry/perf_counters.hh"

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

/**
 * One request's trace. Construct when a request enters the service
 * path; phases recorded through it land in
 * `djinn_phase_seconds{model=..., phase=...}`.
 */
class RequestTrace
{
  public:
    /**
     * @param registry destination for phase samples.
     * @param model target model; may be set later, once decoded.
     */
    explicit RequestTrace(MetricRegistry &registry,
                          std::string model = "");

    /** Decrements the in-flight gauge. */
    ~RequestTrace();

    RequestTrace(const RequestTrace &) = delete;
    RequestTrace &operator=(const RequestTrace &) = delete;

    /** Set the model label (known only after decode). */
    void setModel(std::string model) { model_ = std::move(model); }

    /** The current model label. */
    const std::string &model() const { return model_; }

    /** Record @p seconds spent in @p phase. */
    void record(Phase phase, double seconds);

    /**
     * Record a counter delta for @p phase: work (cycles or
     * fallback nanoseconds) always, plus instructions / IPC /
     * cache misses when the delta came from hardware counters.
     */
    void recordWork(Phase phase, const CounterDelta &delta);

    /**
     * Record the whole request span's delta (readFrame-to-encode
     * on the worker thread), the denominator the per-phase shares
     * are measured against.
     */
    void recordRequestWork(const CounterDelta &delta);

  private:
    MetricRegistry &registry_;
    std::string model_;
};

} // namespace telemetry
} // namespace djinn

#endif // DJINN_TELEMETRY_TRACE_HH
