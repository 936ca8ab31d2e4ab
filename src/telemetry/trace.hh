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

#include <atomic>
#include <memory>
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
 * One model's request-path instruments: the histograms its
 * RequestTraces record into, and the in-flight gauge. Each
 * histogram is looked up in the registry on first use and cached,
 * so a server that keeps one per model does no registry lookup per
 * request (a lookup walks the registry's map, which after a forward
 * pass has cooled the caches costs microseconds). Thread-safe.
 */
class PhaseInstruments
{
  public:
    PhaseInstruments(MetricRegistry &registry, std::string model);

    PhaseInstruments(const PhaseInstruments &) = delete;
    PhaseInstruments &operator=(const PhaseInstruments &) = delete;

    /** The model label. */
    const std::string &model() const { return model_; }

    /** The registry the instruments live in. */
    MetricRegistry &registry() const { return registry_; }

    /** `djinn_inflight_requests` (shared by every model). */
    Gauge &inflight() const { return inflight_; }

    /** See RequestTrace::record. */
    void record(Phase phase, double seconds);

    /** See RequestTrace::recordWork. */
    void recordWork(Phase phase, const CounterDelta &delta);

    /** See RequestTrace::recordRequestWork. */
    void recordRequestWork(const CounterDelta &delta);

  private:
    /** The histogram families; the last two carry no phase label. */
    enum Family {
        Seconds,
        Cycles,
        Instructions,
        Ipc,
        CacheMisses,
        RequestCycles,
        RequestIpc,
        FamilyCount
    };
    static constexpr int kPhases = static_cast<int>(Phase::Service) + 1;

    /** @p family's histogram for @p phase (ignored for the request
     * families), resolved on first use. */
    LogHistogram &histogram(Family family, Phase phase = Phase::Decode);

    MetricRegistry &registry_;
    std::string model_;
    Gauge &inflight_;
    std::atomic<LogHistogram *> slots_[FamilyCount][kPhases] = {};
};

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

    /** Record through @p instruments, which must outlive the
     * trace. */
    explicit RequestTrace(PhaseInstruments &instruments);

    /** Decrements the in-flight gauge. */
    ~RequestTrace();

    RequestTrace(const RequestTrace &) = delete;
    RequestTrace &operator=(const RequestTrace &) = delete;

    /** Set the model label (known only after decode). */
    void setModel(std::string model);

    /** The current model label. */
    const std::string &model() const { return instruments_->model(); }

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
    /** Set when the trace was built from a registry. */
    std::unique_ptr<PhaseInstruments> owned_;
    PhaseInstruments *instruments_;
};

} // namespace telemetry
} // namespace djinn

#endif // DJINN_TELEMETRY_TRACE_HH
