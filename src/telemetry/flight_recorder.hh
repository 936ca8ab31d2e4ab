/**
 * @file
 * The tail-latency flight recorder: an always-on, lock-free ring of
 * fixed-size per-request records written at request completion, plus
 * a tail-biased reservoir that keeps the slowest requests even after
 * the ring has wrapped many times. Every record carries the full
 * phase breakdown (frame read / decode / queue wait / forward /
 * encode), the queue depth observed at enqueue, the batch that
 * served the request, the shed/retry outcome, and perf-counter
 * deltas when hardware counters are available — enough to explain
 * any p99 sample without re-running the workload.
 *
 * The recorder never reads a clock and never allocates after
 * construction, so the cluster simulator can feed it from virtual
 * time with bit-identical results, and the live server pays a few
 * dozen nanoseconds per request.
 */

#ifndef DJINN_TELEMETRY_FLIGHT_RECORDER_HH
#define DJINN_TELEMETRY_FLIGHT_RECORDER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/seqlock.hh"

namespace djinn {
namespace telemetry {

class MetricRegistry;

/** How a request left the server. */
enum class FlightOutcome : uint8_t {
    Ok = 0,
    ShedQueueFull = 1,  ///< Overloaded at enqueue; never executed.
    ShedDeadline = 2,   ///< DeadlineExceeded before the forward pass.
    Error = 3,          ///< Any other non-Ok wire status.
};

/** Human label for an outcome ("ok", "shed_queue_full", ...). */
const char *flightOutcomeName(FlightOutcome outcome);

/**
 * One request's structured record. Trivially copyable and free of
 * owning members so the ring can publish it word-by-word through
 * atomics; the model name is a truncating fixed-size buffer.
 */
struct FlightRecord {
    /** Recorder-assigned sequence number; the exemplar "record"
     * ref that resolves back to this record. 0 until recorded. */
    uint64_t seq = 0;

    /** Wire trace id when the client sent one; 0 when untraced. */
    uint64_t traceId = 0;

    /** Completion timestamp, microseconds. Caller-supplied: the
     * server stamps traceNowUs(), the simulator virtual time. */
    int64_t timestampUs = 0;

    /** Phase durations, seconds. Zero when a phase did not run. */
    double readSeconds = 0.0;       ///< frame ingest (first byte on)
    double decodeSeconds = 0.0;
    double queueWaitSeconds = 0.0;
    double forwardSeconds = 0.0;
    double encodeSeconds = 0.0;

    /** Client-side retry inflation: time between the request's
     * first arrival and the admitted attempt (simulator only). */
    double retryWaitSeconds = 0.0;

    /** End-to-end server-side latency (read through encode; sim:
     * first arrival to completion). The tail-selection key. */
    double totalSeconds = 0.0;

    /** The server's service span: executor hand-off through the
     * result, the `djinn_phase_seconds{phase="service"}` sample of
     * an Ok request. 0 when the request never reached the
     * executor. */
    double serviceSeconds = 0.0;

    /** Input rows in this request. */
    int32_t rows = 0;

    /** Queries combined into the serving batch (1 unbatched). */
    int32_t batchQueries = 0;

    /** Total rows of the serving batch's forward pass. */
    int32_t batchRows = 0;

    /** This query's position within the serving batch. */
    int32_t batchPosition = 0;

    /** Queue depth observed at enqueue, before this query joined. */
    int32_t admitQueueDepth = 0;

    /** Retry attempts before this completion (simulator only). */
    int32_t retries = 0;

    /** How the request left the server. */
    FlightOutcome outcome = FlightOutcome::Ok;

    /** True when the perf-counter deltas below carry hardware
     * counts rather than zeros. */
    bool hardware = false;

    /** Whole-request perf-counter deltas (0 without hardware). */
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t cacheMisses = 0;

    /** The model (server) or app (simulator) name, truncated. */
    char model[24] = {};

    /** Set the model name (truncating). */
    void setModel(const std::string &name);

    /** The model name as a string. */
    std::string modelName() const;
};

/**
 * The recorder. record() is wait-free on the hot path: a fetch_add
 * claims a slot, and each slot is a SeqlockSlot, so concurrent
 * reads are tear-free (readers that race a wrap simply retry or
 * skip the slot). A separate fixed-size reservoir
 * keeps the slowest-ever requests past ring wraps: candidates are
 * rejected with one relaxed load against the current tail threshold
 * and only genuine tail entries take the reservoir mutex.
 */
class FlightRecorder
{
  public:
    /**
     * @param capacity ring slots (newest records win).
     * @param reservoirCapacity slowest-request slots kept across
     *        ring wraps; 0 disables the reservoir.
     * @param metrics optional registry for the
     *        `djinn_tail_records_total` counter.
     */
    explicit FlightRecorder(size_t capacity = 4096,
                            size_t reservoirCapacity = 256,
                            MetricRegistry *metrics = nullptr);

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /**
     * Record one completed request. Thread-safe, wait-free apart
     * from rare tail-reservoir inserts.
     *
     * @return the assigned sequence number (the exemplar ref).
     */
    uint64_t record(const FlightRecord &record);

    /** Records ever written. */
    uint64_t recordCount() const;

    /** Ring capacity in slots. */
    size_t capacity() const { return slots_.size(); }

    /**
     * Copy out every live record: the ring's current contents plus
     * reservoir-retained tail records no longer in the ring,
     * deduplicated by sequence number and sorted by it (oldest
     * first). Safe against concurrent writers.
     */
    std::vector<FlightRecord> snapshot() const;

    /** Find the newest record with @p seq (exact match). */
    bool find(uint64_t seq, FlightRecord &out) const;

    /** Find the newest record carrying @p traceId. */
    bool findByTraceId(uint64_t traceId, FlightRecord &out) const;

  private:
    void offerTail(const FlightRecord &record);

    /** Slot seq % size holds record seq as its generation. */
    std::vector<SeqlockSlot<FlightRecord>> slots_;
    std::atomic<uint64_t> next_{0};

    // Tail reservoir: keep-K-slowest by totalSeconds. full_ and
    // threshold_ cache the reservoir's state (the vector itself is
    // mutex-guarded, so the lock-free pre-check must not touch it);
    // threshold_ caches the current minimum so the hot path can
    // reject non-tail records with one relaxed load.
    size_t reservoirCapacity_;
    std::atomic<bool> reservoirFull_{false};
    std::atomic<double> tailThreshold_{0.0};
    mutable std::mutex reservoirMutex_;
    std::vector<FlightRecord> reservoir_;

    class Counter *recordsCounter_ = nullptr;
};

/** Render one record as a JSON object (the /debug/flight payload
 * an exemplar's `record` ref resolves to). */
std::string renderFlightRecordJson(const FlightRecord &record);

/**
 * Render the served (outcome Ok) records as CSV, one header line:
 * `trace_id,model,rows,batch_rows,service_ms`, where service_ms is
 * queue wait plus forward. The `metrics requests` wire view.
 */
std::string renderRequestsCsv(const std::vector<FlightRecord> &records);

/** Metric family for per-request end-to-end latency, recorded with
 * per-bucket exemplars resolving to flight records. */
inline const char *const requestSecondsMetricName =
    "djinn_request_seconds";

} // namespace telemetry
} // namespace djinn

#endif // DJINN_TELEMETRY_FLIGHT_RECORDER_HH
