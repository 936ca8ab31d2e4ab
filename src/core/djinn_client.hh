/**
 * @file
 * Client library for the DjiNN service: connect over TCP and issue
 * inference / list / ping requests. Tonic applications use this to
 * reach the service (paper Figure 3).
 */

#ifndef DJINN_CORE_DJINN_CLIENT_HH
#define DJINN_CORE_DJINN_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/status.hh"
#include "core/protocol.hh"
#include "core/retry.hh"
#include "telemetry/trace_context.hh"

namespace djinn {
namespace telemetry {
class Tracer;
} // namespace telemetry
} // namespace djinn

namespace djinn {
namespace core {

/**
 * A blocking DjiNN client over one TCP connection. Not thread-safe;
 * use one client per thread.
 */
class DjinnClient
{
  public:
    DjinnClient() = default;

    /** Disconnects if connected. */
    ~DjinnClient();

    DjinnClient(const DjinnClient &) = delete;
    DjinnClient &operator=(const DjinnClient &) = delete;

    /**
     * Connect to a DjiNN server. The address is remembered so a
     * retrying infer() can reconnect after a dropped connection.
     *
     * @param host IPv4 address ("127.0.0.1").
     * @param port TCP port.
     */
    Status connect(const std::string &host, uint16_t port);

    /**
     * Bound connection establishment to @p seconds; <= 0 (the
     * default) blocks until the kernel gives up. Expiry surfaces
     * as DeadlineExceeded.
     */
    void setConnectTimeout(double seconds)
    {
        connectTimeoutSeconds_ = seconds;
    }

    /**
     * Bound each request round-trip: the request write, the wait
     * for the response's first byte, and the response transfer
     * are each limited to @p seconds. <= 0 (the default) blocks
     * indefinitely — the pre-robustness behaviour.
     */
    void setRequestTimeout(double seconds)
    {
        requestTimeoutSeconds_ = seconds;
    }

    /**
     * Retry schedule for infer() (core/retry.hh). Only failures
     * that provably did not execute are retried: Overloaded
     * responses and transient connect/send failures. The client
     * default is single-shot (maxAttempts 1); pass a policy to
     * opt in.
     */
    void setRetryPolicy(const RetryPolicy &policy)
    {
        retryPolicy_ = policy;
    }

    /** Reseed the backoff jitter stream (deterministic tests). */
    void setRetrySeed(uint64_t seed) { retryRng_ = Rng(seed); }

    /** Retries performed by infer() so far. */
    uint64_t retriesPerformed() const { return retries_; }

    /**
     * Attach a deadline budget (milliseconds) to subsequent
     * infer() requests; the frame then encodes as protocol
     * version 3 and the server sheds the request once the budget
     * expires. 0 (the default) sends no deadline.
     */
    void setDeadlineMs(uint32_t ms) { deadlineMs_ = ms; }

    /** Inject faults on this client's stream (core/fault.hh). */
    void setFaults(uint32_t mask) { faults_ = mask; }

    /** Close the connection. */
    void disconnect();

    /** True when connected. */
    bool connected() const { return fd_ >= 0; }

    /**
     * Run inference: send @p rows stacked inputs for @p model.
     *
     * @return the output rows, flattened (rows x output elements).
     */
    Result<std::vector<float>> infer(const std::string &model,
                                     int64_t rows,
                                     const std::vector<float> &data);

    /** Names of the models the server exposes. */
    Result<std::vector<std::string>> listModels();

    /** A served model's geometry, from a Describe request. */
    struct ModelInfo {
        int64_t channels = 0;
        int64_t height = 0;
        int64_t width = 0;
        int64_t outputs = 0;
        /**
         * The model's serving compute precision ("f32", "bf16",
         * "int8"). Servers predating the field omit it; it then
         * defaults to f32.
         */
        std::string precision = "f32";

        /** Floats per input row. */
        int64_t
        inputElems() const
        {
            return channels * height * width;
        }
    };

    /** Query a model's input geometry and output width. */
    Result<ModelInfo> describeModel(const std::string &model);

    /** One row of the server's per-model statistics. */
    struct ModelStats {
        std::string model;
        uint64_t requests = 0;
        uint64_t rows = 0;
        double meanServiceMs = 0.0;
    };

    /** Fetch the server's per-model service statistics. */
    Result<std::vector<ModelStats>> serverStats();

    /**
     * Fetch the server's full telemetry exposition.
     *
     * @param format "" or "prometheus" for the text exposition,
     *        "json" for JSON.
     * @return the raw exposition payload. The text form parses
     *         with telemetry::parseExposition().
     */
    Result<std::string> metricsExposition(
        const std::string &format = "");

    /** Round-trip liveness check. */
    Status ping();

    /**
     * Attach or detach trace propagation. When enabled, each
     * infer() mints a fresh TraceContext, sends it on the wire
     * (protocol version 2), and — when a tracer is attached via
     * setTracer() — records the client-side round-trip span.
     */
    void setTracing(bool enabled) { tracing_ = enabled; }

    /** True when infer() attaches trace contexts. */
    bool tracing() const { return tracing_; }

    /**
     * Span destination for client-side spans. In-process tests pass
     * the server's tracer so client and server spans share one
     * timeline. May be null; must outlive the client.
     */
    void setTracer(telemetry::Tracer *tracer) { tracer_ = tracer; }

    /** The trace context attached to the most recent infer(). */
    const telemetry::TraceContext &lastTrace() const
    {
        return lastTrace_;
    }

    /** Fetch the server's trace ring as Chrome trace-event JSON. */
    Result<std::string> traceJson() { return metricsExposition("trace"); }

    /**
     * Fetch the server's served requests from its flight recorder
     * (trace_id,model,rows,batch_rows,service_ms CSV).
     */
    Result<std::string> requestsCsv()
    {
        return metricsExposition("requests");
    }

  private:
    /**
     * One request/response exchange. A response with a non-Ok
     * wire status fails with the matching Status (statusOf). On
     * failure @p stage (when non-null) reports how far the exchange
     * got, for retry classification.
     */
    Result<Response> roundTrip(const Request &request,
                               FailureStage *stage = nullptr);

    /** One control-verb exchange: the reply message, or the
     * failure as roundTrip() maps it. */
    Result<std::string> control(RequestType type,
                                const std::string &model = "");

    /** One infer attempt; @p stage as for roundTrip(). */
    Result<std::vector<float>> inferOnce(const Request &request,
                                         FailureStage *stage);

    int fd_ = -1;
    bool tracing_ = false;
    telemetry::Tracer *tracer_ = nullptr;
    telemetry::TraceContext lastTrace_;

    std::string host_;
    uint16_t port_ = 0;
    double connectTimeoutSeconds_ = 0.0;
    double requestTimeoutSeconds_ = 0.0;
    uint32_t deadlineMs_ = 0;
    uint32_t faults_ = 0;
    /** Single-shot by default; setRetryPolicy() opts in. */
    RetryPolicy retryPolicy_{/*maxAttempts=*/1};
    Rng retryRng_{0x646a696e6eULL};
    uint64_t retries_ = 0;
};

} // namespace core
} // namespace djinn

#endif // DJINN_CORE_DJINN_CLIENT_HH
