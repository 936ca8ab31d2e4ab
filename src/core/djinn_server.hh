/**
 * @file
 * The DjiNN server (paper Section 3.1): a standalone DNN service
 * accepting framed requests over TCP/IP. At initialization it loads
 * every configured model into memory once; each accepted connection
 * is served by a worker thread with read-only access to the shared
 * models. Optionally, concurrent queries to the same model are
 * batched into combined forward passes.
 */

#ifndef DJINN_CORE_DJINN_SERVER_HH
#define DJINN_CORE_DJINN_SERVER_HH

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hh"
#include "core/batcher.hh"
#include "core/debug_routes.hh"
#include "core/model_registry.hh"
#include "core/protocol.hh"
#include "serve/scheduler.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/health.hh"
#include "telemetry/metrics.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/trace.hh"
#include "telemetry/tracer.hh"

namespace djinn {
namespace core {

class HttpEndpoint;

/** DjiNN server configuration. */
struct ServerConfig {
    /** TCP port to bind; 0 picks an ephemeral port. */
    uint16_t port = 0;

    /** Bind address; defaults to loopback. */
    std::string bindAddress = "127.0.0.1";

    /**
     * Enable cross-request batching per model (Section 5.1). Off,
     * each request runs as a batch of one on its connection's
     * worker thread (BatchingExecutor::run).
     */
    bool batching = false;

    /** Batching policy when enabled. */
    BatchOptions batchOptions;

    /**
     * Per-connection frame I/O timeout, seconds (`djinnd
     * --io-timeout-ms`). Once a peer starts sending a frame it
     * must deliver the whole thing within this budget, and a
     * response write must complete within it; expiry drops the
     * connection and counts in `djinn_io_timeouts_total`. An idle
     * connection between requests is unaffected. <= 0 disables
     * (reads/writes may then block forever — the pre-robustness
     * behaviour).
     */
    double ioTimeoutSeconds = 10.0;

    /**
     * Graceful-drain budget for stop(), seconds (`djinnd
     * --drain-timeout-ms`): how long stop() waits for in-flight
     * requests to finish (and their responses to flush) before
     * cutting connections. Requests arriving during the drain are
     * rejected with an Overloaded status. <= 0 skips the drain
     * phase and cuts connections immediately.
     */
    double drainTimeoutSeconds = 5.0;

    /**
     * Fault-injection spec applied to every connection's server
     * side (core/fault.hh; `djinnd --fault` / DJINN_FAULT). Empty
     * disables. Test/drill use only.
     */
    std::string faultSpec;

    /**
     * Intra-layer compute pool size applied at start() (the
     * `djinnd --compute-threads` flag). 0 keeps the automatic
     * choice: the DJINN_COMPUTE_THREADS environment variable if
     * set, otherwise the hardware concurrency. Exported as the
     * `djinn_compute_threads` gauge.
     */
    int computeThreads = 0;

    /**
     * Record spans for sampled requests into the in-memory trace
     * ring (DESIGN.md "End-to-end tracing").
     */
    bool tracing = true;

    /**
     * HTTP scrape port (/healthz, /metrics, /trace). Negative
     * disables the endpoint; 0 picks an ephemeral port.
     */
    int32_t httpPort = -1;

    /**
     * Background sampler period in seconds: each tick refreshes the
     * derived gauges (pool busy, queue depth, process RSS, SLO burn
     * rates), steps the adaptive scheduler, and appends one
     * time-series slot, whose gauges the trace renders as counter
     * tracks. Non-positive disables the sampler and the store; they
     * also only run when tracing is on.
     */
    double samplerPeriod = 0.25;

    /**
     * Default per-model latency SLO target, seconds
     * (`djinnd --slo-ms`). Non-positive disables SLO tracking.
     */
    double sloTargetSeconds = 0.050;

    /**
     * Adaptive scheduling (`djinnd --sched adaptive`): size each
     * model's dispatch batch from its observed arrival rate and
     * SLO, and fair-share the compute pool across tenants. Only
     * meaningful with batching on. Off keeps the paper's static
     * tuned-batch policy. The scheduler runs the default
     * serve::SchedulerOptions, with its batch cap taken from
     * batchOptions and its SLO from sloTargetSeconds.
     */
    bool adaptiveScheduling = false;

    /**
     * Tenant weights (`djinnd --tenant NAME=MODEL[:WEIGHT]`): maps
     * each tenant name to its fair-share weight. Model-to-tenant
     * bindings ride in tenantModels.
     */
    std::map<std::string, double> tenantWeights;

    /** Model name -> tenant name bindings for fair sharing. */
    std::map<std::string, std::string> tenantModels;

    /**
     * Declared per-model serving precisions (`djinnd --precision
     * <model>=int8|bf16|f32`). The registry's networks are lowered
     * when they are built; this map is the deployment's declared
     * intent, validated against the registry at start() — a model
     * listed here that is missing or was built at a different
     * precision fails startup instead of silently serving the
     * wrong numerics. Every registered model's actual precision is
     * exported as the `djinn_model_precision` gauge regardless.
     */
    std::map<std::string, nn::Precision> modelPrecisions;
};

/** Cap on input rows accepted in a single request. */
inline constexpr int64_t kMaxRowsPerRequest = 4096;

/**
 * The model label of the per-request series of every inference
 * request naming a model the registry does not hold: one series
 * set for all of them, however many names clients send.
 */
inline constexpr const char *kUnknownModelLabel = "(unknown)";

/**
 * The DjiNN service. Owns the listening socket, the acceptor
 * thread, and the per-connection worker threads.
 */
class DjinnServer
{
  public:
    /**
     * @param registry models to serve; must outlive the server.
     * @param config server options.
     */
    DjinnServer(const ModelRegistry &registry,
                const ServerConfig &config);

    /** Stops the server if still running. */
    ~DjinnServer();

    DjinnServer(const DjinnServer &) = delete;
    DjinnServer &operator=(const DjinnServer &) = delete;

    /** Bind, listen, and start accepting connections. */
    Status start();

    /**
     * Stop the server: stop accepting, drain in-flight requests
     * (bounded by ServerConfig::drainTimeoutSeconds; new requests
     * are rejected with Overloaded while draining), then close
     * connections and join all threads.
     */
    void stop();

    /** The bound TCP port (valid after start()). */
    uint16_t port() const { return listener_.port(); }

    /** True while the server is accepting connections. */
    bool running() const { return listener_.running(); }

    /** Total inference requests served: the sum of the request
     * logs' `djinn_requests_total` counters. */
    uint64_t requestsServed() const;

    /** Connections accepted so far. */
    uint64_t connectionsAccepted() const { return accepted_.load(); }

    /**
     * Live connection registry size: connections being served
     * plus finished workers not yet reaped (the acceptor reaps on
     * every accept, so this stays bounded under connection churn
     * instead of growing by one thread per connection ever
     * accepted).
     */
    size_t workerCount() const;

    /** Requests currently being processed (frame read, response
     * not yet written). Drained by stop(). */
    int64_t inflight() const { return inflight_.load(); }

    /** True while stop() is draining in-flight requests. */
    bool draining() const { return draining_.load(); }

    /**
     * Per-model service counters: a view over each request log's
     * own instruments (the `djinn_requests_total` /
     * `djinn_rows_total` counters and the
     * `djinn_phase_seconds{phase="service"}` histogram), read
     * without a registry snapshot.
     */
    struct ModelStats {
        std::string model;
        uint64_t requests = 0;
        uint64_t rows = 0;
        double serviceSeconds = 0.0;

        /** Service-time percentiles, milliseconds. */
        double p50ServiceMs = 0.0;
        double p95ServiceMs = 0.0;
        double p99ServiceMs = 0.0;
    };

    /**
     * Snapshot of the per-model counters, sorted by model name.
     * Models appear once they have served a successful request.
     */
    std::vector<ModelStats> stats() const;

    /**
     * The server's telemetry registry: request counters, phase
     * (decode / queue_wait / forward / encode / service)
     * histograms, batching instruments. See DESIGN.md "Telemetry".
     */
    telemetry::MetricRegistry &metrics() { return metrics_; }
    const telemetry::MetricRegistry &metrics() const
    {
        return metrics_;
    }

    /**
     * The server's span ring: the request and phase spans the
     * request logs derive from each sampled request's flight
     * record, plus the executor's forward and per-layer spans. It
     * holds spans only; the Metrics wire verb ("trace" format) and
     * GET /trace render the time-series store's gauges beside them
     * as counter tracks.
     */
    telemetry::Tracer &tracer() { return tracer_; }
    const telemetry::Tracer &tracer() const { return tracer_; }

    /**
     * The adaptive batching / fair-share policy engine; null
     * unless ServerConfig::adaptiveScheduling (and batching) is
     * on. Drives the batcher's per-model dispatch targets and the
     * tenant dispatch gate; its state backs the `sched` Metrics
     * verb and the djinn_sched_* gauges.
     */
    serve::AdaptiveScheduler *scheduler()
    {
        return scheduler_.get();
    }
    const serve::AdaptiveScheduler *scheduler() const
    {
        return scheduler_.get();
    }

    /** Bound HTTP scrape port; 0 when the endpoint is disabled. */
    uint16_t httpPort() const;

    /**
     * The always-on per-request flight recorder: phase breakdowns,
     * batch context, and outcomes for every inference request, with
     * tail-biased retention. Queried by /debug/tail, /debug/flight,
     * and the `tail` Metrics-verb format.
     */
    telemetry::FlightRecorder &flightRecorder()
    {
        return flightRecorder_;
    }
    const telemetry::FlightRecorder &flightRecorder() const
    {
        return flightRecorder_;
    }

    /**
     * The continuous time-series store over the registry, fed by
     * the background sampler; null when tracing or the sampler is
     * disabled. Stays queryable after stop() so post-mortem reads
     * of the final history work.
     */
    const telemetry::TimeSeriesStore *timeSeries() const
    {
        return timeseries_.get();
    }

    /**
     * The health watchdog over the store; null when the store is.
     * Its verdict backs /healthz and the `health` Metrics verb.
     */
    const telemetry::HealthMonitor *health() const
    {
        return health_.get();
    }

  private:
    /** One accepted connection and its worker thread. */
    struct Connection {
        /** Open until the worker's last act closes it (under
         * connectionsMutex_) and sets -1. */
        int fd = -1;
        std::thread thread;
    };

    /** Take over one accepted connection: reap finished workers,
     * register it, and start its worker. Runs on the listener's
     * acceptor. */
    void acceptConnection(int fd);
    void serveConnection(Connection &conn);

    /** The debug-route table over this server's current sources
     * (the store and monitor are rebuilt by every start()). */
    DebugRoutes debugRoutes();

    /** @p model's request log: the one built for a model
     * registered at construction, the shared unknownLog_ for a
     * name the registry does not hold, else (a model added since)
     * its entry in addedLogs_, made by its first request. */
    telemetry::RequestLog &requestLog(const std::string &model);

    /** Every model's request log by name, the ones in addedLogs_
     * included. */
    std::map<std::string, const telemetry::RequestLog *>
    modelLogs() const;

    /** The request logs' span destination; null with tracing
     * off. */
    telemetry::Tracer *spanTracer()
    {
        return config_.tracing ? &tracer_ : nullptr;
    }

    /** Serve one decoded control verb (any type but Inference). */
    Response handleRequest(const Request &request);

    /**
     * Serve one inference request, filling in @p record the
     * phases, batch context and service span the executor
     * reports, and in @p work the worker's blocked span on the
     * batching queue. The payload is moved into the executor;
     * @p server_span (0 untraced) parents its batch spans.
     */
    Response handleInference(Request &request, uint64_t server_span,
                             BatchingExecutor::Deadline deadline,
                             telemetry::FlightRecord &record,
                             telemetry::RequestWork &work);

    const ModelRegistry &registry_;
    ServerConfig config_;
    telemetry::MetricRegistry metrics_;

    /** One request log per model registered at construction;
     * never modified after, so workers read it without a lock. */
    std::map<std::string, std::unique_ptr<telemetry::RequestLog>>
        requestLogs_;

    /** The request logs of models added to the registry after
     * construction (bounded by the registry), under addedMutex_. */
    mutable std::mutex addedMutex_;
    std::map<std::string, std::unique_ptr<telemetry::RequestLog>>
        addedLogs_;

    telemetry::Tracer tracer_;
    telemetry::FlightRecorder flightRecorder_;

    /** The one request log of every name the registry does not
     * hold, labelled model=kUnknownModelLabel. */
    telemetry::RequestLog unknownLog_;

    /** Serves both modes: batching submits to its per-model
     * queues, unbatched requests run() a batch of one. */
    BatchingExecutor batcher_;
    std::unique_ptr<serve::AdaptiveScheduler> scheduler_;
    std::unique_ptr<telemetry::TimeSeriesStore> timeseries_;
    std::unique_ptr<telemetry::HealthMonitor> health_;
    std::unique_ptr<telemetry::BackgroundSampler> sampler_;
    std::unique_ptr<HttpEndpoint> http_;
    double startTraceSeconds_ = -1.0;

    /** Parsed ServerConfig::faultSpec (core/fault.hh bitmask). */
    uint32_t faultMask_ = 0;

    /** Its running state is the server's: workers serve while it
     * accepts. */
    TcpListener listener_;
    std::atomic<bool> draining_{false};
    std::atomic<int64_t> inflight_{0};

    // Live (and not yet reaped) connections. acceptConnection()
    // registers each one *before* its worker runs, so stop() can
    // always shut the socket down: no fd is ever in flight but
    // untracked. A list, so a worker's Connection stays put.
    mutable std::mutex connectionsMutex_;
    std::list<Connection> connections_;
    std::atomic<uint64_t> accepted_{0};
};

} // namespace core
} // namespace djinn

#endif // DJINN_CORE_DJINN_SERVER_HH
