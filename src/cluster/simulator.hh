/**
 * @file
 * The cluster-scale discrete-event serving simulator: N server
 * nodes (cluster/node) behind a pluggable front-end router
 * (cluster/policy), driven by a synthetic trace
 * (cluster/workload). Service times come from the calibrated
 * GPU/CPU timing models (src/perf + src/gpu) unless a test injects
 * its own model; shed requests are retried with the core/retry
 * backoff policy exactly when core::retryableFailure says a retry
 * is safe. Latency percentiles are recorded in the telemetry
 * log-bucketed histogram — the same percentile codepath the live
 * server exports — and queue depth / occupancy / shed-rate time
 * series are sampled on a fixed interval.
 *
 * Determinism guarantee: no wall clock, no unseeded randomness.
 * The same (config, trace) pair produces a bit-identical event
 * sequence, summary statistics, and trace hash on every run.
 */

#ifndef DJINN_CLUSTER_SIMULATOR_HH
#define DJINN_CLUSTER_SIMULATOR_HH

#include <cstdint>
#include <vector>

#include "cluster/node.hh"
#include "cluster/policy.hh"
#include "cluster/workload.hh"
#include "core/retry.hh"
#include "gpu/link.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/histogram.hh"

namespace djinn {
namespace cluster {

/** Configuration of one cluster experiment. */
struct ClusterConfig {
    /** Server nodes behind the front end. */
    int nodeCount = 16;

    /** Shape shared by every node. */
    NodeSpec node;

    /**
     * Optional per-node speed overrides (asymmetric clusters);
     * empty keeps node.speedFactor everywhere, otherwise must have
     * nodeCount entries.
     */
    std::vector<double> speedFactors;

    /** Front-end routing policy. */
    RoutePolicy policy = RoutePolicy::RoundRobin;

    /**
     * Relative deadline attached to every request, seconds;
     * <= 0 disables deadlines. Expired queries are shed at batch
     * dequeue (and at the front end under deadline-aware
     * policies).
     */
    double deadlineSeconds = 0.0;

    /**
     * Whether Overloaded sheds are retried from the client side.
     * Deadline sheds are never retried (core::retryableFailure).
     */
    bool retryShedRequests = true;

    /** Client retry schedule (core/retry). */
    core::RetryPolicy retry;

    /** Time-series sampling interval, seconds; <= 0 disables. */
    double sampleInterval = 0.25;

    /**
     * Service-time model; empty uses calibratedServiceModel()
     * (K40 timing + default host link).
     */
    ServiceModel serviceModel;

    /** Seed for routing and retry-jitter streams. */
    uint64_t seed = 1;
};

/** One point of the sampled time series. */
struct TimeSample {
    double t = 0.0;               ///< sample time, seconds
    int64_t queuedQueries = 0;    ///< queued across all nodes
    int64_t inService = 0;        ///< executing across all nodes
    uint64_t completed = 0;       ///< cumulative completions
    uint64_t shed = 0;            ///< cumulative sheds (all kinds)
};

/** Latency summary extracted from one histogram. */
struct LatencySummary {
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
};

/** Per-application results. */
struct AppClusterStats {
    serve::App app = serve::App::IMC;
    uint64_t offered = 0;
    uint64_t completed = 0;
    double throughputQps = 0.0;
    LatencySummary latency;
};

/** Results of one cluster experiment. */
struct ClusterResult {
    /** Requests in the trace. */
    uint64_t offered = 0;

    /** Requests served to completion. */
    uint64_t completed = 0;

    /** Overloaded shed events (front end + node admission);
     * retried attempts count once per shed. */
    uint64_t shedOverload = 0;

    /** Deadline shed events (front-end infeasibility + dequeue
     * drops). */
    uint64_t shedDeadline = 0;

    /** Requests never served (retries exhausted or deadline). */
    uint64_t lost = 0;

    /** Client retry attempts scheduled. */
    uint64_t retries = 0;

    /** Batches dispatched across all nodes. */
    uint64_t batches = 0;

    /** Mean queries per dispatched batch. */
    double meanBatchQueries = 0.0;

    /** Last trace arrival, seconds. */
    double traceDuration = 0.0;

    /** Simulated time when the cluster drained, seconds. */
    double duration = 0.0;

    /** offered / traceDuration. */
    double offeredQps = 0.0;

    /** completed / duration. */
    double throughputQps = 0.0;

    /** Busy GPU-seconds over duration x total GPUs. */
    double occupancy = 0.0;

    /** Mean of sampled total queue depth (0 without sampling). */
    double meanQueueDepth = 0.0;

    /** Largest queued-query count on any single node. */
    int64_t maxNodeQueueDepth = 0;

    /** End-to-end latency (first arrival to completion),
     * log-bucketed, with per-bucket exemplars whose `record` refs
     * index into flightRecords by seq. */
    telemetry::HistogramSnapshot latencyHistogram;

    /**
     * Per-request flight records (ring + tail reservoir at drain
     * time): the same schema the live server writes, assembled from
     * virtual time — queue wait, forward, retry inflation, batch
     * context, admission depth, and shed outcomes. Feed to
     * telemetry::attributeTail to explain this run's p99.
     * Deterministic for a fixed (config, trace).
     */
    std::vector<telemetry::FlightRecord> flightRecords;

    /** Quantiles of latencyHistogram. */
    LatencySummary latency;

    /** Per-application breakdown, in first-offered order. */
    std::vector<AppClusterStats> apps;

    /** Sampled time series (empty when sampling is disabled). */
    std::vector<TimeSample> series;

    /** Events the simulation fired. */
    uint64_t eventsFired = 0;

    /** FNV-1a hash over the full event sequence; equal seeds and
     * configs yield equal hashes (the determinism guard). */
    uint64_t traceHash = 0;

    /** Fraction of offered requests never served. */
    double
    lostFraction() const
    {
        return offered ? static_cast<double>(lost) /
                             static_cast<double>(offered)
                       : 0.0;
    }
};

/** Run one cluster experiment over a trace. */
ClusterResult runClusterSim(const ClusterConfig &config,
                            const ClusterTrace &trace);

/**
 * The calibrated service model: per-query host preparation, host
 * link transfers in and out, and the batched GPU forward pass from
 * gpu::profileForward — the same timing stack behind the paper's
 * single-server figures, collapsed into one batch service time.
 * Results are cached per (app, batch queries, link); the returned
 * callable is cheap to copy and deterministic. The no-argument
 * form uses the single-server default host link (2x PCIe v3).
 */
ServiceModel calibratedServiceModel();

/** Calibrated service model over a specific host interconnect
 * (the WSC tail-capacity probes pass the chassis link here). */
ServiceModel calibratedServiceModel(const gpu::LinkSpec &hostLink);

} // namespace cluster
} // namespace djinn

#endif // DJINN_CLUSTER_SIMULATOR_HH
