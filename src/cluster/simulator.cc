#include "cluster/simulator.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>

#include "common/logging.hh"
#include "common/status.hh"
#include "gpu/gpu_model.hh"
#include "perf/layer_cost.hh"
#include "serve/simulation.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace djinn {
namespace cluster {

namespace {

/**
 * FNV-1a over the simulation's event stream. Every observable
 * transition (arrival, route verdict, completion, shed, retry)
 * feeds the hash, so two runs agree on the hash iff they agree on
 * the entire event sequence — the determinism guard's oracle.
 */
struct TraceHasher {
    uint64_t hash = 1469598103934665603ULL;

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (i * 8)) & 0xff;
            hash *= 1099511628211ULL;
        }
    }

    void
    f64(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
};

// Event tags fed to the hasher ahead of each record.
constexpr uint64_t TagArrival = 1;
constexpr uint64_t TagRoute = 2;
constexpr uint64_t TagComplete = 3;
constexpr uint64_t TagShedOverload = 4;
constexpr uint64_t TagShedDeadline = 5;
constexpr uint64_t TagRetry = 6;

/** Quantiles of a snapshot, in the shape the results carry. */
LatencySummary
summarize(const telemetry::HistogramSnapshot &snap)
{
    LatencySummary out;
    out.mean = snap.mean();
    out.p50 = snap.quantile(0.50);
    out.p95 = snap.quantile(0.95);
    out.p99 = snap.quantile(0.99);
    out.p999 = snap.quantile(0.999);
    return out;
}

double
calibratedBatchSeconds(serve::App app, int64_t queries,
                       const gpu::LinkSpec &link)
{
    // The link enters the key by its timing-relevant parameters,
    // not its name, so equivalent links share cache entries.
    using Key = std::tuple<int, int64_t, double, double>;
    static std::mutex mutex;
    static std::map<Key, double> cache;

    Key key{static_cast<int>(app), queries,
            link.effectiveBandwidth(), link.perTransferLatency};
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }

    // The single-server defaults: K40-class GPU, 2us + 0.1ns/byte
    // host preparation.
    serve::SimConfig defaults;
    const serve::AppSpec &spec = serve::appSpec(app);
    const nn::Network &net = serve::sharedNetwork(spec.model);
    perf::NetCost cost =
        perf::analyzeNetwork(net, queries * spec.samplesPerQuery);
    gpu::ForwardProfile profile =
        gpu::profileForward(cost, defaults.gpuSpec);

    double q = static_cast<double>(queries);
    double host_prep =
        q * (defaults.hostPrepFixed +
             spec.inputBytes * defaults.hostPrepPerByte);
    double transfers = link.transferTime(q * spec.inputBytes) +
                       link.transferTime(q * spec.outputBytes);
    double total = host_prep + transfers + profile.totalTime;

    std::lock_guard<std::mutex> lock(mutex);
    cache.emplace(key, total);
    return total;
}

/** Per-application accounting; owns a non-movable histogram, so
 * instances live in a std::map (stable node addresses). */
struct PerApp {
    explicit PerApp(const telemetry::HistogramOptions &options)
        : latency(options)
    {}

    uint64_t offered = 0;
    uint64_t completed = 0;
    telemetry::LogHistogram latency;
};

void
checkConfig(const ClusterConfig &config, const ClusterTrace &trace)
{
    if (config.nodeCount <= 0)
        fatal("runClusterSim: nodeCount must be positive");
    if (!config.speedFactors.empty() &&
        static_cast<int>(config.speedFactors.size()) !=
            config.nodeCount) {
        fatal("runClusterSim: speedFactors must be empty or have "
              "nodeCount entries");
    }
    if (config.retry.maxAttempts < 1)
        fatal("runClusterSim: retry.maxAttempts must be >= 1");
    for (size_t i = 1; i < trace.size(); ++i) {
        if (trace[i].arrival < trace[i - 1].arrival)
            fatal("runClusterSim: trace arrivals must be sorted");
    }
}

} // namespace

ServiceModel
calibratedServiceModel()
{
    return calibratedServiceModel(serve::SimConfig().hostLink);
}

ServiceModel
calibratedServiceModel(const gpu::LinkSpec &hostLink)
{
    return [hostLink](serve::App app, int64_t queries) {
        return calibratedBatchSeconds(app, queries, hostLink);
    };
}

ClusterResult
runClusterSim(const ClusterConfig &config, const ClusterTrace &trace)
{
    checkConfig(config, trace);

    sim::EventQueue eq;
    ServiceModel service = config.serviceModel
                               ? config.serviceModel
                               : calibratedServiceModel();

    ClusterResult result;
    result.offered = trace.size();
    result.traceDuration =
        trace.empty() ? 0.0 : trace.back().arrival;

    TraceHasher hasher;
    // The latency histogram carries per-bucket exemplars resolving
    // into the flight recorder, exactly like the live server's
    // djinn_request_seconds.
    telemetry::HistogramOptions latency_options =
        sim::latencyHistogramOptions();
    latency_options.exemplars = true;
    telemetry::LogHistogram latency(latency_options);
    // The server's recorder sizing, transplanted into virtual time.
    telemetry::FlightRecorder recorder;
    std::map<serve::App, PerApp> per_app;
    std::vector<serve::App> app_order;

    auto appStats = [&](serve::App app) -> PerApp & {
        auto [it, inserted] =
            per_app.try_emplace(app, sim::latencyHistogramOptions());
        if (inserted)
            app_order.push_back(app);
        return it->second;
    };

    // Seed a flight record with what the front end knows; node-side
    // fields land at completion. trace_id is the 1-based trace
    // index (0 means "untraced" in the record schema).
    auto flightBase = [&](const ClusterNode::Request &request) {
        telemetry::FlightRecord flight;
        flight.traceId = request.id + 1;
        flight.timestampUs =
            static_cast<int64_t>(std::llround(eq.now() * 1e6));
        flight.setModel(serve::appName(request.app));
        flight.totalSeconds = eq.now() - request.firstArrival;
        flight.rows = 1;
        flight.retries = request.attempt;
        flight.admitQueueDepth =
            static_cast<int32_t>(request.admitDepth);
        return flight;
    };

    // Completion / deadline-shed plumbing shared by all nodes.
    uint64_t batch_queries_total = 0;
    auto onComplete = [&](const ClusterNode::Request &request,
                          const ClusterNode::Served &served) {
        double sojourn = eq.now() - request.firstArrival;
        ++result.completed;
        telemetry::FlightRecord flight = flightBase(request);
        flight.queueWaitSeconds =
            served.dispatchTime - request.admitTime;
        flight.forwardSeconds = served.serviceSeconds;
        flight.retryWaitSeconds =
            request.admitTime - request.firstArrival;
        flight.batchQueries =
            static_cast<int32_t>(served.batchQueries);
        flight.batchRows = static_cast<int32_t>(served.batchQueries);
        flight.batchPosition =
            static_cast<int32_t>(served.batchPosition);
        uint64_t record_ref = recorder.record(flight);
        latency.record(sojourn, flight.traceId, record_ref);
        PerApp &stats = appStats(request.app);
        ++stats.completed;
        stats.latency.record(sojourn);
        hasher.u64(TagComplete);
        hasher.u64(request.id);
        hasher.f64(eq.now());
    };
    auto onDeadlineShed = [&](const ClusterNode::Request &request) {
        ++result.shedDeadline;
        ++result.lost;
        telemetry::FlightRecord flight = flightBase(request);
        flight.outcome = telemetry::FlightOutcome::ShedDeadline;
        flight.queueWaitSeconds = eq.now() - request.admitTime;
        flight.retryWaitSeconds =
            request.admitTime - request.firstArrival;
        recorder.record(flight);
        hasher.u64(TagShedDeadline);
        hasher.u64(request.id);
        hasher.f64(eq.now());
    };

    std::vector<std::unique_ptr<ClusterNode>> nodes;
    nodes.reserve(config.nodeCount);
    for (int i = 0; i < config.nodeCount; ++i) {
        NodeSpec spec = config.node;
        if (!config.speedFactors.empty())
            spec.speedFactor = config.speedFactors[i];
        nodes.push_back(std::make_unique<ClusterNode>(
            eq, i, spec, service, onComplete, onDeadlineShed));
    }

    std::unique_ptr<Router> router = makeRouter(config.policy);
    Rng root(config.seed);
    Rng route_rng = root.split(1);
    Rng retry_rng = root.split(2);

    // Submit one request attempt: route it, enqueue it, and retry
    // Overloaded sheds on the core/retry schedule. `attempt` is 0
    // for the first try.
    std::function<void(const ClusterNode::Request &, int)> submit =
        [&](const ClusterNode::Request &request, int attempt) {
            double slack =
                request.deadline >= 1e300
                    ? std::numeric_limits<double>::infinity()
                    : request.deadline - eq.now();

            std::vector<NodeView> views;
            views.reserve(nodes.size());
            for (const auto &node : nodes)
                views.push_back(node->view());

            int pick = router->route(views, slack, route_rng);
            hasher.u64(TagRoute);
            hasher.u64(request.id);
            hasher.u64(static_cast<uint64_t>(
                static_cast<int64_t>(pick)));

            bool admitted = false;
            if (pick >= 0)
                admitted = nodes[pick]->enqueue(request);

            if (pick == RouteShedDeadline) {
                // A deadline shed is an explicit non-execution but
                // retrying it is pointless; never retried
                // (core::retryableFailure on DeadlineExceeded).
                ++result.shedDeadline;
                ++result.lost;
                telemetry::FlightRecord flight =
                    flightBase(request);
                flight.outcome =
                    telemetry::FlightOutcome::ShedDeadline;
                flight.retryWaitSeconds =
                    eq.now() - request.firstArrival;
                recorder.record(flight);
                hasher.u64(TagShedDeadline);
                hasher.u64(request.id);
                hasher.f64(eq.now());
                return;
            }
            if (admitted)
                return;

            // Overloaded: the server explicitly did not execute
            // the request, so the retry classifier allows a
            // backed-off resubmission.
            ++result.shedOverload;
            hasher.u64(TagShedOverload);
            hasher.u64(request.id);
            hasher.f64(eq.now());

            bool retryable =
                config.retryShedRequests &&
                core::retryableFailure(
                    Status::overloaded("queue full"),
                    core::FailureStage::Receive) &&
                attempt + 1 < config.retry.maxAttempts;
            if (!retryable) {
                ++result.lost;
                telemetry::FlightRecord flight =
                    flightBase(request);
                flight.outcome =
                    telemetry::FlightOutcome::ShedQueueFull;
                flight.retryWaitSeconds =
                    eq.now() - request.firstArrival;
                recorder.record(flight);
                return;
            }

            double backoff = core::retryBackoffSeconds(
                config.retry, attempt, retry_rng);
            ++result.retries;
            hasher.u64(TagRetry);
            hasher.u64(request.id);
            hasher.f64(backoff);
            ClusterNode::Request again = request;
            again.attempt = attempt + 1;
            eq.scheduleAfter(backoff, [&submit, again, attempt]() {
                submit(again, attempt + 1);
            });
        };

    // Lazy arrival scheduling: only the next trace arrival is ever
    // live in the event heap, so million-request traces cost O(1)
    // heap space for the generator.
    size_t cursor = 0;
    std::function<void()> arrive = [&]() {
        const TraceRequest &tr = trace[cursor];
        ClusterNode::Request request;
        request.id = static_cast<uint64_t>(cursor);
        request.app = tr.app;
        request.firstArrival = tr.arrival;
        if (config.deadlineSeconds > 0.0)
            request.deadline = tr.arrival + config.deadlineSeconds;

        hasher.u64(TagArrival);
        hasher.u64(request.id);
        hasher.f64(tr.arrival);
        ++appStats(request.app).offered;

        ++cursor;
        if (cursor < trace.size()) {
            eq.scheduleAt(trace[cursor].arrival,
                          [&arrive]() { arrive(); });
        }
        submit(request, 0);
    };
    if (!trace.empty())
        eq.scheduleAt(trace.front().arrival,
                      [&arrive]() { arrive(); });

    // Fixed-interval sampling while arrivals are still flowing.
    std::vector<TimeSample> series;
    double sample_depth_sum = 0.0;
    uint64_t sample_count = 0;
    std::function<void()> sample = [&]() {
        TimeSample s;
        s.t = eq.now();
        for (const auto &node : nodes) {
            s.queuedQueries += node->queuedQueries();
            s.inService += node->inService();
        }
        s.completed = result.completed;
        s.shed = result.shedOverload + result.shedDeadline;
        series.push_back(s);
        sample_depth_sum += static_cast<double>(s.queuedQueries);
        ++sample_count;
        if (eq.now() < result.traceDuration) {
            eq.scheduleAfter(config.sampleInterval,
                             [&sample]() { sample(); });
        }
    };
    if (config.sampleInterval > 0.0 && !trace.empty())
        eq.scheduleAfter(config.sampleInterval,
                         [&sample]() { sample(); });

    // Run to completion: all arrivals, retries, timers, and batch
    // completions drain before the queue empties.
    eq.run();

    result.duration = eq.now();
    result.eventsFired = eq.firedCount();
    result.offeredQps =
        result.traceDuration > 0.0
            ? static_cast<double>(result.offered) /
                  result.traceDuration
            : 0.0;
    result.throughputQps =
        result.duration > 0.0
            ? static_cast<double>(result.completed) / result.duration
            : 0.0;

    double busy = 0.0;
    int total_gpus = 0;
    for (const auto &node : nodes) {
        busy += node->busySeconds();
        total_gpus += config.node.gpus;
        result.batches += node->batchesDispatched();
        batch_queries_total += node->queriesDispatched();
        result.maxNodeQueueDepth = std::max(
            result.maxNodeQueueDepth, node->maxQueuedQueries());
    }
    result.occupancy =
        result.duration > 0.0
            ? busy / (result.duration *
                      static_cast<double>(total_gpus))
            : 0.0;
    result.meanBatchQueries =
        result.batches > 0
            ? static_cast<double>(batch_queries_total) /
                  static_cast<double>(result.batches)
            : 0.0;
    result.meanQueueDepth =
        sample_count > 0
            ? sample_depth_sum / static_cast<double>(sample_count)
            : 0.0;

    result.latencyHistogram = latency.snapshot();
    result.latency = summarize(result.latencyHistogram);
    result.flightRecords = recorder.snapshot();
    result.series = std::move(series);

    for (serve::App app : app_order) {
        const PerApp &stats = per_app.at(app);
        AppClusterStats out;
        out.app = app;
        out.offered = stats.offered;
        out.completed = stats.completed;
        out.throughputQps =
            result.duration > 0.0
                ? static_cast<double>(stats.completed) /
                      result.duration
                : 0.0;
        out.latency = summarize(stats.latency.snapshot());
        result.apps.push_back(out);
    }

    // Fold the summary counters into the hash so a run that somehow
    // diverged only in accounting still fails the guard.
    hasher.u64(result.completed);
    hasher.u64(result.shedOverload);
    hasher.u64(result.shedDeadline);
    hasher.u64(result.lost);
    hasher.u64(result.retries);
    hasher.f64(result.duration);
    result.traceHash = hasher.hash;
    return result;
}

} // namespace cluster
} // namespace djinn
