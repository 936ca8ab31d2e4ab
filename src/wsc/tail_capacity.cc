#include "wsc/tail_capacity.hh"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <mutex>
#include <string>

#include "cluster/simulator.hh"
#include "cluster/workload.hh"
#include "common/logging.hh"
#include "wsc/capacity.hh"

namespace djinn {
namespace wsc {

namespace {

/** Requests per probe are capped so high-rate apps keep probes in
 * the tens of milliseconds; the load level is what matters, not the
 * trace length. */
constexpr uint64_t ProbeMaxRequests = 150000;

/** One probe: does @p app at @p perServerQps meet the SLO? The
 * host link is already folded into @p service. */
bool
probeFeasible(serve::App app, double perServerQps, double slo,
              int gpu_count, const TailCapacityConfig &config,
              const cluster::ServiceModel &service)
{
    cluster::WorkloadSpec workload;
    workload.apps = {app};
    workload.process = config.process;
    workload.meanRate = perServerQps * config.probeNodes;
    workload.durationSeconds = config.simSeconds;
    workload.maxRequests = ProbeMaxRequests;
    workload.burstMultiplier = config.burstMultiplier;
    workload.burstFraction = config.burstFraction;
    // A probe window should see several burst cycles, or one
    // unlucky dwell draw decides the verdict.
    workload.burstCycleSeconds =
        std::min(2.0, 0.25 * config.simSeconds);
    workload.seed = config.seed;
    cluster::ClusterTrace trace =
        cluster::generateTrace(workload);

    cluster::ClusterConfig cc;
    cc.nodeCount = config.probeNodes;
    cc.node.gpus = gpu_count;
    cc.policy = config.policy;
    // The probe must observe the tail, not clip it: queues are
    // effectively unbounded and no per-request deadline sheds slow
    // requests, so every queueing delay the offered load causes
    // lands in the latency histogram and the measured p99 is an
    // honest function of utilization. Near saturation the queue
    // random-walks upward and p99 blows through any finite SLO,
    // which is exactly the signal the binary search needs.
    cc.node.queueLimit = std::numeric_limits<int64_t>::max() / 2;
    cc.deadlineSeconds = 0.0;
    cc.retryShedRequests = false;
    cc.sampleInterval = 0.0;  // probes only need the summary
    cc.serviceModel = service;
    cc.seed = config.seed;

    cluster::ClusterResult result =
        cluster::runClusterSim(cc, trace);
    if (result.completed == 0)
        return false;
    return result.latency.p99 <= slo &&
           result.lostFraction() <= config.maxShedFraction;
}

} // namespace

double
tailSloSeconds(serve::App app, const gpu::LinkSpec &link,
               const TailCapacityConfig &config)
{
    cluster::ServiceModel service =
        cluster::calibratedServiceModel(link);
    int64_t batch = serve::appSpec(app).tunedBatch;
    return config.sloMultiplier * service(app, batch);
}

double
tailAwareServerQps(serve::App app, const gpu::LinkSpec &host_link,
                   int gpu_count, const TailCapacityConfig &config)
{
    if (config.probeNodes <= 0 || config.simSeconds <= 0.0 ||
        config.searchIterations <= 0) {
        fatal("tailAwareServerQps: probeNodes, simSeconds and "
              "searchIterations must be positive");
    }

    static std::mutex mutex;
    static std::map<std::string, double> cache;

    char key[256];
    std::snprintf(key, sizeof(key),
                  "%s|%.6g|%.6g|%d|%.4g|%.4g|%s|%s|%.4g|%.4g|%d|"
                  "%.4g|%d|%llu",
                  serve::appName(app),
                  host_link.effectiveBandwidth(),
                  host_link.perTransferLatency, gpu_count,
                  config.sloMultiplier, config.maxShedFraction,
                  cluster::routePolicyName(config.policy),
                  cluster::arrivalProcessName(config.process),
                  config.burstMultiplier, config.burstFraction,
                  config.probeNodes, config.simSeconds,
                  config.searchIterations,
                  static_cast<unsigned long long>(config.seed));
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
    }

    // The probe's service model is anchored to the mean-throughput
    // oracle: each of the server's gpu_count executors serves
    // queries at serverQps / gpu_count, so the probe cluster
    // saturates at exactly the closed-form capacity (including the
    // intra-server link contention the serving simulator measures)
    // and the binary search isolates pure queueing headroom — how
    // far below saturation the server must run for p99 to stay
    // under the SLO.
    double mean_qps = gpuServerQps(app, host_link, gpu_count);
    double query_seconds =
        static_cast<double>(gpu_count) / mean_qps;
    cluster::ServiceModel service =
        [query_seconds](serve::App, int64_t queries) {
            return static_cast<double>(queries) * query_seconds;
        };
    double slo = tailSloSeconds(app, host_link, config);

    // Tail-aware capacity cannot exceed saturation throughput, so
    // [0, mean_qps] brackets the search.
    double lo = 0.0;
    double hi = mean_qps;

    for (int i = 0; i < config.searchIterations; ++i) {
        double mid = 0.5 * (lo + hi);
        if (probeFeasible(app, mid, slo, gpu_count, config,
                          service)) {
            lo = mid;
        } else {
            hi = mid;
        }
    }

    // Guard against a degenerate zero: even an SLO no load can
    // meet must yield positive capacity or provisioning divides by
    // zero. One thousandth of mean throughput marks "essentially
    // infeasible" while keeping the math finite.
    double qps = std::max(lo, 1e-3 * mean_qps);

    std::lock_guard<std::mutex> lock(mutex);
    cache.emplace(key, qps);
    return qps;
}

ServerQpsFn
tailAwareQpsFn(const TailCapacityConfig &config)
{
    return [config](serve::App app, const gpu::LinkSpec &link,
                    int gpu_count) {
        return tailAwareServerQps(app, link, gpu_count, config);
    };
}

} // namespace wsc
} // namespace djinn
