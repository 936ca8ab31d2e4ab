/**
 * @file
 * Health rules over simulated history: feedTimeSeries replays a
 * deterministic cluster experiment's sampled series into a
 * TimeSeriesStore at virtual time, and a HealthMonitor evaluated at
 * the sample instants grades the scenario with the exact production
 * rules — bit-identically across runs (the determinism guard), and
 * with sensible verdicts (an overloaded cluster reads degraded or
 * worse; an idle one reads ok).
 */

#include "cluster/telemetry.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/simulator.hh"
#include "cluster/workload.hh"
#include "telemetry/health.hh"
#include "telemetry/metrics.hh"
#include "telemetry/timeseries.hh"

namespace djinn {
namespace cluster {
namespace {

ServiceModel
flatModel(double per_query_seconds = 1e-3)
{
    return [per_query_seconds](serve::App, int64_t queries) {
        return static_cast<double>(queries) * per_query_seconds;
    };
}

WorkloadSpec
mixSpec(double rate, double seconds, uint64_t seed)
{
    WorkloadSpec spec;
    spec.apps = {serve::App::IMC, serve::App::DIG,
                 serve::App::ASR};
    spec.process = ArrivalProcess::Poisson;
    spec.meanRate = rate;
    spec.durationSeconds = seconds;
    spec.seed = seed;
    return spec;
}

ClusterConfig
smallCluster(double sampleInterval = 0.25)
{
    ClusterConfig config;
    config.nodeCount = 4;
    config.node.gpus = 1;
    config.node.maxBatch = 4;
    config.node.queueLimit = 64;
    config.policy = RoutePolicy::RoundRobin;
    config.sampleInterval = sampleInterval;
    config.serviceModel = flatModel();
    config.seed = 11;
    return config;
}

/** Replay @p result into fresh store+monitor and evaluate at every
 * sample instant; returns the concatenated verdict renderings. */
std::string
verdictTranscript(const ClusterResult &result,
                  const std::string &scenario)
{
    telemetry::MetricRegistry registry;
    telemetry::TimeSeriesStore store(registry);
    // The monitor's clock is irrelevant here: evaluate(t) is used
    // directly at virtual-time instants.
    telemetry::HealthMonitor monitor(store, registry);
    feedTimeSeries(registry, store, scenario, result);

    std::string out;
    for (const TimeSample &sample : result.series) {
        out += monitor.evaluate(sample.t).toString();
        out += "\n";
    }
    return out;
}

TEST(HealthSim, VerdictsBitIdenticalAcrossRuns)
{
    // Same config + trace, two full sim runs, two replays: the
    // transcripts must match byte for byte.
    ClusterTrace trace = generateTrace(mixSpec(6000.0, 4.0, 21));
    ClusterConfig config = smallCluster();

    ClusterResult first = runClusterSim(config, trace);
    ClusterResult second = runClusterSim(config, trace);
    ASSERT_EQ(first.traceHash, second.traceHash);
    ASSERT_FALSE(first.series.empty());

    std::string a = verdictTranscript(first, "overload");
    std::string b = verdictTranscript(second, "overload");
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.empty());
}

TEST(HealthSim, OverloadedClusterGradesDegraded)
{
    // 4 nodes x 1 GPU x 1 ms/query saturate at ~4000 qps; offer
    // 12000 so queues grow and sheds mount. By the end of the run
    // the health rules must have left ok.
    ClusterTrace trace = generateTrace(mixSpec(12000.0, 4.0, 23));
    ClusterConfig config = smallCluster();
    ClusterResult result = runClusterSim(config, trace);
    ASSERT_GT(result.shedOverload + result.shedDeadline, 0u);
    ASSERT_FALSE(result.series.empty());

    telemetry::MetricRegistry registry;
    telemetry::TimeSeriesStore store(registry);
    telemetry::HealthMonitor monitor(store, registry);
    feedTimeSeries(registry, store, "overload", result);

    bool left_ok = false;
    for (const TimeSample &sample : result.series) {
        auto verdict = monitor.evaluate(sample.t);
        if (verdict.level != telemetry::HealthLevel::Ok) {
            left_ok = true;
            break;
        }
    }
    EXPECT_TRUE(left_ok)
        << "overloaded scenario never flagged; last sample t="
        << result.series.back().t;
}

TEST(HealthSim, LightLoadStaysOk)
{
    // Well under capacity: no rule should fire at any instant.
    ClusterTrace trace = generateTrace(mixSpec(500.0, 4.0, 27));
    ClusterConfig config = smallCluster();
    ClusterResult result = runClusterSim(config, trace);
    ASSERT_FALSE(result.series.empty());

    telemetry::MetricRegistry registry;
    telemetry::TimeSeriesStore store(registry);
    telemetry::HealthMonitor monitor(store, registry);
    feedTimeSeries(registry, store, "light", result);

    for (const TimeSample &sample : result.series) {
        auto verdict = monitor.evaluate(sample.t);
        EXPECT_EQ(verdict.level, telemetry::HealthLevel::Ok)
            << verdict.toString();
    }
}

TEST(HealthSim, FeedPopulatesLiveMetricFamilies)
{
    ClusterTrace trace = generateTrace(mixSpec(3000.0, 2.0, 29));
    ClusterResult result =
        runClusterSim(smallCluster(), trace);

    telemetry::MetricRegistry registry;
    telemetry::TimeSeriesStore store(registry);
    feedTimeSeries(registry, store, "scenario-x", result);

    // The same families the live sampler records, labeled with the
    // scenario as the model.
    EXPECT_EQ(store
                  .trackIds("djinn_requests_total",
                            {{"model", "scenario-x"}})
                  .size(),
              1u);
    EXPECT_FALSE(
        store.trackIds("djinn_batch_queue_depth_total").empty());
    EXPECT_FALSE(
        store.trackIds("djinn_compute_pool_busy").empty());
    EXPECT_EQ(store.sampleCount(), result.series.size());

    // The replayed request rate over the full run roughly matches
    // the sim's own throughput accounting.
    telemetry::TimeSeriesStore::Window window;
    window.name = "djinn_requests_total";
    window.seconds = result.series.back().t + 1.0;
    auto rate = store.windowStat(
        window, telemetry::TimeSeriesStore::Op::Rate);
    ASSERT_TRUE(rate.valid);
    EXPECT_GT(rate.value, 0.0);
}

} // namespace
} // namespace cluster
} // namespace djinn
