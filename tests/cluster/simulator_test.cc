#include "cluster/simulator.hh"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/workload.hh"

namespace djinn {
namespace cluster {
namespace {

/** A millisecond per query, whatever the app. */
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
smallCluster(RoutePolicy policy)
{
    ClusterConfig config;
    config.nodeCount = 4;
    config.node.gpus = 1;
    config.node.maxBatch = 4;
    config.policy = policy;
    config.sampleInterval = 0.1;
    config.serviceModel = flatModel();
    config.seed = 11;
    return config;
}

TEST(ClusterSim, SameSeedIsBitIdentical)
{
    ClusterTrace trace = generateTrace(mixSpec(3000.0, 5.0, 3));
    ClusterConfig config = smallCluster(RoutePolicy::PowerOfTwo);
    ClusterResult a = runClusterSim(config, trace);
    ClusterResult b = runClusterSim(config, trace);
    EXPECT_EQ(a.traceHash, b.traceHash);
    EXPECT_EQ(a.eventsFired, b.eventsFired);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.lost, b.lost);
    EXPECT_EQ(a.latency.p99, b.latency.p99);
    EXPECT_EQ(a.duration, b.duration);
    ASSERT_EQ(a.series.size(), b.series.size());
    for (size_t i = 0; i < a.series.size(); ++i) {
        EXPECT_EQ(a.series[i].queuedQueries,
                  b.series[i].queuedQueries);
        EXPECT_EQ(a.series[i].completed, b.series[i].completed);
    }
}

TEST(ClusterSim, AdaptiveFairShareSameSeedIsBitIdentical)
{
    // The adaptive + fair-share dispatch policies (DESIGN.md §16)
    // must preserve the simulator's bit-determinism guarantee: the
    // scheduler is clock-free and ticks on virtual event time
    // only.
    ClusterTrace trace = generateTrace(mixSpec(3000.0, 5.0, 3));
    ClusterConfig config = smallCluster(RoutePolicy::PowerOfTwo);
    config.deadlineSeconds = 0.050;
    config.node.sloSeconds = 0.050;
    config.node.adaptiveBatch = true;
    config.node.fairShare = true;
    config.node.tenantWeights["IMC"] = 2.0;
    ClusterResult a = runClusterSim(config, trace);
    ClusterResult b = runClusterSim(config, trace);
    EXPECT_EQ(a.traceHash, b.traceHash);
    EXPECT_EQ(a.eventsFired, b.eventsFired);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.lost, b.lost);
    EXPECT_EQ(a.latency.p99, b.latency.p99);
    EXPECT_EQ(a.duration, b.duration);
    EXPECT_GT(a.completed, 0u);

    // And the policy must actually engage: with adaptive batching
    // the event sequence differs from the static-batch baseline.
    ClusterConfig baseline = smallCluster(RoutePolicy::PowerOfTwo);
    baseline.deadlineSeconds = 0.050;
    ClusterResult c = runClusterSim(baseline, trace);
    EXPECT_NE(a.traceHash, c.traceHash);
}

TEST(ClusterSim, DifferentSeedChangesTheEventSequence)
{
    ClusterTrace trace = generateTrace(mixSpec(3000.0, 5.0, 3));
    ClusterConfig config = smallCluster(RoutePolicy::PowerOfTwo);
    ClusterResult a = runClusterSim(config, trace);
    config.seed = 12;
    ClusterResult b = runClusterSim(config, trace);
    EXPECT_NE(a.traceHash, b.traceHash);
}

TEST(ClusterSim, ConservationOfferedEqualsCompletedPlusLost)
{
    // Overload the cluster so sheds actually happen.
    ClusterTrace trace = generateTrace(mixSpec(8000.0, 4.0, 5));
    ClusterConfig config = smallCluster(RoutePolicy::RoundRobin);
    config.node.queueLimit = 32;
    config.retryShedRequests = false;
    ClusterResult result = runClusterSim(config, trace);
    EXPECT_EQ(result.offered, trace.size());
    EXPECT_EQ(result.offered, result.completed + result.lost);
    EXPECT_GT(result.lost, 0u);
    EXPECT_GT(result.completed, 0u);
}

TEST(ClusterSim, EveryRequestCompletesBelowSaturation)
{
    // 4 nodes x 1 GPU x 1ms/query saturate at 4000 qps; offer
    // 2000.
    ClusterTrace trace = generateTrace(mixSpec(2000.0, 5.0, 9));
    ClusterConfig config =
        smallCluster(RoutePolicy::JoinShortestQueue);
    ClusterResult result = runClusterSim(config, trace);
    EXPECT_EQ(result.completed, result.offered);
    EXPECT_EQ(result.lost, 0u);
    EXPECT_GT(result.latency.p50, 0.0);
    EXPECT_GE(result.latency.p99, result.latency.p50);
    EXPECT_GE(result.duration, result.traceDuration);
}

TEST(ClusterSim, ShedRateIsMonotoneInOfferedLoad)
{
    ClusterConfig config = smallCluster(RoutePolicy::RoundRobin);
    config.node.queueLimit = 16;
    config.retryShedRequests = false;
    double previous = 0.0;
    for (double rate : {2000.0, 6000.0, 12000.0}) {
        ClusterTrace trace = generateTrace(mixSpec(rate, 4.0, 7));
        ClusterResult result = runClusterSim(config, trace);
        EXPECT_GE(result.lostFraction(), previous);
        previous = result.lostFraction();
    }
    EXPECT_GT(previous, 0.1);
}

TEST(ClusterSim, JsqBeatsRoundRobinOnAsymmetricFleet)
{
    // Half-speed stragglers: queue-blind round-robin keeps
    // feeding them, so its tail is strictly worse.
    ClusterTrace trace = generateTrace(mixSpec(2500.0, 5.0, 13));
    ClusterConfig config = smallCluster(RoutePolicy::RoundRobin);
    config.speedFactors = {1.0, 1.0, 0.25, 0.25};
    config.node.queueLimit = 64;
    config.retryShedRequests = false;
    ClusterResult rr = runClusterSim(config, trace);
    config.policy = RoutePolicy::JoinShortestQueue;
    ClusterResult jsq = runClusterSim(config, trace);
    EXPECT_LT(jsq.latency.p99, rr.latency.p99);
    EXPECT_GE(jsq.completed, rr.completed);
}

TEST(ClusterSim, TightDeadlineShedsAndNeverRetries)
{
    ClusterTrace trace = generateTrace(mixSpec(3500.0, 4.0, 17));
    ClusterConfig config = smallCluster(RoutePolicy::DeadlineJsq);
    config.deadlineSeconds = 2e-3;  // ~2 queries of slack
    ClusterResult result = runClusterSim(config, trace);
    EXPECT_GT(result.shedDeadline, 0u);
    // Deadline sheds are terminal (core::retryableFailure);
    // retries only ever follow overload sheds.
    EXPECT_LE(result.retries, result.shedOverload);
}

TEST(ClusterSim, RetriesRecoverOverloadSheds)
{
    ClusterTrace trace = generateTrace(mixSpec(5000.0, 4.0, 19));
    ClusterConfig config = smallCluster(RoutePolicy::RoundRobin);
    config.node.queueLimit = 8;

    config.retryShedRequests = false;
    ClusterResult no_retry = runClusterSim(config, trace);

    config.retryShedRequests = true;
    ClusterResult with_retry = runClusterSim(config, trace);
    EXPECT_GT(with_retry.retries, 0u);
    EXPECT_GT(with_retry.completed, no_retry.completed);
}

TEST(ClusterSim, PerAppStatsSumToTotals)
{
    ClusterTrace trace = generateTrace(mixSpec(3000.0, 4.0, 23));
    ClusterConfig config =
        smallCluster(RoutePolicy::JoinShortestQueue);
    ClusterResult result = runClusterSim(config, trace);
    ASSERT_EQ(result.apps.size(), 3u);
    uint64_t offered = 0;
    uint64_t completed = 0;
    for (const AppClusterStats &app : result.apps) {
        offered += app.offered;
        completed += app.completed;
        EXPECT_GT(app.latency.p50, 0.0);
    }
    EXPECT_EQ(offered, result.offered);
    EXPECT_EQ(completed, result.completed);
}

TEST(ClusterSim, SeriesSamplesCoverTheTrace)
{
    ClusterTrace trace = generateTrace(mixSpec(2000.0, 3.0, 29));
    ClusterConfig config =
        smallCluster(RoutePolicy::JoinShortestQueue);
    config.sampleInterval = 0.25;
    ClusterResult result = runClusterSim(config, trace);
    ASSERT_GE(result.series.size(), 10u);
    for (size_t i = 1; i < result.series.size(); ++i) {
        EXPECT_GT(result.series[i].t, result.series[i - 1].t);
        EXPECT_GE(result.series[i].completed,
                  result.series[i - 1].completed);
    }
    EXPECT_LE(result.series.back().completed +
                  result.series.back().shed,
              result.offered);

    config.sampleInterval = 0.0;
    EXPECT_TRUE(runClusterSim(config, trace).series.empty());
}

TEST(ClusterSim, OccupancyStaysPhysical)
{
    ClusterTrace trace = generateTrace(mixSpec(3000.0, 4.0, 31));
    ClusterConfig config =
        smallCluster(RoutePolicy::JoinShortestQueue);
    ClusterResult result = runClusterSim(config, trace);
    EXPECT_GT(result.occupancy, 0.0);
    EXPECT_LE(result.occupancy, 1.0 + 1e-9);
    EXPECT_GT(result.meanBatchQueries, 0.0);
    EXPECT_LE(result.meanBatchQueries, 4.0);
}

TEST(ClusterSim, CalibratedModelOrdersAppsByCost)
{
    ServiceModel model = calibratedServiceModel();
    double imc = model(serve::App::IMC, 1);
    double asr = model(serve::App::ASR, 1);
    double pos = model(serve::App::POS, 1);
    EXPECT_GT(imc, 0.0);
    // ASR (DNN over many frames) costs more than one image; POS
    // (tiny MLP) costs far less.
    EXPECT_GT(asr, imc);
    EXPECT_LT(pos, imc);
    // Batching amortizes: per-query cost falls with batch size.
    EXPECT_LT(model(serve::App::IMC, 8) / 8.0, imc);
}

} // namespace
} // namespace cluster
} // namespace djinn
