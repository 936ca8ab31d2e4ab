/**
 * @file
 * Analytic cross-checks: with one node, one executor, unit
 * batches, and no batching delay, the cluster simulator is exactly
 * an M/M/1 or M/D/1 queue, whose sojourn-time laws are closed
 * form. Agreement here validates the whole event plumbing — trace
 * generation, dispatch, service completion, and the log-bucketed
 * latency histogram — against queueing theory, not against the
 * simulator itself.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "cluster/simulator.hh"
#include "cluster/workload.hh"
#include "common/rng.hh"

namespace djinn {
namespace cluster {
namespace {

/** One node, one executor, batch size 1, nothing shed. */
ClusterConfig
singleServer(ServiceModel model)
{
    ClusterConfig config;
    config.nodeCount = 1;
    config.node.gpus = 1;
    config.node.maxBatch = 1;
    config.node.queueLimit =
        std::numeric_limits<int64_t>::max() / 2;
    config.policy = RoutePolicy::RoundRobin;
    config.retryShedRequests = false;
    config.sampleInterval = 0.0;
    config.serviceModel = std::move(model);
    config.seed = 5;
    return config;
}

ClusterTrace
poissonTrace(double lambda, double seconds, uint64_t seed)
{
    WorkloadSpec spec;
    spec.apps = {serve::App::IMC};
    spec.process = ArrivalProcess::Poisson;
    spec.meanRate = lambda;
    spec.durationSeconds = seconds;
    spec.seed = seed;
    return generateTrace(spec);
}

TEST(QueueingTheory, MM1SojournMatchesClosedForm)
{
    const double lambda = 700.0;
    const double mu = 1000.0;

    // Exponential service through the simulator's deterministic
    // single-threaded call order keeps the run reproducible.
    auto service_rng = std::make_shared<Rng>(99);
    ClusterConfig config = singleServer(
        [service_rng, mu](serve::App, int64_t queries) {
            EXPECT_EQ(queries, 1);
            return service_rng->exponential(mu);
        });
    ClusterTrace trace = poissonTrace(lambda, 60.0, 41);
    ClusterResult result = runClusterSim(config, trace);

    ASSERT_EQ(result.completed, result.offered);
    // M/M/1: sojourn time is exponential with rate mu - lambda.
    double w = 1.0 / (mu - lambda);
    EXPECT_NEAR(result.latency.mean, w, 0.08 * w);
    double p99 = std::log(100.0) / (mu - lambda);
    EXPECT_NEAR(result.latency.p99, p99, 0.10 * p99);
    // Throughput equals the arrival rate below saturation.
    EXPECT_NEAR(result.throughputQps, lambda, 0.05 * lambda);
}

TEST(QueueingTheory, MD1SojournMatchesPollaczekKhinchine)
{
    const double lambda = 700.0;
    const double mu = 1000.0;
    const double rho = lambda / mu;

    ClusterConfig config = singleServer(
        [mu](serve::App, int64_t) { return 1.0 / mu; });
    ClusterTrace trace = poissonTrace(lambda, 60.0, 43);
    ClusterResult result = runClusterSim(config, trace);

    ASSERT_EQ(result.completed, result.offered);
    // Pollaczek-Khinchine with zero service variance:
    // W = 1/mu + rho / (2 mu (1 - rho)).
    double w = 1.0 / mu + rho / (2.0 * mu * (1.0 - rho));
    EXPECT_NEAR(result.latency.mean, w, 0.08 * w);
    // Deterministic service truncates the tail well below the
    // M/M/1 tail at the same utilization.
    EXPECT_LT(result.latency.p99,
              std::log(100.0) / (mu - lambda));
    EXPECT_GT(result.latency.p99, w);
}

TEST(QueueingTheory, MM1QueueGrowsWithUtilization)
{
    const double mu = 1000.0;
    double previous = 0.0;
    for (double lambda : {300.0, 600.0, 850.0}) {
        auto service_rng = std::make_shared<Rng>(7);
        ClusterConfig config = singleServer(
            [service_rng, mu](serve::App, int64_t) {
                return service_rng->exponential(mu);
            });
        ClusterResult result = runClusterSim(
            config, poissonTrace(lambda, 40.0, 47));
        double w = 1.0 / (mu - lambda);
        EXPECT_NEAR(result.latency.mean, w, 0.15 * w)
            << "lambda " << lambda;
        EXPECT_GT(result.latency.mean, previous);
        previous = result.latency.mean;
    }
}

} // namespace
} // namespace cluster
} // namespace djinn
