/**
 * @file
 * Flight-record plumbing through the cluster simulator: the sim
 * emits the same record schema as the live server, latency
 * exemplars resolve to records, attribution explains a policy's
 * p99 from virtual time, and all of it is bit-deterministic.
 */

#include "cluster/simulator.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/workload.hh"
#include "telemetry/attribution.hh"
#include "telemetry/flight_recorder.hh"

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

} // namespace

TEST(ClusterSimTail, FlightRecordsAreBitDeterministic)
{
    ClusterTrace trace = generateTrace(mixSpec(3000.0, 4.0, 3));
    ClusterConfig config = smallCluster(RoutePolicy::PowerOfTwo);
    ClusterResult a = runClusterSim(config, trace);
    ClusterResult b = runClusterSim(config, trace);

    ASSERT_FALSE(a.flightRecords.empty());
    ASSERT_EQ(a.flightRecords.size(), b.flightRecords.size());
    for (size_t i = 0; i < a.flightRecords.size(); ++i) {
        const telemetry::FlightRecord &x = a.flightRecords[i];
        const telemetry::FlightRecord &y = b.flightRecords[i];
        EXPECT_EQ(x.seq, y.seq);
        EXPECT_EQ(x.traceId, y.traceId);
        EXPECT_EQ(x.timestampUs, y.timestampUs);
        EXPECT_EQ(x.totalSeconds, y.totalSeconds);
        EXPECT_EQ(x.queueWaitSeconds, y.queueWaitSeconds);
        EXPECT_EQ(x.forwardSeconds, y.forwardSeconds);
        EXPECT_EQ(x.retryWaitSeconds, y.retryWaitSeconds);
        EXPECT_EQ(x.batchPosition, y.batchPosition);
        EXPECT_EQ(x.admitQueueDepth, y.admitQueueDepth);
    }
    // Attribution is pure over the records, so the whole report
    // (text and JSON) must also be byte-identical.
    telemetry::TailReport ra =
        telemetry::attributeTail(a.flightRecords, 99.0);
    telemetry::TailReport rb =
        telemetry::attributeTail(b.flightRecords, 99.0);
    EXPECT_EQ(telemetry::renderTailReportJson(ra),
              telemetry::renderTailReportJson(rb));
}

TEST(ClusterSimTail, RecordsCarryBatchAndQueueContext)
{
    ClusterTrace trace = generateTrace(mixSpec(3000.0, 4.0, 7));
    ClusterConfig config =
        smallCluster(RoutePolicy::JoinShortestQueue);
    ClusterResult result = runClusterSim(config, trace);

    size_t ok_records = 0;
    bool saw_batched = false;
    for (const telemetry::FlightRecord &record :
         result.flightRecords) {
        if (record.outcome != telemetry::FlightOutcome::Ok)
            continue;
        ++ok_records;
        EXPECT_GT(record.traceId, 0u);
        EXPECT_GT(record.totalSeconds, 0.0);
        EXPECT_GT(record.forwardSeconds, 0.0);
        EXPECT_GE(record.queueWaitSeconds, 0.0);
        EXPECT_GE(record.batchQueries, 1);
        EXPECT_LT(record.batchPosition, record.batchQueries);
        EXPECT_GE(record.admitQueueDepth, 0);
        EXPECT_FALSE(std::string(record.modelName()).empty());
        if (record.batchQueries > 1)
            saw_batched = true;
        // Phases never exceed the recorded total.
        EXPECT_LE(record.queueWaitSeconds +
                      record.forwardSeconds,
                  record.totalSeconds + 1e-9);
    }
    EXPECT_GT(ok_records, 0u);
    EXPECT_TRUE(saw_batched);
}

TEST(ClusterSimTail, LatencyExemplarsResolveToFlightRecords)
{
    ClusterTrace trace = generateTrace(mixSpec(2500.0, 4.0, 9));
    ClusterConfig config =
        smallCluster(RoutePolicy::JoinShortestQueue);
    ClusterResult result = runClusterSim(config, trace);

    const telemetry::HistogramSnapshot &h = result.latencyHistogram;
    ASSERT_EQ(h.exemplars.size(), h.buckets.size());

    size_t resolved = 0;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
        if (h.buckets[i] == 0) {
            EXPECT_FALSE(h.exemplars[i].valid);
            continue;
        }
        // Every populated bucket carries an exemplar whose ref
        // indexes a retained flight record (ring + reservoir keep
        // every record in these short runs... but lapped slots are
        // legal, so resolve through the snapshot by seq).
        ASSERT_TRUE(h.exemplars[i].valid);
        for (const telemetry::FlightRecord &record :
             result.flightRecords) {
            if (record.seq != h.exemplars[i].ref)
                continue;
            ++resolved;
            EXPECT_EQ(record.traceId, h.exemplars[i].traceId);
            EXPECT_DOUBLE_EQ(record.totalSeconds,
                             h.exemplars[i].value);
            break;
        }
    }
    EXPECT_GT(resolved, 0u);
}

TEST(ClusterSimTail, QueueWaitExplainsRoundRobinStragglers)
{
    // Half-speed stragglers under queue-blind round-robin: the
    // tail is requests stuck behind slow nodes' queues, and the
    // attribution engine must say so.
    ClusterTrace trace = generateTrace(mixSpec(2500.0, 5.0, 13));
    ClusterConfig config = smallCluster(RoutePolicy::RoundRobin);
    config.speedFactors = {1.0, 1.0, 0.25, 0.25};
    config.node.queueLimit = 64;
    config.retryShedRequests = false;
    ClusterResult result = runClusterSim(config, trace);

    telemetry::TailReport report =
        telemetry::attributeTail(result.flightRecords, 99.0);
    EXPECT_GT(report.records, 0u);
    EXPECT_EQ(report.dominant, "queue_wait");
    ASSERT_FALSE(report.contributors.empty());
    EXPECT_GT(report.contributors[0].share, 0.5);
    EXPECT_GT(report.tailMeanSeconds, report.baselineMeanSeconds);
}

TEST(ClusterSimTail, ShedRequestsAreRecordedWithOutcome)
{
    ClusterTrace trace = generateTrace(mixSpec(9000.0, 3.0, 17));
    ClusterConfig config = smallCluster(RoutePolicy::RoundRobin);
    config.node.queueLimit = 16;
    config.retryShedRequests = false;
    ClusterResult result = runClusterSim(config, trace);
    ASSERT_GT(result.lost, 0u);

    size_t shed_records = 0;
    for (const telemetry::FlightRecord &record :
         result.flightRecords)
        if (record.outcome ==
            telemetry::FlightOutcome::ShedQueueFull)
            ++shed_records;
    EXPECT_GT(shed_records, 0u);

    // Sheds never contaminate the completion cohorts.
    telemetry::TailReport report =
        telemetry::attributeTail(result.flightRecords, 99.0);
    EXPECT_EQ(report.records, result.flightRecords.size() -
                                  shed_records);
}

} // namespace cluster
} // namespace djinn
