/**
 * @file
 * End-to-end tail attribution: a real loopback server with an
 * injected straggler fault must finger the faulty phase through
 * the flight recorder, the /debug/tail endpoint, and the tail
 * Metrics verb; and every populated djinn_request_seconds bucket
 * must resolve through its exemplar to a retained flight record.
 */

#include "core/djinn_server.hh"

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "core/djinn_client.hh"
#include "core/http_endpoint.hh"
#include "nn/init.hh"
#include "nn/net_def.hh"
#include "telemetry/attribution.hh"
#include "telemetry/exposition.hh"
#include "telemetry/trace_context.hh"
#include "telemetry/tracer.hh"

namespace djinn {
namespace core {
namespace {

class TailE2eTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto net = nn::parseNetDefOrDie(
            "name tiny\ninput 1 2 2\nlayer fc fc out 3\n"
            "layer prob softmax\n");
        nn::initializeWeights(*net, 5);
        ASSERT_TRUE(registry_.add(std::move(net)).isOk());
    }

    void
    startServer(ServerConfig config = ServerConfig{})
    {
        server_ = std::make_unique<DjinnServer>(registry_, config);
        ASSERT_TRUE(server_->start().isOk());
    }

    Status
    connect(DjinnClient &client)
    {
        return client.connect("127.0.0.1", server_->port());
    }

    /** Drive n requests of the given row count through one client. */
    void
    drive(DjinnClient &client, int n, int64_t rows)
    {
        std::vector<float> input(size_t(rows) * 4, 0.5f);
        for (int i = 0; i < n; ++i)
            ASSERT_TRUE(client.infer("tiny", rows, input).isOk());
    }

    ModelRegistry registry_;
    std::unique_ptr<DjinnServer> server_;
};

TEST_F(TailE2eTest, SlowReadStragglerDominatesTheTail)
{
    // slow-read stretches the socket read of every request in
    // proportion to its byte count (2ms per byte), so the large
    // requests become the tail and their excess is read time. The
    // attribution engine must say "read", end to end.
    ServerConfig config;
    config.faultSpec = "slow-read";
    startServer(config);
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    drive(client, 12, 1);  // baseline cohort: ~40 wire bytes
    drive(client, 4, 16);  // tail cohort: ~10x the bytes to read

    std::vector<telemetry::FlightRecord> records =
        server_->flightRecorder().snapshot();
    ASSERT_GE(records.size(), 16u);
    telemetry::TailReport report =
        telemetry::attributeTail(records, 80.0);
    EXPECT_EQ(report.records, 16u);
    EXPECT_EQ(report.dominant, "read");
    ASSERT_FALSE(report.contributors.empty());
    EXPECT_EQ(report.contributors[0].phase, "read");
    EXPECT_GT(report.contributors[0].share, 0.5);

    // The same verdict over HTTP: /debug/tail on an endpoint wired
    // to this server's recorder and registry.
    telemetry::Tracer tracer;
    HttpEndpoint endpoint(DebugRoutes(
        {.metrics = &server_->metrics(), .tracer = &tracer,
         .flight = &server_->flightRecorder()}));
    std::string type, body;
    ASSERT_EQ(endpoint.handle("/debug/tail?pct=80", type, body),
              200);
    EXPECT_EQ(type, "application/json");
    EXPECT_NE(body.find("\"fleet\""), std::string::npos);
    EXPECT_NE(body.find("\"models\""), std::string::npos);
    EXPECT_NE(body.find("\"dominant\": \"read\""),
              std::string::npos);

    // And over the wire protocol: the tail Metrics verb.
    auto text = client.metricsExposition("tail:80");
    ASSERT_TRUE(text.isOk()) << text.status().toString();
    EXPECT_NE(text.value().find("tail attribution"),
              std::string::npos);
    EXPECT_NE(text.value().find("dominant contributor: read"),
              std::string::npos);
}

TEST_F(TailE2eTest, EveryPopulatedBucketResolvesViaExemplar)
{
    ServerConfig config;
    config.batching = true;
    config.batchOptions.maxQueries = 4;
    startServer(config);
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    drive(client, 20, 1);
    drive(client, 5, 4);

    size_t histograms = 0;
    size_t populated = 0;
    for (const telemetry::MetricSample &sample :
         server_->metrics().snapshot()) {
        if (sample.name != "djinn_request_seconds")
            continue;
        ++histograms;
        const telemetry::HistogramSnapshot &h = sample.histogram;
        ASSERT_EQ(h.exemplars.size(), h.buckets.size());
        for (size_t i = 0; i < h.buckets.size(); ++i) {
            if (h.buckets[i] == 0)
                continue;
            ++populated;
            ASSERT_TRUE(h.exemplars[i].valid)
                << "populated bucket " << i << " lacks exemplar";
            telemetry::FlightRecord record;
            ASSERT_TRUE(server_->flightRecorder().find(
                h.exemplars[i].ref, record))
                << "exemplar ref " << h.exemplars[i].ref
                << " does not resolve to a flight record";
            EXPECT_EQ(record.traceId, h.exemplars[i].traceId);
            EXPECT_DOUBLE_EQ(record.totalSeconds,
                             h.exemplars[i].value);
        }
    }
    EXPECT_GE(histograms, 1u);
    EXPECT_GE(populated, 1u);
}

TEST_F(TailE2eTest, BatchingRecordsAdmitDepthAndBatchContext)
{
    ServerConfig config;
    config.batching = true;
    config.batchOptions.maxQueries = 8;
    startServer(config);
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    drive(client, 10, 2);

    bool saw_ok = false;
    for (const telemetry::FlightRecord &record :
         server_->flightRecorder().snapshot()) {
        if (record.outcome != telemetry::FlightOutcome::Ok)
            continue;
        saw_ok = true;
        EXPECT_GE(record.admitQueueDepth, 0);
        EXPECT_GE(record.batchQueries, 1);
        EXPECT_GE(record.batchRows, 2);
        EXPECT_LT(record.batchPosition, record.batchQueries);
        EXPECT_EQ(std::string(record.modelName()), "tiny");
        EXPECT_GT(record.totalSeconds, 0.0);
    }
    EXPECT_TRUE(saw_ok);
}

TEST_F(TailE2eTest, DebugFlightLookupByRecordAndTraceId)
{
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    client.setTracing(true); // records carry trace ids
    drive(client, 3, 1);

    std::vector<telemetry::FlightRecord> records =
        server_->flightRecorder().snapshot();
    ASSERT_FALSE(records.empty());
    const telemetry::FlightRecord &sample = records.back();

    telemetry::Tracer tracer;
    HttpEndpoint endpoint(DebugRoutes(
        {.metrics = &server_->metrics(), .tracer = &tracer,
         .flight = &server_->flightRecorder()}));
    std::string type, body;

    std::string by_ref =
        "/debug/flight?record=" + std::to_string(sample.seq);
    ASSERT_EQ(endpoint.handle(by_ref, type, body), 200);
    EXPECT_EQ(type, "application/json");
    EXPECT_NE(body.find("\"total_seconds\""), std::string::npos);
    EXPECT_NE(body.find("\"model\": \"tiny\""), std::string::npos);

    EXPECT_EQ(endpoint.handle("/debug/flight?record=999999",
                              type, body),
              404);
    EXPECT_EQ(endpoint.handle("/debug/flight?record=junk",
                              type, body),
              400);
    EXPECT_EQ(endpoint.handle("/debug/flight", type, body), 400);

    // By trace id: 1-16 hex digits in either case.
    ASSERT_NE(sample.traceId, 0u);
    std::string hex = telemetry::traceIdToHex(sample.traceId);
    ASSERT_EQ(endpoint.handle("/debug/flight?trace_id=" + hex, type,
                              body),
              200);
    EXPECT_NE(body.find("\"total_seconds\""), std::string::npos);
    for (char &c : hex)
        c = static_cast<char>(std::toupper(c));
    EXPECT_EQ(endpoint.handle("/debug/flight?trace_id=" + hex, type,
                              body),
              200);
    // Nothing else: no sign (-1 must not wrap to 0xffff...ffff),
    // prefix, whitespace, or saturating 17th digit.
    for (const char *id : {"-1", "+1", "0x1", " 1", "1 ",
                           "00000000000000001", "xyz"}) {
        EXPECT_EQ(endpoint.handle(
                      std::string("/debug/flight?trace_id=") + id,
                      type, body),
                  400)
            << id;
        EXPECT_NE(body.find("\"status\": 400"), std::string::npos)
            << id;
    }
}

} // namespace
} // namespace core
} // namespace djinn
