/**
 * @file
 * End-to-end tracing tests: a traced request through a real
 * loopback server must produce one linked span tree — client
 * round-trip, server phases, queue wait, batched forward, and
 * per-layer compute — sharing a single trace id, exported as
 * Chrome trace-event JSON. Also covers the HTTP scrape endpoint
 * and tracing-disabled compatibility.
 */

#include "core/djinn_server.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/djinn_client.hh"
#include "core/http_endpoint.hh"
#include "nn/init.hh"
#include "nn/net_def.hh"
#include "telemetry/exposition.hh"
#include "telemetry/tracer.hh"

namespace djinn {
namespace core {
namespace {

class TracingTest : public ::testing::Test
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

    /** All buffered span events belonging to @p trace_id. */
    std::vector<telemetry::TraceEvent>
    spansOf(uint64_t trace_id)
    {
        std::vector<telemetry::TraceEvent> out;
        for (auto &e : server_->tracer().events()) {
            if (e.traceId == trace_id)
                out.push_back(std::move(e));
        }
        return out;
    }

    static const telemetry::TraceEvent *
    findSpan(const std::vector<telemetry::TraceEvent> &spans,
             const std::string &name)
    {
        for (const auto &e : spans) {
            if (e.name == name)
                return &e;
        }
        return nullptr;
    }

    ModelRegistry registry_;
    std::unique_ptr<DjinnServer> server_;
};

/**
 * The acceptance test: one traced request end to end. Client,
 * server-phase, and per-layer spans all share the trace id the
 * client minted, and the Chrome JSON carries it.
 */
TEST_F(TracingTest, SingleRequestProducesLinkedSpanTree)
{
    ServerConfig config;
    config.batching = true;
    config.samplerPeriod = 0; // keep the ring deterministic
    startServer(config);

    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    client.setTracing(true);
    // Share the server's tracer so the client span lands on the
    // same timeline (in-process shorthand for merged traces).
    client.setTracer(&server_->tracer());

    std::vector<float> payload(4, 0.5f);
    auto result = client.infer("tiny", 1, payload);
    ASSERT_TRUE(result.isOk());

    uint64_t trace_id = client.lastTrace().traceId;
    ASSERT_NE(trace_id, 0u);

    auto spans = spansOf(trace_id);
    const auto *client_span = findSpan(spans, "infer tiny");
    const auto *request = findSpan(spans, "request tiny");
    const auto *decode = findSpan(spans, "decode");
    const auto *encode = findSpan(spans, "encode");
    const auto *queue = findSpan(spans, "queue_wait");
    const auto *forward = findSpan(spans, "forward");
    const auto *fc = findSpan(spans, "fc");
    const auto *prob = findSpan(spans, "prob");
    ASSERT_NE(client_span, nullptr);
    ASSERT_NE(request, nullptr);
    ASSERT_NE(decode, nullptr);
    ASSERT_NE(encode, nullptr);
    ASSERT_NE(queue, nullptr);
    ASSERT_NE(forward, nullptr);
    ASSERT_NE(fc, nullptr);
    ASSERT_NE(prob, nullptr);

    // The tree links: client span is the root, the server request
    // span is its child, phases and layers hang below.
    EXPECT_EQ(client_span->spanId, client.lastTrace().spanId);
    EXPECT_EQ(client_span->parentSpanId, 0u);
    EXPECT_EQ(request->parentSpanId, client_span->spanId);
    EXPECT_EQ(decode->parentSpanId, request->spanId);
    EXPECT_EQ(encode->parentSpanId, request->spanId);
    EXPECT_EQ(queue->parentSpanId, request->spanId);
    EXPECT_EQ(fc->parentSpanId, forward->spanId);
    EXPECT_EQ(prob->parentSpanId, forward->spanId);

    // Layer spans carry the profiler's FLOP counts.
    // tiny fc: 2 * 4 * 3 = 24 flops for one row.
    bool saw_flops = false;
    for (const auto &[key, value] : fc->args) {
        if (key == "flops") {
            EXPECT_EQ(value, "24");
            saw_flops = true;
        }
    }
    EXPECT_TRUE(saw_flops);

    // The exported JSON carries the shared trace id on every span.
    std::string json =
        telemetry::renderChromeTrace(server_->tracer().events());
    std::string hex = telemetry::traceIdToHex(trace_id);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find(hex), std::string::npos);
    EXPECT_NE(json.find("\"infer tiny\""), std::string::npos);
    EXPECT_NE(json.find("\"request tiny\""), std::string::npos);
    EXPECT_NE(json.find("\"fc\""), std::string::npos);

    // The flight record correlates the trace id with the batch.
    auto requests = server_->flightRecorder().snapshot();
    ASSERT_EQ(requests.size(), 1u);
    EXPECT_EQ(requests[0].traceId, trace_id);
    EXPECT_EQ(requests[0].modelName(), "tiny");
    EXPECT_EQ(requests[0].rows, 1);
    EXPECT_GE(requests[0].batchRows, 1);
}

/**
 * The server's request, decode, queue_wait and encode spans are laid
 * out from the request's flight record: the phases lie inside the
 * request span, which spans the record's total less its frame read.
 */
TEST_F(TracingTest, RequestSpansAreLaidOutFromTheFlightRecord)
{
    ServerConfig config;
    config.batching = true;
    config.samplerPeriod = 0;
    startServer(config);

    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    client.setTracing(true);
    std::vector<float> payload(4, 0.5f);
    ASSERT_TRUE(client.infer("tiny", 1, payload).isOk());

    auto spans = spansOf(client.lastTrace().traceId);
    const auto *request = findSpan(spans, "request tiny");
    const auto *decode = findSpan(spans, "decode");
    const auto *queue = findSpan(spans, "queue_wait");
    const auto *encode = findSpan(spans, "encode");
    ASSERT_NE(request, nullptr);
    ASSERT_NE(decode, nullptr);
    ASSERT_NE(queue, nullptr);
    ASSERT_NE(encode, nullptr);
    auto records = server_->flightRecorder().snapshot();
    ASSERT_EQ(records.size(), 1u);
    const telemetry::FlightRecord &record = records[0];

    const int64_t end = request->startUs + request->durationUs;
    EXPECT_EQ(end, record.timestampUs);
    EXPECT_NEAR(static_cast<double>(request->durationUs),
                (record.totalSeconds - record.readSeconds) * 1e6, 1.0);
    EXPECT_NEAR(static_cast<double>(queue->durationUs),
                record.queueWaitSeconds * 1e6, 1.0);
    EXPECT_EQ(decode->startUs, request->startUs);
    EXPECT_EQ(queue->startUs, decode->startUs + decode->durationUs);
    EXPECT_EQ(encode->startUs + encode->durationUs, end);
    for (const auto *phase : {decode, queue, encode}) {
        EXPECT_GE(phase->durationUs, 0) << phase->name;
        EXPECT_GE(phase->startUs, request->startUs) << phase->name;
        EXPECT_LE(phase->startUs + phase->durationUs, end)
            << phase->name;
        EXPECT_EQ(phase->track, request->track) << phase->name;
    }
    EXPECT_EQ(request->track.rfind("worker-", 0), 0u) << request->track;
    const std::pair<std::string, std::string> outcome{"outcome", "ok"};
    EXPECT_NE(std::find(request->args.begin(), request->args.end(),
                        outcome),
              request->args.end());
}

TEST_F(TracingTest, NonBatchingServerAlsoEmitsLayerSpans)
{
    ServerConfig config;
    config.batching = false;
    config.samplerPeriod = 0;
    startServer(config);

    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    client.setTracing(true);
    std::vector<float> payload(4, 0.5f);
    ASSERT_TRUE(client.infer("tiny", 1, payload).isOk());

    auto spans = spansOf(client.lastTrace().traceId);
    const auto *request = findSpan(spans, "request tiny");
    const auto *forward = findSpan(spans, "forward");
    const auto *fc = findSpan(spans, "fc");
    ASSERT_NE(request, nullptr);
    ASSERT_NE(forward, nullptr);
    ASSERT_NE(fc, nullptr);
    EXPECT_EQ(forward->parentSpanId, request->spanId);
    EXPECT_EQ(fc->parentSpanId, forward->spanId);
}

TEST_F(TracingTest, UntracedClientLeavesRingQuiet)
{
    ServerConfig config;
    config.batching = true;
    config.samplerPeriod = 0;
    startServer(config);

    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    std::vector<float> payload(4, 0.5f);
    ASSERT_TRUE(client.infer("tiny", 1, payload).isOk());

    // No wire trace context -> no spans, but the flight record
    // (trace id 0) is still written.
    EXPECT_TRUE(server_->tracer().events().empty());
    auto requests = server_->flightRecorder().snapshot();
    ASSERT_EQ(requests.size(), 1u);
    EXPECT_EQ(requests[0].traceId, 0u);
}

/**
 * The sampler writes the time-series store only: its ticks leave
 * the span ring to spans, and the trace route draws the store's
 * gauges (process RSS among them) as counter tracks.
 */
TEST_F(TracingTest, SamplerTicksLeaveRingToSpans)
{
    startServer(); // tracing and the default sampler on
    const telemetry::TimeSeriesStore *store = server_->timeSeries();
    ASSERT_NE(store, nullptr);
    while (store->sampleCount() < 3)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));

    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    std::vector<float> payload(4, 0.5f);
    ASSERT_TRUE(client.infer("tiny", 1, payload).isOk());

    EXPECT_EQ(server_->tracer().size(), 0u);
    auto trace = client.traceJson();
    ASSERT_TRUE(trace.isOk());
    for (const std::string gauge :
         {"djinn_compute_pool_busy", "djinn_process_rss_bytes"}) {
        EXPECT_NE(trace.value().find("{\"name\": \"" + gauge +
                                     "\", \"cat\": \"sampler\", "
                                     "\"ph\": \"C\""),
                  std::string::npos)
            << gauge;
    }
    bool saw_rss = false;
    for (const auto &sample : server_->metrics().snapshot()) {
        if (sample.name == "djinn_process_rss_bytes") {
            saw_rss = true;
            EXPECT_GT(sample.value, 0.0);
        }
    }
    EXPECT_TRUE(saw_rss);
}

TEST_F(TracingTest, TracingDisabledServerStillServesTracedClients)
{
    ServerConfig config;
    config.tracing = false;
    startServer(config);

    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    client.setTracing(true);
    std::vector<float> payload(4, 0.5f);
    auto result = client.infer("tiny", 1, payload);
    ASSERT_TRUE(result.isOk());
    EXPECT_NE(client.lastTrace().traceId, 0u);
    EXPECT_TRUE(server_->tracer().events().empty());
}

TEST_F(TracingTest, TraceAndRequestsExpositionFormats)
{
    ServerConfig config;
    config.batching = true;
    config.samplerPeriod = 0;
    startServer(config);

    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    client.setTracing(true);
    std::vector<float> payload(4, 0.5f);
    ASSERT_TRUE(client.infer("tiny", 1, payload).isOk());

    auto trace = client.traceJson();
    ASSERT_TRUE(trace.isOk());
    EXPECT_NE(trace.value().find("\"traceEvents\""),
              std::string::npos);

    auto csv = client.requestsCsv();
    ASSERT_TRUE(csv.isOk());
    EXPECT_NE(csv.value().find(
                  "trace_id,model,rows,batch_rows,service_ms"),
              std::string::npos);
    EXPECT_NE(csv.value().find(telemetry::traceIdToHex(
                  client.lastTrace().traceId)),
              std::string::npos);
}

TEST_F(TracingTest, ServerStartsEmbeddedHttpEndpoint)
{
    ServerConfig config;
    config.httpPort = 0; // ephemeral
    startServer(config);
    EXPECT_GT(server_->httpPort(), 0);
    server_->stop();
    EXPECT_EQ(server_->httpPort(), 0);
}

TEST(HttpEndpointTest, HandleRoutes)
{
    telemetry::MetricRegistry metrics;
    metrics.counter("djinn_requests_total",
                    {{"model", "tiny"}}).inc();
    telemetry::Tracer tracer;
    tracer.record({"decode", "phase", "worker-1", 1, 2, 0, 10, 5, {}});
    HttpEndpoint endpoint(
        DebugRoutes({.metrics = &metrics, .tracer = &tracer}));

    std::string type, body;
    EXPECT_EQ(endpoint.handle("/healthz", type, body), 200);
    EXPECT_EQ(body, "ok\n");

    EXPECT_EQ(endpoint.handle("/metrics", type, body), 200);
    EXPECT_NE(type.find("text/plain"), std::string::npos);
    auto parsed = telemetry::parseExposition(body);
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    EXPECT_FALSE(parsed.value().empty());

    EXPECT_EQ(endpoint.handle("/trace", type, body), 200);
    EXPECT_EQ(type, "application/json");
    EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(body.find("\"decode\""), std::string::npos);

    EXPECT_EQ(endpoint.handle("/trace?last=1", type, body), 200);
    EXPECT_EQ(endpoint.handle("/trace?last=nope", type, body), 400);
    EXPECT_EQ(endpoint.handle("/nope", type, body), 404);
}

TEST(HttpEndpointTest, StartStopOnEphemeralPort)
{
    telemetry::MetricRegistry metrics;
    telemetry::Tracer tracer;
    HttpEndpoint endpoint(
        DebugRoutes({.metrics = &metrics, .tracer = &tracer}));
    ASSERT_TRUE(endpoint.start("127.0.0.1", 0).isOk());
    EXPECT_GT(endpoint.port(), 0);
    EXPECT_TRUE(endpoint.running());
    endpoint.stop();
    EXPECT_FALSE(endpoint.running());
}

} // namespace
} // namespace core
} // namespace djinn
