/**
 * @file
 * End-to-end DjiNN service tests: a real TCP server on loopback,
 * exercised through the client library.
 */

#include "core/djinn_server.hh"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>

#include "common/strings.hh"
#include "core/djinn_client.hh"
#include "nn/init.hh"
#include "nn/net_def.hh"
#include "telemetry/exposition.hh"
#include "telemetry/slo.hh"
#include "telemetry/trace.hh"

#include "forward_hold.hh"

namespace djinn {
namespace core {
namespace {

/** A sample count and sum: one metric series, or the matching
 * fold over flight records. */
struct Fold {
    uint64_t count = 0;
    double sum = 0.0;

    void
    add(double value)
    {
        ++count;
        sum += value;
    }
};

/** @p name{@p labels} in @p samples as a Fold (a counter's value
 * is both); empty when the series does not exist. */
Fold
registryFold(const std::vector<telemetry::MetricSample> &samples,
             const std::string &name, const telemetry::LabelMap &labels)
{
    for (const telemetry::MetricSample &s : samples) {
        if (s.name != name || s.labels != labels)
            continue;
        if (s.kind == telemetry::MetricKind::Histogram)
            return {s.histogram.count, s.histogram.sum};
        return {static_cast<uint64_t>(s.value), s.value};
    }
    return {};
}

class ServerTest : public ::testing::Test
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

    ModelRegistry registry_;
    std::unique_ptr<DjinnServer> server_;
};

TEST_F(ServerTest, StartsOnEphemeralPort)
{
    startServer();
    EXPECT_GT(server_->port(), 0);
    EXPECT_TRUE(server_->running());
    server_->stop();
    EXPECT_FALSE(server_->running());
}

TEST_F(ServerTest, PingPong)
{
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    EXPECT_TRUE(client.ping().isOk());
}

TEST_F(ServerTest, ListModels)
{
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    auto models = client.listModels();
    ASSERT_TRUE(models.isOk());
    ASSERT_EQ(models.value().size(), 1u);
    EXPECT_EQ(models.value()[0], "tiny");
}

TEST_F(ServerTest, InferenceReturnsDistribution)
{
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    auto result = client.infer("tiny", 1, {1, 2, 3, 4});
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    ASSERT_EQ(result.value().size(), 3u);
    double sum = 0;
    for (float v : result.value())
        sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-5);
    EXPECT_EQ(server_->requestsServed(), 1u);
}

TEST_F(ServerTest, InferenceMatchesLocalForward)
{
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    std::vector<float> input{0.5f, -1.0f, 2.0f, 0.0f};
    auto remote = client.infer("tiny", 1, input);
    ASSERT_TRUE(remote.isOk());

    auto net = registry_.find("tiny");
    nn::Tensor in(nn::Shape(1, 1, 2, 2));
    std::copy(input.begin(), input.end(), in.data());
    nn::Tensor local = net->forward(in);
    for (int64_t i = 0; i < 3; ++i)
        EXPECT_NEAR(remote.value()[i], local[i], 1e-6);
}

TEST_F(ServerTest, MultiRowInference)
{
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    std::vector<float> input(8, 0.25f);
    auto result = client.infer("tiny", 2, input);
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value().size(), 6u);
}

TEST_F(ServerTest, UnknownModelReported)
{
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    auto result = client.infer("resnet", 1, {1, 2, 3, 4});
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::NotFound);
}

TEST_F(ServerTest, WrongPayloadSizeReported)
{
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    auto result = client.infer("tiny", 1, {1, 2});
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidArgument);
}

TEST_F(ServerTest, RowLimitEnforced)
{
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    std::vector<float> input(4 * kMaxRowsPerRequest, 0.0f);
    EXPECT_TRUE(client.infer("tiny", kMaxRowsPerRequest, input).isOk());
    input.resize(4 * (kMaxRowsPerRequest + 1), 0.0f);
    auto result = client.infer("tiny", kMaxRowsPerRequest + 1, input);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidArgument);
}

TEST_F(ServerTest, SequentialRequestsOnOneConnection)
{
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    for (int i = 0; i < 10; ++i) {
        auto result = client.infer("tiny", 1, {1, 2, 3, 4});
        ASSERT_TRUE(result.isOk());
    }
    EXPECT_EQ(server_->requestsServed(), 10u);
    EXPECT_EQ(server_->connectionsAccepted(), 1u);
}

TEST_F(ServerTest, ConcurrentClients)
{
    startServer();
    constexpr int clients = 8;
    constexpr int per_client = 10;
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int c = 0; c < clients; ++c) {
        workers.emplace_back([this, &failures]() {
            DjinnClient client;
            if (!connect(client).isOk()) {
                ++failures;
                return;
            }
            for (int i = 0; i < per_client; ++i) {
                auto result = client.infer("tiny", 1, {1, 2, 3, 4});
                if (!result.isOk())
                    ++failures;
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(server_->requestsServed(),
              static_cast<uint64_t>(clients * per_client));
    EXPECT_EQ(server_->connectionsAccepted(),
              static_cast<uint64_t>(clients));
}

TEST_F(ServerTest, BatchingModeServesCorrectResults)
{
    ServerConfig config;
    config.batching = true;
    config.batchOptions.maxQueries = 4;
    startServer(config);

    auto net = registry_.find("tiny");
    constexpr int clients = 6;
    std::atomic<int> failures{0};
    std::vector<std::thread> workers;
    for (int c = 0; c < clients; ++c) {
        workers.emplace_back([this, c, net, &failures]() {
            DjinnClient client;
            if (!connect(client).isOk()) {
                ++failures;
                return;
            }
            std::vector<float> input{static_cast<float>(c), 1, 2,
                                     3};
            auto result = client.infer("tiny", 1, input);
            if (!result.isOk()) {
                ++failures;
                return;
            }
            nn::Tensor in(nn::Shape(1, 1, 2, 2));
            std::copy(input.begin(), input.end(), in.data());
            nn::Tensor expected = net->forward(in);
            for (int64_t i = 0; i < 3; ++i) {
                if (std::abs(result.value()[i] - expected[i]) >
                    1e-5) {
                    ++failures;
                }
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServerTest, DescribeModelReportsGeometry)
{
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    auto info = client.describeModel("tiny");
    ASSERT_TRUE(info.isOk()) << info.status().toString();
    EXPECT_EQ(info.value().channels, 1);
    EXPECT_EQ(info.value().height, 2);
    EXPECT_EQ(info.value().width, 2);
    EXPECT_EQ(info.value().inputElems(), 4);
    EXPECT_EQ(info.value().outputs, 3);
}

TEST_F(ServerTest, DescribeUnknownModelFails)
{
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    auto info = client.describeModel("resnet");
    ASSERT_FALSE(info.isOk());
    EXPECT_EQ(info.status().code(), StatusCode::NotFound);
}

TEST_F(ServerTest, StatsTrackServedRequests)
{
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(client.infer("tiny", 2, std::vector<float>(
            8, 0.5f)).isOk());

    auto stats = client.serverStats();
    ASSERT_TRUE(stats.isOk()) << stats.status().toString();
    ASSERT_EQ(stats.value().size(), 1u);
    const auto &s = stats.value()[0];
    EXPECT_EQ(s.model, "tiny");
    EXPECT_EQ(s.requests, 5u);
    EXPECT_EQ(s.rows, 10u);
    EXPECT_GE(s.meanServiceMs, 0.0);

    // Server-side snapshot agrees.
    auto local = server_->stats();
    ASSERT_EQ(local.size(), 1u);
    EXPECT_EQ(local[0].requests, 5u);
}

TEST_F(ServerTest, StatsReadRequestLogsWithoutNewSeries)
{
    // stats() and requestsServed() read the request logs' own
    // instruments, a model added after construction included: they
    // register no series, and the Stats reply is byte for byte the
    // one a registry snapshot derives.
    startServer();
    auto net = nn::parseNetDefOrDie(
        "name late\ninput 1 2 2\nlayer fc fc out 3\n");
    nn::initializeWeights(*net, 6);
    ASSERT_TRUE(registry_.add(std::move(net)).isOk());
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(client.infer("tiny", 2, std::vector<float>(
            8, 0.25f * i)).isOk());
    ASSERT_TRUE(client.infer("late", 1, {1, 2, 3, 4}).isOk());

    const size_t series = server_->metrics().size();
    EXPECT_EQ(server_->requestsServed(), 4u);
    auto local = server_->stats();
    EXPECT_EQ(server_->metrics().size(), series);
    ASSERT_EQ(local.size(), 2u);
    EXPECT_EQ(local[0].model, "late");
    EXPECT_EQ(local[1].rows, 6u);

    const auto samples = server_->metrics().snapshot();
    std::string expected;
    for (const char *model : {"late", "tiny"}) {
        const telemetry::LabelMap label{{"model", model}};
        const Fold requests =
            registryFold(samples, "djinn_requests_total", label);
        const Fold service = registryFold(
            samples, "djinn_phase_seconds",
            {{"model", model}, {"phase", "service"}});
        expected += strprintf(
            "%s,%llu,%llu,%.3f\n", model,
            static_cast<unsigned long long>(requests.count),
            static_cast<unsigned long long>(
                registryFold(samples, "djinn_rows_total", label).count),
            service.sum / requests.count * 1e3);
    }

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    FrameIo io(fd);
    Request stats;
    stats.type = RequestType::Stats;
    ASSERT_TRUE(io.writeFrame(encodeRequest(stats)).isOk());
    auto frame = io.readFrame();
    ::close(fd);
    ASSERT_TRUE(frame.isOk());
    auto reply = decodeResponse(frame.value());
    ASSERT_TRUE(reply.isOk());
    EXPECT_EQ(reply.value().message, expected);
}

TEST_F(ServerTest, StatsEmptyBeforeTraffic)
{
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    auto stats = client.serverStats();
    ASSERT_TRUE(stats.isOk());
    EXPECT_TRUE(stats.value().empty());
}

TEST_F(ServerTest, StatsExcludeFailedRequests)
{
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    (void)client.infer("tiny", 1, {1.0f}); // wrong size, rejected
    (void)client.infer("missing", 1, {1, 2, 3, 4});
    auto stats = client.serverStats();
    ASSERT_TRUE(stats.isOk());
    EXPECT_TRUE(stats.value().empty());
}

TEST_F(ServerTest, StopUnblocksAndRejects)
{
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    server_->stop();
    // Later requests on the (now closed) connection fail cleanly.
    auto result = client.infer("tiny", 1, {1, 2, 3, 4});
    EXPECT_FALSE(result.isOk());
}

TEST_F(ServerTest, StopCompletesWithIdleConnectedClients)
{
    // Regression: stop() used to join worker threads that were
    // parked in read() on idle connections - a hang. It must shut
    // those sockets down and return promptly.
    startServer();
    DjinnClient a, b;
    ASSERT_TRUE(connect(a).isOk());
    ASSERT_TRUE(connect(b).isOk());
    ASSERT_TRUE(a.ping().isOk()); // ensure workers are parked
    ASSERT_TRUE(b.ping().isOk());

    auto start = std::chrono::steady_clock::now();
    server_->stop();
    double seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    EXPECT_LT(seconds, 2.0);
}

TEST_F(ServerTest, DoubleStartRejected)
{
    startServer();
    EXPECT_FALSE(server_->start().isOk());
}

TEST_F(ServerTest, StopIsIdempotent)
{
    startServer();
    server_->stop();
    server_->stop();
    SUCCEED();
}

TEST_F(ServerTest, ClientConnectToClosedPortFails)
{
    startServer();
    uint16_t port = server_->port();
    server_->stop();
    server_.reset();
    DjinnClient client;
    EXPECT_FALSE(client.connect("127.0.0.1", port).isOk());
}

TEST_F(ServerTest, ClientRejectsBadAddress)
{
    DjinnClient client;
    EXPECT_FALSE(client.connect("not-an-ip", 1234).isOk());
}

TEST_F(ServerTest, ClientInferWithoutConnectFails)
{
    DjinnClient client;
    auto result = client.infer("tiny", 1, {1, 2, 3, 4});
    EXPECT_EQ(result.status().code(), StatusCode::Unavailable);
}

TEST_F(ServerTest, MetricsExpositionRoundTrip)
{
    // The full telemetry story over the wire: a batching server
    // handles traffic, the client fetches the Prometheus exposition
    // via the Metrics verb, parses it, and the numbers agree with
    // the server-local stats() view.
    ServerConfig config;
    config.batching = true;
    config.batchOptions.maxQueries = 4;
    startServer(config);
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(client.infer("tiny", 2, std::vector<float>(
            8, 0.5f)).isOk());

    auto text = client.metricsExposition();
    ASSERT_TRUE(text.isOk()) << text.status().toString();
    auto parsed = telemetry::parseExposition(text.value());
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    const auto &samples = parsed.value();

    auto requests = telemetry::findSample(
        samples, "djinn_requests_total", {{"model", "tiny"}});
    ASSERT_TRUE(requests.isOk());
    EXPECT_DOUBLE_EQ(requests.value(), 6.0);

    auto rows = telemetry::findSample(
        samples, "djinn_rows_total", {{"model", "tiny"}});
    ASSERT_TRUE(rows.isOk());
    EXPECT_DOUBLE_EQ(rows.value(), 12.0);

    // Batching phases made it into the exposition with quantiles.
    auto wait_count = telemetry::findSample(
        samples, "djinn_phase_seconds_count",
        {{"model", "tiny"}, {"phase", "queue_wait"}});
    ASSERT_TRUE(wait_count.isOk());
    EXPECT_DOUBLE_EQ(wait_count.value(), 6.0);
    auto forward_p95 = telemetry::findSample(
        samples, "djinn_phase_seconds",
        {{"model", "tiny"}, {"phase", "forward"},
         {"quantile", "0.95"}});
    ASSERT_TRUE(forward_p95.isOk());
    EXPECT_GE(forward_p95.value(), 0.0);

    // stats() is a view over the same registry.
    auto local = server_->stats();
    ASSERT_EQ(local.size(), 1u);
    EXPECT_EQ(local[0].model, "tiny");
    EXPECT_EQ(local[0].requests, 6u);
    EXPECT_EQ(local[0].rows, 12u);
    EXPECT_GE(local[0].p50ServiceMs, 0.0);
    EXPECT_GE(local[0].p95ServiceMs, local[0].p50ServiceMs);
    EXPECT_GE(local[0].p99ServiceMs, local[0].p95ServiceMs);
    auto service_count = telemetry::findSample(
        samples, "djinn_phase_seconds_count",
        {{"model", "tiny"}, {"phase", "service"}});
    ASSERT_TRUE(service_count.isOk());
    EXPECT_DOUBLE_EQ(service_count.value(), 6.0);
}

TEST_F(ServerTest, MetricsJsonFormat)
{
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    ASSERT_TRUE(client.infer("tiny", 1, std::vector<float>(
        4, 0.5f)).isOk());
    auto json = client.metricsExposition("json");
    ASSERT_TRUE(json.isOk()) << json.status().toString();
    EXPECT_NE(json.value().find("\"djinn_requests_total\""),
              std::string::npos);
    EXPECT_NE(json.value().find("\"metrics\""), std::string::npos);
}

TEST_F(ServerTest, MetricsBadFormatRejected)
{
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    auto result = client.metricsExposition("xml");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidArgument);
}

TEST_F(ServerTest, MetricsCountErrorsByReason)
{
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    (void)client.infer("missing", 1, {1, 2, 3, 4});
    (void)client.infer("tiny", 1, {1.0f}); // wrong payload size
    auto text = client.metricsExposition();
    ASSERT_TRUE(text.isOk());
    auto parsed = telemetry::parseExposition(text.value());
    ASSERT_TRUE(parsed.isOk());
    auto unknown = telemetry::findSample(
        parsed.value(), "djinn_request_errors_total",
        {{"reason", "unknown_model"}});
    ASSERT_TRUE(unknown.isOk());
    EXPECT_DOUBLE_EQ(unknown.value(), 1.0);
    auto bad = telemetry::findSample(
        parsed.value(), "djinn_request_errors_total",
        {{"reason", "bad_request"}});
    ASSERT_TRUE(bad.isOk());
    EXPECT_DOUBLE_EQ(bad.value(), 1.0);
}

TEST_F(ServerTest, UnknownModelNamesShareOneSeriesSet)
{
    // Every name the registry does not hold records under one model
    // label, so naming models cannot grow the exposition without
    // bound; a model registered after construction keeps its own.
    startServer();
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());
    (void)client.infer("bogus0", 1, {1, 2, 3, 4});
    size_t series = server_->metrics().snapshot().size();
    for (int i = 1; i < 50; ++i)
        (void)client.infer("bogus" + std::to_string(i), 1,
                           {1, 2, 3, 4});
    auto samples = server_->metrics().snapshot();
    EXPECT_EQ(samples.size(), series);
    Fold unknown = registryFold(samples, "djinn_request_seconds",
                                {{"model", kUnknownModelLabel}});
    EXPECT_EQ(unknown.count, 50u);
    EXPECT_EQ(registryFold(samples, "djinn_request_seconds",
                           {{"model", "bogus7"}}).count, 0u);

    auto net = nn::parseNetDefOrDie(
        "name late\ninput 1 2 2\nlayer fc fc out 3\n"
        "layer prob softmax\n");
    nn::initializeWeights(*net, 6);
    ASSERT_TRUE(registry_.add(std::move(net)).isOk());
    ASSERT_TRUE(client.infer("late", 1, {1, 2, 3, 4}).isOk());
    EXPECT_EQ(registryFold(server_->metrics().snapshot(),
                           "djinn_request_seconds", {{"model", "late"}})
                  .count,
              1u);
}

TEST_F(ServerTest, RegistryIsAViewOfFlightRecords)
{
    // Each finished request is written once, as its flight record,
    // and every per-request family is derived from it: a family's
    // count (and sum, where the record holds the sampled value)
    // equals the matching fold over the records. The traffic:
    // successes of varying rows, an over-cap BadRequest, and with
    // batching a queue-full shed and a deadline shed.
    ForwardHold hold;
    {
        auto net = heldNetwork("held", &hold);
        nn::initializeWeights(*net, 5);
        ASSERT_TRUE(registry_.add(std::move(net)).isOk());
    }
    for (bool batching : {false, true}) {
        SCOPED_TRACE(batching ? "batching" : "unbatched");
        ServerConfig config;
        config.batching = batching;
        config.batchOptions.maxQueries = 64;
        config.batchOptions.maxQueueDepth = 2;
        startServer(config);
        auto infer = [this](int rows, uint32_t deadline_ms = 0,
                            float first = 0.5f) {
            DjinnClient client;
            if (!connect(client).isOk())
                return StatusCode::Unavailable;
            client.setDeadlineMs(deadline_ms);
            std::vector<float> input(4 * rows, 0.5f);
            input[0] = first;
            return client.infer("held", rows, input).status().code();
        };
        const int cap = static_cast<int>(kMaxRowsPerRequest);
        for (int rows : {2, 3, 5, cap})
            EXPECT_EQ(infer(rows), StatusCode::Ok);
        EXPECT_EQ(infer(cap + 1), StatusCode::InvalidArgument);
        if (batching) {
            // Hold a forward in flight. A 1 ms budget queues behind
            // it and expires; a second query fills the queue to its
            // cap of 2, so a third is shed at admission.
            auto queued = [this](double depth) {
                telemetry::Gauge &gauge = server_->metrics().gauge(
                    "djinn_batch_queue_depth", {{"model", "held"}});
                for (int i = 0; i < 5000 && gauge.value() < depth; ++i)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                return gauge.value() >= depth;
            };
            hold.close();
            std::thread held([&]() {
                EXPECT_EQ(infer(1, 0, kHoldMarker), StatusCode::Ok);
            });
            hold.awaitEntered();
            std::thread late([&]() {
                EXPECT_EQ(infer(2, 1), StatusCode::DeadlineExceeded);
            });
            EXPECT_TRUE(queued(1.0));
            std::thread filler([&]() {
                EXPECT_EQ(infer(3), StatusCode::Ok);
            });
            EXPECT_TRUE(queued(2.0));
            EXPECT_EQ(infer(2), StatusCode::Overloaded);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            hold.open();
            held.join();
            late.join();
            filler.join();
        }

        // Every response is written after its record, so the
        // registry and the recorder are complete here.
        const std::vector<telemetry::FlightRecord> records =
            server_->flightRecorder().snapshot();
        EXPECT_EQ(records.size(), batching ? 9u : 5u);
        Fold decode, encode, wait, service, total, ok, rows;
        uint64_t submitted = 0;
        double cycles = 0.0;
        for (const telemetry::FlightRecord &r : records) {
            EXPECT_EQ(r.modelName(), "held");
            decode.add(r.decodeSeconds);
            encode.add(r.encodeSeconds);
            total.add(r.totalSeconds);
            cycles += static_cast<double>(r.cycles);
            // Batcher outcomes: admitted, or shed at admission.
            if (batching &&
                r.outcome != telemetry::FlightOutcome::Error) {
                ++submitted;
                if (r.outcome !=
                    telemetry::FlightOutcome::ShedQueueFull)
                    wait.add(r.queueWaitSeconds);
            }
            if (r.outcome == telemetry::FlightOutcome::Ok) {
                service.add(r.serviceSeconds);
                ok.add(1.0);
                rows.add(static_cast<double>(r.rows));
            }
        }
        EXPECT_EQ(ok.count, batching ? 6u : 4u);

        const std::vector<telemetry::MetricSample> samples =
            server_->metrics().snapshot();
        const telemetry::LabelMap model{{"model", "held"}};
        auto phase = [](const char *name) {
            return telemetry::LabelMap{{"model", "held"},
                                       {"phase", name}};
        };
        auto expect_view = [&](const std::string &name,
                               const telemetry::LabelMap &labels,
                               const Fold &want, bool sums) {
            const std::string id = telemetry::renderMetricId(name, labels);
            Fold got = registryFold(samples, name, labels);
            EXPECT_EQ(got.count, want.count) << id;
            if (sums) {
                EXPECT_NEAR(got.sum, want.sum,
                            1e-9 * std::abs(want.sum))
                    << id;
            }
        };
        const Fold counted{records.size(), 0.0};
        const Fold queued{submitted, 0.0};
        const bool hardware = !records.empty() && records[0].hardware;
        expect_view(telemetry::phaseMetricName, phase("decode"), decode,
                    true);
        expect_view(telemetry::phaseMetricName, phase("encode"), encode,
                    true);
        expect_view(telemetry::phaseMetricName, phase("queue_wait"), wait,
                    true);
        expect_view(telemetry::phaseMetricName, phase("service"),
                    service, true);
        expect_view(telemetry::requestSecondsMetricName, model, total,
                    true);
        expect_view(telemetry::requestCyclesMetricName, model,
                    {records.size(), cycles}, hardware);
        for (const char *family :
             {telemetry::phaseCyclesMetricName,
              telemetry::phaseInstructionsMetricName,
              telemetry::phaseIpcMetricName,
              telemetry::phaseCacheMissMetricName}) {
            if (!hardware && family != telemetry::phaseCyclesMetricName)
                continue;
            expect_view(family, phase("decode"), counted, false);
            expect_view(family, phase("encode"), counted, false);
            expect_view(family, phase("queue_wait"), queued, false);
        }
        if (hardware) {
            expect_view(telemetry::requestIpcMetricName, model, counted,
                        false);
        }
        expect_view("djinn_requests_total", model, {ok.count, ok.sum},
                    true);
        expect_view("djinn_rows_total", model,
                    {static_cast<uint64_t>(rows.sum), rows.sum}, true);
        Fold slo = registryFold(samples, telemetry::sloGoodMetricName,
                                model);
        slo.count += registryFold(samples, telemetry::sloBadMetricName,
                                  model)
                         .count;
        EXPECT_EQ(slo.count, ok.count);
        server_->stop();
    }
}

TEST_F(ServerTest, StopDuringConnectionChurn)
{
    // Regression: connections accepted between shutdown(listenFd_)
    // and the acceptor noticing !running_ used to leak their worker
    // threads past stop(). Hammer the acceptor from several threads
    // while stopping; stop() must still return promptly with every
    // connection drained.
    startServer();
    std::atomic<bool> done{false};
    std::vector<std::thread> churners;
    for (int t = 0; t < 4; ++t) {
        churners.emplace_back([this, &done]() {
            while (!done.load()) {
                DjinnClient client;
                if (connect(client).isOk())
                    (void)client.ping();
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // Regression: workers_ used to keep one entry per connection
    // ever accepted (the acceptor never reaped finished threads),
    // growing without bound under churn. The registry must stay
    // proportional to the live connections (4 churners, each one
    // connection at a time), far below the accept count.
    uint64_t accepted = server_->connectionsAccepted();
    size_t workers = server_->workerCount();
    EXPECT_GE(accepted, 16u) << "churn produced too few "
                                "connections for the bound "
                                "to be meaningful";
    EXPECT_LE(workers, 16u)
        << "worker registry grew with accept count (" << accepted
        << " accepted)";

    auto start = std::chrono::steady_clock::now();
    server_->stop();
    double seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    done.store(true);
    for (auto &c : churners)
        c.join();
    EXPECT_LT(seconds, 2.0);
    EXPECT_FALSE(server_->running());
}

} // namespace
} // namespace core
} // namespace djinn
