/**
 * @file
 * End-to-end tests of the continuous observability plane: the live
 * server's time-series store feeding the `top` dashboard and
 * `series:` wire verbs, the structured JSON `/healthz` and
 * `/debug/timeseries` HTTP routes with their JSON error contract,
 * and the sampler-tick-vs-stop() race the TSan stage hammers.
 */

#include "core/djinn_server.hh"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/strings.hh"
#include "core/debug_routes.hh"
#include "core/djinn_client.hh"
#include "core/http_endpoint.hh"
#include "nn/init.hh"
#include "nn/net_def.hh"
#include "telemetry/health.hh"
#include "telemetry/slo.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/tracer.hh"

namespace djinn {
namespace core {
namespace {

class ObservabilityTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto net = nn::parseNetDefOrDie(
            "name tiny\ninput 1 4 4\nlayer fc fc out 8\n");
        nn::initializeWeights(*net, 3);
        ASSERT_TRUE(registry_.add(std::move(net)).isOk());
    }

    void
    startServer(ServerConfig config)
    {
        server_ = std::make_unique<DjinnServer>(registry_, config);
        ASSERT_TRUE(server_->start().isOk());
    }

    ModelRegistry registry_;
    std::unique_ptr<DjinnServer> server_;
};

TEST_F(ObservabilityTest, TopSeriesAndHealthOverWire)
{
    ServerConfig config;
    config.batching = true;
    config.batchOptions.maxQueries = 4;
    config.samplerPeriod = 0.01; // fast ticks for the test
    startServer(config);

    DjinnClient client;
    ASSERT_TRUE(
        client.connect("127.0.0.1", server_->port()).isOk());
    std::vector<float> payload(16, 0.5f);
    for (int i = 0; i < 32; ++i)
        ASSERT_TRUE(client.infer("tiny", 1, payload).isOk());

    // Wait until the sampler has recorded the request history
    // (the store adopts metrics on its first tick after they
    // register).
    auto deadline = std::chrono::steady_clock::now()
        + std::chrono::seconds(10);
    for (;;) {
        const telemetry::TimeSeriesStore *store =
            server_->timeSeries();
        ASSERT_NE(store, nullptr);
        if (store->sampleCount() >= 3
            && !store->trackIds("djinn_requests_total").empty())
            break;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "sampler never populated the store";
        std::this_thread::sleep_for(
            std::chrono::milliseconds(20));
    }

    // The live dashboard names the model and its column header.
    auto top = client.metricsExposition("top");
    ASSERT_TRUE(top.isOk());
    EXPECT_NE(top.value().find("djinn top"), std::string::npos)
        << top.value();
    EXPECT_NE(top.value().find("tiny"), std::string::npos)
        << top.value();
    EXPECT_NE(top.value().find("QPS"), std::string::npos);

    // Windowed variant parses its suffix.
    auto top5 = client.metricsExposition("top:5");
    ASSERT_TRUE(top5.isOk());
    EXPECT_NE(top5.value().find("window 5s"), std::string::npos)
        << top5.value();

    // Per-model series of the request counter.
    auto series =
        client.metricsExposition("series:djinn_requests_total");
    ASSERT_TRUE(series.isOk());
    EXPECT_NE(series.value().find(
                  "\"metric\": \"djinn_requests_total\""),
              std::string::npos)
        << series.value();
    EXPECT_NE(series.value().find("\"points\": ["),
              std::string::npos);

    // Structured health verdict with uptime.
    auto health = client.metricsExposition("health");
    ASSERT_TRUE(health.isOk());
    EXPECT_NE(health.value().find("\"status\": \"ok\""),
              std::string::npos)
        << health.value();
    EXPECT_NE(health.value().find("\"uptime_seconds\""),
              std::string::npos);

    // A bad series spec is a BadRequest, not a crash.
    auto bad = client.metricsExposition("series:");
    EXPECT_FALSE(bad.isOk());

    server_->stop();
}

TEST_F(ObservabilityTest, VerbsFailCleanlyWithoutStore)
{
    ServerConfig config;
    config.tracing = false; // disables sampler, store, monitor
    startServer(config);
    EXPECT_EQ(server_->timeSeries(), nullptr);
    EXPECT_EQ(server_->health(), nullptr);

    DjinnClient client;
    ASSERT_TRUE(
        client.connect("127.0.0.1", server_->port()).isOk());
    EXPECT_FALSE(client.metricsExposition("top").isOk());
    EXPECT_FALSE(client.metricsExposition("health").isOk());
    EXPECT_FALSE(
        client.metricsExposition("series:djinn_requests_total")
            .isOk());
    // The plain exposition still works.
    EXPECT_TRUE(client.metricsExposition().isOk());
    server_->stop();
}

/**
 * Numeric Metrics-verb arguments take the HTTP routes' bounds: a
 * non-numeric or out-of-range suffix is a BadRequest (the client
 * sees InvalidArgument), never a silently defaulted report.
 */
class VerbArgumentTest : public ObservabilityTest
{
  protected:
    void
    SetUp() override
    {
        ObservabilityTest::SetUp();
        ServerConfig config;
        config.samplerPeriod = 0.01;
        startServer(config);
        ASSERT_TRUE(
            client_.connect("127.0.0.1", server_->port()).isOk());
    }

    StatusCode
    code(const std::string &format)
    {
        return client_.metricsExposition(format).status().code();
    }

    DjinnClient client_;
};

TEST_F(VerbArgumentTest, TailRejectsBadPercentile)
{
    EXPECT_EQ(code("tail:90"), StatusCode::Ok);
    for (const char *bad : {"tail:abc", "tail:0", "tail:100",
                            "tail:-3", "tail:50x", "tail:nan"})
        EXPECT_EQ(code(bad), StatusCode::InvalidArgument) << bad;
}

TEST_F(VerbArgumentTest, ProfileRejectsBadWindow)
{
    for (const char *bad : {"profile:abc", "profile:0",
                            "profile:61", "profile:-1",
                            "profile:1.5"})
        EXPECT_EQ(code(bad), StatusCode::InvalidArgument) << bad;
}

TEST_F(VerbArgumentTest, TopRejectsBadWindow)
{
    for (const char *bad : {"top:abc", "top:-3", "top:0",
                            "top:86401", "top:inf"})
        EXPECT_EQ(code(bad), StatusCode::InvalidArgument) << bad;
}

TEST_F(VerbArgumentTest, SeriesRejectsBadWindow)
{
    for (const char *bad :
         {"series:djinn_requests_total:abc",
          "series:djinn_requests_total:-3",
          "series:djinn_requests_total:0",
          "series:djinn_requests_total:86401"})
        EXPECT_EQ(code(bad), StatusCode::InvalidArgument) << bad;
}

TEST(ObservabilityHttp, TimeseriesRouteAndJsonErrors)
{
    telemetry::MetricRegistry metrics;
    telemetry::Tracer tracer(256);
    telemetry::Counter &requests =
        metrics.counter("djinn_requests_total", {{"model", "m"}});
    telemetry::TimeSeriesStore store(metrics);
    for (int t = 0; t <= 10; ++t) {
        requests.inc(5);
        store.sample(static_cast<double>(t));
    }

    HttpEndpoint bare(
        DebugRoutes({.metrics = &metrics, .tracer = &tracer}));
    std::string type, body;

    // Without a store the route reports 503 with a JSON error.
    EXPECT_EQ(bare.handle(
                  "/debug/timeseries?metric=djinn_requests_total",
                  type, body),
              503);
    EXPECT_NE(body.find("\"error\""), std::string::npos);

    telemetry::FlightRecorder flight(64, 0);
    HttpEndpoint endpoint(
        DebugRoutes({.metrics = &metrics, .tracer = &tracer,
                     .flight = &flight, .timeseries = &store}));
    EXPECT_EQ(endpoint.handle(
                  "/debug/timeseries?metric=djinn_requests_total"
                  "&window=60",
                  type, body),
              200);
    EXPECT_EQ(type, "application/json");
    EXPECT_NE(body.find("\"series\""), std::string::npos);
    EXPECT_NE(body.find("\"model\": \"m\""), std::string::npos);

    // Missing metric parameter.
    EXPECT_EQ(endpoint.handle("/debug/timeseries", type, body),
              400);
    EXPECT_NE(body.find("\"error\""), std::string::npos);
    EXPECT_NE(body.find("\"status\": 400"), std::string::npos);

    // Out-of-range window and step are bounds-checked.
    EXPECT_EQ(endpoint.handle(
                  "/debug/timeseries?metric=djinn_requests_total"
                  "&window=999999999",
                  type, body),
              400);
    EXPECT_EQ(endpoint.handle(
                  "/debug/timeseries?metric=djinn_requests_total"
                  "&window=60&step=-1",
                  type, body),
              400);

    // Numeric parameters parse strictly: trailing garbage is a 400
    // with the JSON error body, not a silently truncated number.
    for (const char *target :
         {"/debug/timeseries?metric=djinn_requests_total"
          "&window=60abc",
          "/debug/timeseries?metric=djinn_requests_total"
          "&window=60&step=1x",
          "/debug/tail?pct=50x"}) {
        EXPECT_EQ(endpoint.handle(target, type, body), 400)
            << target;
        EXPECT_NE(body.find("\"status\": 400"), std::string::npos)
            << target;
    }

    // Unknown metric.
    EXPECT_EQ(endpoint.handle(
                  "/debug/timeseries?metric=no_such_metric", type,
                  body),
              404);
    EXPECT_NE(body.find("\"error\""), std::string::npos);

    // The JSON error contract also covers the older routes.
    EXPECT_EQ(endpoint.handle("/trace?last=bogus", type, body),
              400);
    EXPECT_NE(body.find("\"error\""), std::string::npos);
    EXPECT_EQ(endpoint.handle("/nope", type, body), 404);
    EXPECT_NE(body.find("\"error\""), std::string::npos);
}

TEST(ObservabilityHttp, HealthzPlainAndStructured)
{
    telemetry::MetricRegistry metrics;
    telemetry::Tracer tracer(256);
    HttpEndpoint bare(
        DebugRoutes({.metrics = &metrics, .tracer = &tracer}));
    std::string type, body;

    // Without a monitor the legacy plain liveness reply stands.
    EXPECT_EQ(bare.handle("/healthz", type, body), 200);
    EXPECT_EQ(body, "ok\n");

    // With a monitor the verdict is structured JSON.
    telemetry::TimeSeriesStore store(metrics);
    double now = 0.0;
    telemetry::HealthMonitor monitor(store, metrics,
                                     [&now] { return now; });
    metrics.counter("djinn_requests_total").inc();
    for (int t = 0; t <= 5; ++t) {
        now = static_cast<double>(t);
        store.sample(now);
    }
    HttpEndpoint endpoint(DebugRoutes({.metrics = &metrics,
                                       .tracer = &tracer,
                                       .health = &monitor,
                                       .startTraceSeconds = 0.0}));
    EXPECT_EQ(endpoint.handle("/healthz", type, body), 200);
    EXPECT_EQ(type, "application/json");
    EXPECT_NE(body.find("\"status\": \"ok\""), std::string::npos)
        << body;
    EXPECT_NE(body.find("\"uptime_seconds\""), std::string::npos);

    // Degraded (stale sampler) still answers 200: degraded means
    // "serving with issues", not "kill the backend".
    now = 1000.0;
    EXPECT_EQ(endpoint.handle("/healthz", type, body), 200);
    EXPECT_NE(body.find("\"status\": \"degraded\""),
              std::string::npos)
        << body;
    EXPECT_NE(body.find("\"rule\": \"stale\""), std::string::npos);

    // Unhealthy answers 503 so load balancers eject the backend.
    telemetry::Gauge &depth =
        metrics.gauge("djinn_batch_queue_depth_total");
    telemetry::Counter &batches =
        metrics.counter("djinn_batches_total");
    batches.inc();
    for (int t = 1000; t <= 1040; ++t) {
        depth.set(5.0);
        now = static_cast<double>(t);
        store.sample(now);
    }
    EXPECT_EQ(endpoint.handle("/healthz", type, body), 503);
    EXPECT_NE(body.find("\"status\": \"unhealthy\""),
              std::string::npos)
        << body;
}

TEST_F(ObservabilityTest, SamplerTickVsStopRace)
{
    // The sampler hook samples the store and ticks the monitor;
    // stop() flags draining and tears the sampler down. Cycle the
    // pair rapidly — TSan runs this suite to prove the shutdown
    // ordering is clean.
    for (int round = 0; round < 20; ++round) {
        ServerConfig config;
        config.batching = true;
        config.batchOptions.maxQueries = 2;
        config.samplerPeriod = 0.0005;
        DjinnServer server(registry_, config);
        ASSERT_TRUE(server.start().isOk());
        DjinnClient client;
        ASSERT_TRUE(
            client.connect("127.0.0.1", server.port()).isOk());
        std::vector<float> payload(16, 0.5f);
        (void)client.infer("tiny", 1, payload);
        server.stop();
        // After stop the last verdict is a drain: never unhealthy.
        const telemetry::HealthMonitor *health = server.health();
        ASSERT_NE(health, nullptr);
        EXPECT_NE(health->lastVerdict().level,
                  telemetry::HealthLevel::Unhealthy);
    }
}


/** The server classifies each served request against its SLO
 * target. */
class SloTrackerTest : public ObservabilityTest
{
  protected:
    double
    value(const char *name)
    {
        for (const auto &s : server_->metrics().snapshot()) {
            if (s.name == name && s.labels.count("model") &&
                s.labels.at("model") == "tiny")
                return s.value;
        }
        return -1.0;
    }

    void
    serve(double target_seconds, int requests)
    {
        ServerConfig config;
        config.tracing = false; // no sampler: burn stays 0
        config.sloTargetSeconds = target_seconds;
        startServer(config);
        DjinnClient client;
        ASSERT_TRUE(
            client.connect("127.0.0.1", server_->port()).isOk());
        std::vector<float> payload(16, 0.5f);
        for (int i = 0; i < requests; ++i)
            ASSERT_TRUE(client.infer("tiny", 1, payload).isOk());
    }
};

TEST_F(SloTrackerTest, ClassifiesAgainstDefaultTarget)
{
    // A generous target: every request is good, and the model's
    // whole family is exported, the bad counter and burn rate at 0.
    serve(100.0, 3);
    EXPECT_EQ(value(telemetry::sloGoodMetricName), 3.0);
    EXPECT_EQ(value(telemetry::sloBadMetricName), 0.0);
    EXPECT_EQ(value(telemetry::sloTargetMetricName), 100.0);
    EXPECT_EQ(value(telemetry::sloBurnRateMetricName), 0.0);
    server_->stop();

    // An impossible target: every request is bad.
    serve(1e-12, 2);
    EXPECT_EQ(value(telemetry::sloGoodMetricName), 0.0);
    EXPECT_EQ(value(telemetry::sloBadMetricName), 2.0);
    server_->stop();

    // No target: no SLO families at all.
    serve(0.0, 1);
    EXPECT_EQ(value(telemetry::sloGoodMetricName), -1.0);
    EXPECT_EQ(value(telemetry::sloTargetMetricName), -1.0);
    server_->stop();
}

/** One HTTP/1.0 GET against 127.0.0.1:@p port: {status, body}, or
 * status -1 on an I/O error. */
std::pair<int, std::string>
httpGet(uint16_t port, const std::string &target)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)) < 0) {
        if (fd >= 0)
            ::close(fd);
        return {-1, ""};
    }
    std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
    (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0)
        response.append(buf, static_cast<size_t>(n));
    ::close(fd);
    int code = -1;
    size_t sep = response.find("\r\n\r\n");
    if (std::sscanf(response.c_str(), "HTTP/1.0 %d", &code) != 1 ||
        sep == std::string::npos)
        return {-1, ""};
    return {code, response.substr(sep + 4)};
}

/**
 * The two surfaces serve one table. For every route with both a
 * wire verb and an HTTP path, the same arguments give
 * byte-identical bodies on one live server, and every declared
 * numeric bound (plus trailing garbage) is rejected on both: 400
 * with the JSON error over HTTP, BadRequest on the wire. Driven by
 * DebugRoutes::table(), so a route added later is covered with no
 * new test code.
 */
TEST_F(ObservabilityTest, DebugRouteSurfacesAgree)
{
    ServerConfig config;
    config.httpPort = 0;
    // The sampler ticks once at start and not again during the
    // test, so the store, the trace ring and the registry's gauges
    // hold still while the two surfaces are compared.
    config.samplerPeriod = 3600.0;
    startServer(config);
    DjinnClient client;
    ASSERT_TRUE(
        client.connect("127.0.0.1", server_->port()).isOk());
    std::vector<float> payload(16, 0.5f);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(client.infer("tiny", 1, payload).isOk());
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server_->timeSeries()->sampleCount() == 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    // A valid value per parameter: its default, or for a required
    // text parameter a name the server has (registered before the
    // sampler's first tick).
    auto valid = [](const DebugParam &p) -> std::string {
        if (p.kind == DebugParam::Kind::Text)
            return "djinn_compute_threads";
        return strprintf("%.17g", p.fallback);
    };
    // The wire format and HTTP target for one route, with param
    // @p bad_index (if any) replaced by @p bad_value.
    auto request = [&](const DebugRoute &route, size_t bad_index,
                       const std::string &bad_value) {
        std::string format = route.verb;
        std::string target = std::string(route.path) + "?";
        for (size_t i = 0; i < route.params.size(); ++i) {
            const DebugParam &p = route.params[i];
            const bool bad = i == bad_index;
            if (!bad && !p.wire)
                continue; // HTTP-only: leave at its default
            const std::string value = bad ? bad_value : valid(p);
            if (p.wire)
                format += ":" + value;
            target += std::string(p.name) + "=" + value + "&";
        }
        return std::make_pair(format, target);
    };

    size_t dual = 0;
    for (const DebugRoute &route : DebugRoutes::table()) {
        if (!route.verb || !route.path)
            continue;
        ++dual;
        // A sampling window is never byte-identical twice.
        if (std::string(route.verb) == "profile")
            continue;
        auto [format, target] = request(route, SIZE_MAX, "");
        auto wire = client.metricsExposition(format);
        ASSERT_TRUE(wire.isOk()) << format << ": "
                                 << wire.status().toString();
        auto [code, body] = httpGet(server_->httpPort(), target);
        EXPECT_EQ(code, 200) << target;
        EXPECT_EQ(body, wire.value()) << format << " vs " << target;
    }
    EXPECT_GE(dual, 4u);

    for (const DebugRoute &route : DebugRoutes::table()) {
        if (!route.verb || !route.path)
            continue;
        for (size_t i = 0; i < route.params.size(); ++i) {
            const DebugParam &p = route.params[i];
            if (p.kind == DebugParam::Kind::Text)
                continue;
            std::vector<std::string> bad = {valid(p) + "x"};
            bad.push_back(strprintf("%.17g", p.loOpen ? p.lo
                                                      : p.lo - 1));
            if (std::isfinite(p.hi)) {
                bad.push_back(strprintf("%.17g", p.hiOpen ? p.hi
                                                          : p.hi + 1));
            }
            for (const std::string &value : bad) {
                auto [format, target] = request(route, i, value);
                auto [code, body] =
                    httpGet(server_->httpPort(), target);
                EXPECT_EQ(code, 400) << target;
                EXPECT_NE(body.find("\"status\": 400"),
                          std::string::npos)
                    << target;
                if (p.wire) {
                    EXPECT_EQ(client.metricsExposition(format)
                                  .status()
                                  .code(),
                              StatusCode::InvalidArgument)
                        << format;
                }
            }
        }
    }
    server_->stop();
}

} // namespace
} // namespace core
} // namespace djinn
