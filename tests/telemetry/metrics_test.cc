/**
 * @file
 * Unit tests for the metric registry, the exposition formats (text
 * render + parse round-trip, JSON), and request recording.
 */

#include "telemetry/metrics.hh"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "telemetry/exposition.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/trace.hh"

namespace djinn {
namespace telemetry {
namespace {

TEST(MetricRegistryTest, CounterBasics)
{
    MetricRegistry registry;
    Counter &requests = registry.counter("djinn_requests_total",
                                         {{"model", "mnist"}});
    EXPECT_EQ(requests.value(), 0u);
    requests.inc();
    requests.inc(4);
    EXPECT_EQ(requests.value(), 5u);
    // Same (name, labels) resolves to the same object.
    EXPECT_EQ(&registry.counter("djinn_requests_total",
                                {{"model", "mnist"}}),
              &requests);
    // A different label set is a distinct instrument.
    Counter &other = registry.counter("djinn_requests_total",
                                      {{"model", "alexnet"}});
    EXPECT_NE(&other, &requests);
    EXPECT_EQ(other.value(), 0u);
    EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricRegistryTest, GaugeBasics)
{
    MetricRegistry registry;
    Gauge &depth = registry.gauge("djinn_batch_queue_depth");
    depth.set(7.0);
    EXPECT_DOUBLE_EQ(depth.value(), 7.0);
    depth.add(-3.0);
    EXPECT_DOUBLE_EQ(depth.value(), 4.0);
}

TEST(MetricRegistryTest, HistogramOptionsApplyOnCreationOnly)
{
    MetricRegistry registry;
    HistogramOptions options;
    options.firstBound = 1.0;
    options.growth = 2.0;
    options.bucketCount = 4;
    LogHistogram &hist =
        registry.histogram("djinn_batch_rows", {}, options);
    EXPECT_EQ(hist.options().bucketCount, 4);
    // A second lookup with different options returns the original.
    HistogramOptions other;
    other.bucketCount = 32;
    EXPECT_EQ(&registry.histogram("djinn_batch_rows", {}, other),
              &hist);
    EXPECT_EQ(hist.options().bucketCount, 4);
}

TEST(MetricRegistryTest, KindCollisionIsFatal)
{
    MetricRegistry registry;
    registry.counter("djinn_requests_total");
    EXPECT_THROW(registry.gauge("djinn_requests_total"), FatalError);
    EXPECT_THROW(registry.histogram("djinn_requests_total"),
                 FatalError);
}

TEST(MetricRegistryTest, SnapshotIsSortedAndComplete)
{
    MetricRegistry registry;
    registry.counter("zeta_total").inc(3);
    registry.gauge("alpha_depth").set(2.5);
    registry.histogram("mid_seconds").record(0.25);

    auto samples = registry.snapshot();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].name, "alpha_depth");
    EXPECT_EQ(samples[0].kind, MetricKind::Gauge);
    EXPECT_DOUBLE_EQ(samples[0].value, 2.5);
    EXPECT_EQ(samples[1].name, "mid_seconds");
    EXPECT_EQ(samples[1].kind, MetricKind::Histogram);
    EXPECT_EQ(samples[1].histogram.count, 1u);
    EXPECT_EQ(samples[2].name, "zeta_total");
    EXPECT_EQ(samples[2].kind, MetricKind::Counter);
    EXPECT_DOUBLE_EQ(samples[2].value, 3.0);
}

TEST(MetricRegistryTest, ConcurrentLookupAndUpdate)
{
    MetricRegistry registry;
    constexpr int threads = 8;
    constexpr int per_thread = 5000;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&registry]() {
            for (int i = 0; i < per_thread; ++i) {
                registry.counter("shared_total").inc();
                registry
                    .histogram("shared_seconds",
                               {{"model", "tiny"}})
                    .record(1e-4);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(registry.counter("shared_total").value(),
              static_cast<uint64_t>(threads) * per_thread);
    EXPECT_EQ(registry.histogram("shared_seconds",
                                 {{"model", "tiny"}})
                  .count(),
              static_cast<uint64_t>(threads) * per_thread);
}

TEST(MetricIdTest, RenderWithAndWithoutLabels)
{
    EXPECT_EQ(renderMetricId("djinn_requests_total", {}),
              "djinn_requests_total");
    EXPECT_EQ(renderMetricId("djinn_phase_seconds",
                             {{"model", "mnist"},
                              {"phase", "forward"}}),
              "djinn_phase_seconds{model=\"mnist\","
              "phase=\"forward\"}");
}

TEST(ExpositionTest, PrometheusRoundTrip)
{
    MetricRegistry registry;
    registry.counter("djinn_requests_total", {{"model", "mnist"}})
        .inc(12);
    registry.gauge("djinn_inflight_requests").set(2.0);
    LogHistogram &hist = registry.histogram(
        "djinn_phase_seconds",
        {{"model", "mnist"}, {"phase", "forward"}});
    for (int i = 0; i < 100; ++i)
        hist.record(2e-3);

    std::string text = renderPrometheus(registry.snapshot());
    auto parsed = parseExposition(text);
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    const auto &samples = parsed.value();

    auto requests = findSample(samples, "djinn_requests_total",
                               {{"model", "mnist"}});
    ASSERT_TRUE(requests.isOk());
    EXPECT_DOUBLE_EQ(requests.value(), 12.0);

    auto inflight = findSample(samples, "djinn_inflight_requests");
    ASSERT_TRUE(inflight.isOk());
    EXPECT_DOUBLE_EQ(inflight.value(), 2.0);

    auto count = findSample(samples, "djinn_phase_seconds_count",
                            {{"model", "mnist"},
                             {"phase", "forward"}});
    ASSERT_TRUE(count.isOk());
    EXPECT_DOUBLE_EQ(count.value(), 100.0);

    auto p50 = findSample(samples, "djinn_phase_seconds",
                          {{"model", "mnist"},
                           {"phase", "forward"},
                           {"quantile", "0.5"}});
    ASSERT_TRUE(p50.isOk());
    EXPECT_NEAR(p50.value(), 2e-3, 2e-3);

    auto sum = findSample(samples, "djinn_phase_seconds_sum",
                          {{"model", "mnist"},
                           {"phase", "forward"}});
    ASSERT_TRUE(sum.isOk());
    EXPECT_NEAR(sum.value(), 0.2, 1e-6);

    // Absent samples report NotFound, not garbage.
    EXPECT_FALSE(
        findSample(samples, "djinn_requests_total",
                   {{"model", "nope"}})
            .isOk());
}

TEST(ExpositionTest, ParserRejectsMalformedInput)
{
    EXPECT_FALSE(parseExposition("name_without_value\n").isOk());
    EXPECT_FALSE(
        parseExposition("bad{unterminated=\"x 1\n").isOk());
    EXPECT_FALSE(parseExposition("name not_a_number\n").isOk());
}

TEST(ExpositionTest, ParserSkipsCommentsAndBlankLines)
{
    auto parsed = parseExposition(
        "# TYPE djinn_requests_total counter\n"
        "\n"
        "djinn_requests_total 3\n");
    ASSERT_TRUE(parsed.isOk());
    ASSERT_EQ(parsed.value().size(), 1u);
    EXPECT_DOUBLE_EQ(parsed.value()[0].value, 3.0);
}

TEST(ExpositionTest, JsonContainsSummaryFields)
{
    MetricRegistry registry;
    registry.counter("djinn_requests_total").inc(2);
    LogHistogram &hist = registry.histogram("djinn_phase_seconds");
    hist.record(1e-3);
    hist.record(3e-3);

    std::string json = renderJson(registry.snapshot());
    EXPECT_NE(json.find("\"djinn_requests_total\""),
              std::string::npos);
    EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"p95\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_NE(json.find("\"min\""), std::string::npos);
    EXPECT_NE(json.find("\"max\""), std::string::npos);
}

TEST(RequestTraceTest, PhasesRecordIntoModelHistograms)
{
    MetricRegistry registry;
    FlightRecorder recorder(16, 0);
    RequestLog log(registry, recorder, "mnist", false, 0.0);
    FlightRecord record;
    record.decodeSeconds = 1e-4;
    record.forwardSeconds = 5e-3;
    record.serviceSeconds = 6e-3;
    log.begin();
    log.finish(record, RequestWork{});
    auto &service = registry.histogram(
        phaseMetricName,
        {{"model", "mnist"}, {"phase", "service"}});
    EXPECT_EQ(service.count(), 1u);
    EXPECT_DOUBLE_EQ(service.max(), 6e-3);
    auto &decode = registry.histogram(
        phaseMetricName,
        {{"model", "mnist"}, {"phase", "decode"}});
    EXPECT_EQ(decode.count(), 1u);
    EXPECT_DOUBLE_EQ(decode.max(), 1e-4);
}

TEST(RequestTraceTest, InflightGaugeTracksTraceLifetime)
{
    MetricRegistry registry;
    FlightRecorder recorder(16, 0);
    Gauge &inflight = registry.gauge(inflightMetricName);
    RequestLog log(registry, recorder, "mnist", false, 0.0);
    FlightRecord a, b;
    log.begin();
    EXPECT_DOUBLE_EQ(inflight.value(), 1.0);
    log.begin();
    EXPECT_DOUBLE_EQ(inflight.value(), 2.0);
    log.finish(b, RequestWork{});
    EXPECT_DOUBLE_EQ(inflight.value(), 1.0);
    log.finish(a, RequestWork{});
    EXPECT_DOUBLE_EQ(inflight.value(), 0.0);
}

TEST(RequestTraceTest, ModelSetAfterDecodeLabelsLaterPhases)
{
    // The worker picks the model's log once the request is
    // decoded; finish() labels the record and its samples with it.
    MetricRegistry registry;
    FlightRecorder recorder(16, 0);
    RequestLog log(registry, recorder, "alexnet", true, 0.0);
    FlightRecord record;
    record.queueWaitSeconds = 2e-4;
    log.begin();
    uint64_t seq = log.finish(record, RequestWork{});
    auto &wait = registry.histogram(
        phaseMetricName,
        {{"model", "alexnet"}, {"phase", "queue_wait"}});
    EXPECT_EQ(wait.count(), 1u);
    FlightRecord published;
    ASSERT_TRUE(recorder.find(seq, published));
    EXPECT_EQ(published.modelName(), "alexnet");
}

TEST(PhaseNameTest, StableLabels)
{
    EXPECT_STREQ(phaseName(Phase::Decode), "decode");
    EXPECT_STREQ(phaseName(Phase::QueueWait), "queue_wait");
    EXPECT_STREQ(phaseName(Phase::Forward), "forward");
    EXPECT_STREQ(phaseName(Phase::Encode), "encode");
    EXPECT_STREQ(phaseName(Phase::Service), "service");
}

TEST(ExpositionTest, OpenMetricsRendersCumulativeBucketsAndEof)
{
    MetricRegistry registry;
    HistogramOptions options;
    options.firstBound = 1e-3;
    options.growth = 2.0;
    options.bucketCount = 4;
    LogHistogram &hist = registry.histogram(
        "djinn_request_seconds", {{"model", "mnist"}}, options);
    hist.record(0.5e-3);  // bucket 0 (le 1e-3)
    hist.record(1.5e-3);  // bucket 1 (le 2e-3)
    hist.record(1.5e-3);

    std::string text = renderOpenMetrics(registry.snapshot());
    EXPECT_NE(
        text.find("# TYPE djinn_request_seconds histogram"),
        std::string::npos);
    // Cumulative counts per le bound.
    EXPECT_NE(text.find("le=\"0.001\"", 0), std::string::npos);
    EXPECT_NE(text.find("le=\"0.002\"", 0), std::string::npos);
    // Trailing empty finite buckets collapse into mandatory +Inf.
    EXPECT_EQ(text.find("le=\"0.004\""), std::string::npos);
    EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
    auto parsed = parseExposition(text);
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    auto inf = findSample(parsed.value(),
                          "djinn_request_seconds_bucket",
                          {{"le", "+Inf"}, {"model", "mnist"}});
    ASSERT_TRUE(inf.isOk());
    EXPECT_DOUBLE_EQ(inf.value(), 3.0);
    auto first = findSample(parsed.value(),
                            "djinn_request_seconds_bucket",
                            {{"le", "0.001"}, {"model", "mnist"}});
    ASSERT_TRUE(first.isOk());
    EXPECT_DOUBLE_EQ(first.value(), 1.0);
    EXPECT_NE(text.find("djinn_request_seconds_count"),
              std::string::npos);
    EXPECT_NE(text.find("djinn_request_seconds_sum"),
              std::string::npos);
    // The spec-mandated terminator, exactly at the end.
    ASSERT_GE(text.size(), 6u);
    EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(ExpositionTest, OpenMetricsCarriesExemplars)
{
    MetricRegistry registry;
    HistogramOptions options;
    options.firstBound = 1e-3;
    options.growth = 2.0;
    options.bucketCount = 4;
    options.exemplars = true;
    LogHistogram &hist = registry.histogram(
        "djinn_request_seconds", {{"model", "mnist"}}, options);
    hist.record(1.5e-3, /*traceId=*/0xabcd, /*ref=*/17);
    hist.record(0.5e-3, /*traceId=*/0, /*ref=*/4);

    std::string text = renderOpenMetrics(registry.snapshot());
    // Traced request: trace_id label plus flight-record ref.
    EXPECT_NE(
        text.find(" # {trace_id=\"000000000000abcd\","
                  "record=\"17\"} 0.0015"),
        std::string::npos);
    // Untraced request: trace_id omitted, ref still present.
    EXPECT_NE(text.find(" # {record=\"4\"} 0.0005"),
              std::string::npos);

    // The parser must tolerate exemplar suffixes.
    auto parsed = parseExposition(text);
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    auto count = findSample(parsed.value(),
                            "djinn_request_seconds_count",
                            {{"model", "mnist"}});
    ASSERT_TRUE(count.isOk());
    EXPECT_DOUBLE_EQ(count.value(), 2.0);
}

TEST(ExpositionTest, PrometheusRenderingStaysFreeOfOpenMetrics)
{
    // The plain Prometheus rendering must not change when exemplar
    // collection is enabled: same bytes, no exemplar markers, no
    // EOF terminator, no _bucket series.
    MetricRegistry plain;
    MetricRegistry enabled;
    HistogramOptions with_exemplars;
    with_exemplars.exemplars = true;
    for (int i = 0; i < 50; ++i) {
        plain.histogram("djinn_request_seconds").record(i * 1e-4);
        enabled
            .histogram("djinn_request_seconds", {}, with_exemplars)
            .record(i * 1e-4, uint64_t(i + 1), uint64_t(i));
    }
    std::string a = renderPrometheus(plain.snapshot());
    std::string b = renderPrometheus(enabled.snapshot());
    EXPECT_EQ(a, b);
    EXPECT_EQ(b.find(" # "), std::string::npos);
    EXPECT_EQ(b.find("# EOF"), std::string::npos);
    EXPECT_EQ(b.find("_bucket"), std::string::npos);
}

TEST(ExpositionTest, OpenMetricsContentTypeConstant)
{
    EXPECT_EQ(std::string(openMetricsContentType)
                  .find("application/openmetrics-text"),
              0u);
    EXPECT_NE(std::string(openMetricsContentType).find("version="),
              std::string::npos);
}

} // namespace
} // namespace telemetry
} // namespace djinn
