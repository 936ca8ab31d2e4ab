/**
 * @file
 * End-to-end cycle accounting tests against a real loopback
 * server: the per-phase work breakdown (decode / forward / encode,
 * plus queue_wait under batching) must sum to approximately the
 * whole request span in whichever unit the environment provides —
 * CPU cycles with a usable PMU, wall nanoseconds in the clock-only
 * fallback — with the `djinn_perf_counters_available` gauge naming
 * the unit. Also covers the saturation/SLO gauges the background
 * sampler refreshes and the /profile collapsed-stack route under
 * load.
 */

#include "core/djinn_server.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/djinn_client.hh"
#include "core/http_endpoint.hh"
#include "nn/init.hh"
#include "nn/net_def.hh"
#include "telemetry/perf_counters.hh"
#include "telemetry/profiler.hh"
#include "telemetry/slo.hh"
#include "telemetry/trace.hh"

namespace djinn {
namespace core {
namespace {

class CycleAccountingTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Large enough that the forward pass carries real work;
        // small enough to keep the suite fast.
        auto net = nn::parseNetDefOrDie(
            "name bulk\ninput 1 8 8\nlayer fc fc out 256\n"
            "layer prob softmax\n");
        nn::initializeWeights(*net, 7);
        ASSERT_TRUE(registry_.add(std::move(net)).isOk());
    }

    void
    startServer(ServerConfig config)
    {
        server_ = std::make_unique<DjinnServer>(registry_, config);
        ASSERT_TRUE(server_->start().isOk());
    }

    void
    runInferences(int count, int64_t rows)
    {
        DjinnClient client;
        ASSERT_TRUE(
            client.connect("127.0.0.1", server_->port()).isOk());
        std::vector<float> payload(
            static_cast<size_t>(rows) * 64, 0.25f);
        for (int i = 0; i < count; ++i)
            ASSERT_TRUE(client.infer("bulk", rows, payload).isOk());
    }

    /** (phase label -> histogram sum) for one metric family. */
    std::map<std::string, double>
    phaseSums(const char *family)
    {
        std::map<std::string, double> out;
        for (const auto &s : server_->metrics().snapshot()) {
            if (s.name == family && s.labels.count("phase") &&
                s.labels.at("phase") != "service") {
                out[s.labels.at("phase")] += s.histogram.sum;
            }
        }
        return out;
    }

    /** Gauge/counter value, or -1 when the family is absent. */
    double
    gaugeValue(const char *name)
    {
        for (const auto &s : server_->metrics().snapshot()) {
            if (s.name == name)
                return s.value;
        }
        return -1.0;
    }

    ModelRegistry registry_;
    std::unique_ptr<DjinnServer> server_;
};

/**
 * The acceptance test: on the non-batched path every phase runs on
 * one worker thread, so decode + forward + encode work must cover
 * most of the request span and never exceed it (plus measurement
 * slop). Holds in both hardware and fallback mode.
 */
TEST_F(CycleAccountingTest, PhaseWorkSumsToRequestSpan)
{
    ServerConfig config;
    config.batching = false;
    config.samplerPeriod = 0;
    startServer(config);
    runInferences(25, 64);

    double available =
        gaugeValue(telemetry::perfAvailableMetricName);
    ASSERT_TRUE(available == 0.0 || available == 1.0);

    auto phases = phaseSums(telemetry::phaseCyclesMetricName);
    ASSERT_TRUE(phases.count("decode"));
    ASSERT_TRUE(phases.count("forward"));
    ASSERT_TRUE(phases.count("encode"));
    double phase_sum = 0.0;
    for (const auto &[phase, sum] : phases) {
        EXPECT_GT(sum, 0.0) << phase;
        phase_sum += sum;
    }

    double request_sum = 0.0;
    uint64_t request_count = 0;
    for (const auto &s : server_->metrics().snapshot()) {
        if (s.name == telemetry::requestCyclesMetricName) {
            request_sum += s.histogram.sum;
            request_count += s.histogram.count;
        }
    }
    EXPECT_EQ(request_count, 25u);
    ASSERT_GT(request_sum, 0.0);

    // The three instrumented phases account for ~100% of the
    // request span: the remainder (tensor staging, bookkeeping)
    // must stay small, and the sum can never meaningfully exceed
    // the span it decomposes.
    double share = phase_sum / request_sum;
    EXPECT_GE(share, 0.5) << "phases cover too little of the span";
    EXPECT_LE(share, 1.05) << "phases exceed the request span";

    if (available == 1.0) {
        // Hardware mode additionally exports IPC per phase.
        auto ipc = phaseSums(telemetry::phaseIpcMetricName);
        EXPECT_TRUE(ipc.count("forward"));
        EXPECT_GT(ipc["forward"], 0.0);
    }
}

TEST_F(CycleAccountingTest, BatchedModeAccountsAllFourPhases)
{
    ServerConfig config;
    config.batching = true;
    config.samplerPeriod = 0;
    startServer(config);
    runInferences(8, 16);

    // Worker threads account decode, queue_wait (the blocked span),
    // and encode; the dispatcher accounts forward per pass.
    auto phases = phaseSums(telemetry::phaseCyclesMetricName);
    EXPECT_TRUE(phases.count("decode"));
    EXPECT_TRUE(phases.count("queue_wait"));
    EXPECT_TRUE(phases.count("forward"));
    EXPECT_TRUE(phases.count("encode"));
    for (const auto &[phase, sum] : phases)
        EXPECT_GT(sum, 0.0) << phase;
}

TEST_F(CycleAccountingTest, SamplerExportsSaturationAndSloGauges)
{
    ServerConfig config;
    config.batching = true;
    config.samplerPeriod = 0.05;
    config.sloTargetSeconds = 0.250;
    startServer(config);
    runInferences(6, 16);
    // Let the background sampler run its update hook a few times.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    EXPECT_GE(gaugeValue("djinn_compute_pool_busy"), 0.0);
    EXPECT_GE(gaugeValue("djinn_batch_queue_depth_total"), 0.0);
    EXPECT_GE(gaugeValue(telemetry::perfAvailableMetricName), 0.0);

    double good = gaugeValue(telemetry::sloGoodMetricName);
    double bad = gaugeValue(telemetry::sloBadMetricName);
    EXPECT_EQ((good < 0 ? 0 : good) + (bad < 0 ? 0 : bad), 6.0);
    EXPECT_GE(gaugeValue(telemetry::sloBurnRateMetricName), 0.0);
    EXPECT_EQ(gaugeValue(telemetry::sloTargetMetricName), 0.250);

    // One batched pass ran, so the occupancy gauge is set and
    // bounded by 1.
    double occupancy = gaugeValue("djinn_batch_occupancy");
    EXPECT_GT(occupancy, 0.0);
    EXPECT_LE(occupancy, 1.0);
}

TEST_F(CycleAccountingTest, BatcherQueueDepthTotalDrainsToZero)
{
    telemetry::MetricRegistry metrics;
    BatchingExecutor executor(registry_, BatchOptions{}, metrics);
    EXPECT_EQ(executor.queueDepthTotal(), 0);

    std::vector<float> payload(4 * 64, 0.5f);
    std::vector<std::future<InferenceResult>> futures;
    for (int i = 0; i < 6; ++i)
        futures.push_back(executor.submit("bulk", 4, payload));
    for (auto &f : futures)
        EXPECT_TRUE(f.get().status.isOk());
    // Every accepted query was counted in and counted back out.
    EXPECT_EQ(executor.queueDepthTotal(), 0);
}

TEST_F(CycleAccountingTest, ProfileRouteServesCollapsedStacks)
{
    // Probe whether this environment can arm the profiling timer;
    // sandboxes without signal timers skip cleanly.
    Status probe = telemetry::Profiler::instance().start(97);
    if (!probe.isOk())
        GTEST_SKIP() << "profiling restricted: "
                     << probe.toString();
    telemetry::Profiler::instance().stop();

    telemetry::MetricRegistry metrics;
    telemetry::Tracer tracer;
    HttpEndpoint endpoint(
        DebugRoutes({.metrics = &metrics, .tracer = &tracer}));

    std::string type, body;
    EXPECT_EQ(endpoint.handle("/profile?seconds=nope", type, body),
              400);
    EXPECT_EQ(endpoint.handle("/profile?seconds=0", type, body),
              400);
    EXPECT_EQ(endpoint.handle("/profile?seconds=61", type, body),
              400);

    // Drive real forward passes while the window samples, so the
    // collapsed stacks contain this library's frames.
    auto network = registry_.find("bulk");
    ASSERT_NE(network, nullptr);
    std::atomic<bool> stop{false};
    std::thread burner([&]() {
        nn::Tensor input(network->inputShape().withBatch(32));
        for (int64_t i = 0; i < input.elems(); ++i)
            input.data()[i] = 0.5f;
        while (!stop.load())
            network->forward(input);
    });
    int code = endpoint.handle("/profile?seconds=1", type, body);
    stop.store(true);
    burner.join();

    ASSERT_EQ(code, 200);
    ASSERT_FALSE(body.empty());

    // Every line is "frames... count"; at least one stack carries
    // a frame from this codebase (symbolized via ENABLE_EXPORTS).
    bool saw_djinn_frame = false;
    std::istringstream lines(body);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_GT(std::atoll(line.c_str() + space + 1), 0) << line;
        if (line.find("djinn") != std::string::npos)
            saw_djinn_frame = true;
    }
    EXPECT_TRUE(saw_djinn_frame) << body;
}

TEST_F(CycleAccountingTest, MetricsVerbServesProfileFormat)
{
    ServerConfig config;
    config.samplerPeriod = 0;
    startServer(config);

    DjinnClient client;
    ASSERT_TRUE(
        client.connect("127.0.0.1", server_->port()).isOk());

    auto collapsed = client.metricsExposition("profile:1");
    if (!collapsed.isOk()) {
        GTEST_SKIP() << "profiling restricted: "
                     << collapsed.status().toString();
    }
    // An idle server may legitimately sample nothing (the CPU-time
    // timer never fires); the format contract still holds per line.
    std::istringstream lines(collapsed.value());
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_GT(std::atoll(line.c_str() + space + 1), 0) << line;
    }

    // Unknown formats still answer BadRequest.
    EXPECT_FALSE(client.metricsExposition("flamegraph").isOk());
}

} // namespace
} // namespace core
} // namespace djinn
