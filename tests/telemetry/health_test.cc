/**
 * @file
 * Tests for the health watchdog: each rule (staleness, SLO burn
 * rate, shed ceiling, queue growth, stall) driven deterministically
 * through a manually-fed TimeSeriesStore with an injected clock,
 * plus the drain clamp — a graceful drain must read `degraded`,
 * never `unhealthy`, even when the stall watchdog would otherwise
 * fire (the false-positive regression test).
 */

#include "telemetry/health.hh"

#include <gtest/gtest.h>

#include <string>

#include "telemetry/metrics.hh"
#include "telemetry/slo.hh"
#include "telemetry/timeseries.hh"

namespace djinn {
namespace telemetry {
namespace {

/** Registry + store + monitor with a controllable clock. */
struct HealthFixture {
    MetricRegistry registry;
    TimeSeriesStore store;
    double now = 0.0;
    HealthMonitor monitor;

    HealthFixture()
        : store(registry),
          monitor(store, registry, [this] { return now; })
    {
    }

    void
    sampleAt(double t)
    {
        now = t;
        store.sample(t);
    }
};

TEST(Health, OkWhenQuiet)
{
    HealthFixture f;
    Counter &requests = f.registry.counter("djinn_requests_total",
                                           {{"model", "m"}});
    for (int t = 0; t <= 10; ++t) {
        requests.inc(5);
        f.sampleAt(static_cast<double>(t));
    }
    HealthVerdict verdict = f.monitor.evaluateNow();
    EXPECT_EQ(verdict.level, HealthLevel::Ok);
    EXPECT_TRUE(verdict.reasons.empty());
}

TEST(Health, StaleSamplerDegrades)
{
    HealthFixture f;
    f.registry.counter("djinn_requests_total").inc();
    f.sampleAt(0.0);
    f.now = 100.0; // heartbeat stopped 100 s ago
    HealthVerdict verdict = f.monitor.evaluateNow();
    EXPECT_EQ(verdict.level, HealthLevel::Degraded);
    ASSERT_EQ(verdict.reasons.size(), 1u);
    EXPECT_EQ(verdict.reasons[0].rule, "stale");

    // No samples at all is also stale.
    HealthFixture empty;
    verdict = empty.monitor.evaluateNow();
    EXPECT_EQ(verdict.level, HealthLevel::Degraded);
    ASSERT_EQ(verdict.reasons.size(), 1u);
    EXPECT_EQ(verdict.reasons[0].detail, "no samples recorded");
}

TEST(Health, BurnRateThresholds)
{
    HealthFixture f;
    Gauge &burn = f.registry.gauge(sloBurnRateMetricName,
                                   {{"model", "m"}});
    Counter &requests = f.registry.counter("djinn_requests_total",
                                           {{"model", "m"}});
    // Keep the sampler fresh while the burn gauge sits at 3x: over
    // budget (degraded) but under the 10x unhealthy ceiling. The
    // model must be serving traffic for the rule to consider it.
    for (int t = 0; t <= 20; ++t) {
        burn.set(3.0);
        requests.inc(5);
        f.sampleAt(static_cast<double>(t));
    }
    HealthVerdict verdict = f.monitor.evaluateNow();
    EXPECT_EQ(verdict.level, HealthLevel::Degraded);
    ASSERT_EQ(verdict.reasons.size(), 1u);
    EXPECT_EQ(verdict.reasons[0].rule, "burn_rate");
    EXPECT_NE(verdict.reasons[0].detail.find("m: "),
              std::string::npos);

    for (int t = 21; t <= 40; ++t) {
        burn.set(25.0);
        requests.inc(5);
        f.sampleAt(static_cast<double>(t));
    }
    verdict = f.monitor.evaluateNow();
    EXPECT_EQ(verdict.level, HealthLevel::Unhealthy);
}

TEST(Health, IdleModelBurnGaugeNeverDegrades)
{
    // The satellite regression test: a burn gauge stuck high for a
    // model with ZERO request traffic in the window (a stale burst,
    // or a gauge that was never idle-reset) must not trip the
    // burn-rate rule — idle models cannot be burning budget.
    // Pre-fix the rule alerted on the gauge alone and this read
    // Unhealthy.
    HealthFixture f;
    Gauge &burn = f.registry.gauge(sloBurnRateMetricName,
                                   {{"model", "idle"}});
    f.registry.counter("djinn_requests_total",
                       {{"model", "idle"}});
    for (int t = 0; t <= 20; ++t) {
        burn.set(25.0);
        f.sampleAt(static_cast<double>(t));
    }
    HealthVerdict verdict = f.monitor.evaluateNow();
    EXPECT_EQ(verdict.level, HealthLevel::Ok) << verdict.toString();
    EXPECT_TRUE(verdict.reasons.empty());
}

TEST(Health, ShedRateCeiling)
{
    HealthFixture f;
    Counter &served = f.registry.counter("djinn_requests_total",
                                         {{"model", "m"}});
    Counter &shed = f.registry.counter(
        "djinn_shed_total",
        {{"model", "m"}, {"reason", "queue_full"}});
    // 10% of offered load shed: above the 5% degraded ceiling,
    // below the 50% unhealthy one.
    for (int t = 0; t <= 30; ++t) {
        served.inc(9);
        shed.inc(1);
        f.sampleAt(static_cast<double>(t));
    }
    HealthVerdict verdict = f.monitor.evaluateNow();
    EXPECT_EQ(verdict.level, HealthLevel::Degraded);
    ASSERT_EQ(verdict.reasons.size(), 1u);
    EXPECT_EQ(verdict.reasons[0].rule, "shed_rate");

    // Majority shed is an outage.
    HealthFixture g;
    Counter &served2 = g.registry.counter("djinn_requests_total",
                                          {{"model", "m"}});
    Counter &shed2 = g.registry.counter(
        "djinn_shed_total",
        {{"model", "m"}, {"reason", "queue_full"}});
    for (int t = 0; t <= 30; ++t) {
        served2.inc(1);
        shed2.inc(9);
        g.sampleAt(static_cast<double>(t));
    }
    verdict = g.monitor.evaluateNow();
    EXPECT_EQ(verdict.level, HealthLevel::Unhealthy);
}

TEST(Health, QueueGrowthNeedsDepthAndSlope)
{
    // Deep AND growing: flagged.
    HealthFixture f;
    Gauge &depth =
        f.registry.gauge("djinn_batch_queue_depth_total");
    for (int t = 0; t <= 30; ++t) {
        depth.set(4.0 + 2.0 * t);
        f.sampleAt(static_cast<double>(t));
    }
    HealthVerdict verdict = f.monitor.evaluateNow();
    EXPECT_EQ(verdict.level, HealthLevel::Degraded);
    ASSERT_EQ(verdict.reasons.size(), 1u);
    EXPECT_EQ(verdict.reasons[0].rule, "queue_growth");

    // Shallow but growing: a transient, not a page.
    HealthFixture g;
    Gauge &shallow =
        g.registry.gauge("djinn_batch_queue_depth_total");
    for (int t = 0; t <= 30; ++t) {
        shallow.set(0.05 * t);
        g.sampleAt(static_cast<double>(t));
    }
    EXPECT_EQ(g.monitor.evaluateNow().level, HealthLevel::Ok);

    // Deep but stable with progress: also fine.
    HealthFixture h;
    Gauge &stable =
        h.registry.gauge("djinn_batch_queue_depth_total");
    Counter &progress =
        h.registry.counter("djinn_batches_total");
    for (int t = 0; t <= 30; ++t) {
        stable.set(20.0);
        progress.inc(3);
        h.sampleAt(static_cast<double>(t));
    }
    EXPECT_EQ(h.monitor.evaluateNow().level, HealthLevel::Ok);
}

TEST(Health, StallWatchdogPages)
{
    HealthFixture f;
    Gauge &depth =
        f.registry.gauge("djinn_batch_queue_depth_total");
    Counter &batches = f.registry.counter("djinn_batches_total");
    Counter &requests =
        f.registry.counter("djinn_requests_total");
    // Healthy era, then the progress counters freeze while work
    // stays queued — a wedged batcher.
    for (int t = 0; t <= 10; ++t) {
        depth.set(2.0);
        batches.inc();
        requests.inc(4);
        f.sampleAt(static_cast<double>(t));
    }
    for (int t = 11; t <= 40; ++t) {
        depth.set(6.0);
        f.sampleAt(static_cast<double>(t));
    }
    HealthVerdict verdict = f.monitor.evaluateNow();
    EXPECT_EQ(verdict.level, HealthLevel::Unhealthy);
    bool sawStall = false;
    for (const auto &reason : verdict.reasons)
        sawStall = sawStall || reason.rule == "stall";
    EXPECT_TRUE(sawStall) << verdict.toString();
}

TEST(Health, GracefulDrainIsNeverUnhealthy)
{
    // The satellite regression test: the exact stall shape above,
    // but flagged as a drain — the watchdog must stand down and the
    // verdict must clamp to degraded.
    HealthFixture f;
    Gauge &depth =
        f.registry.gauge("djinn_batch_queue_depth_total");
    Counter &batches = f.registry.counter("djinn_batches_total");
    for (int t = 0; t <= 10; ++t) {
        depth.set(2.0);
        batches.inc();
        f.sampleAt(static_cast<double>(t));
    }
    f.monitor.setDraining(true);
    for (int t = 11; t <= 40; ++t) {
        depth.set(6.0);
        f.sampleAt(static_cast<double>(t));
    }
    HealthVerdict verdict = f.monitor.evaluateNow();
    EXPECT_EQ(verdict.level, HealthLevel::Degraded);
    bool sawDraining = false;
    for (const auto &reason : verdict.reasons) {
        EXPECT_NE(reason.rule, "stall") << verdict.toString();
        sawDraining = sawDraining || reason.rule == "draining";
    }
    EXPECT_TRUE(sawDraining);

    // Draining with a perfectly healthy store is still degraded:
    // the server is refusing new work on purpose.
    HealthFixture g;
    g.registry.counter("djinn_requests_total").inc();
    for (int t = 0; t <= 5; ++t)
        g.sampleAt(static_cast<double>(t));
    g.monitor.setDraining(true);
    EXPECT_EQ(g.monitor.evaluateNow().level,
              HealthLevel::Degraded);
    g.monitor.setDraining(false);
    EXPECT_EQ(g.monitor.evaluateNow().level, HealthLevel::Ok);
}

TEST(Health, TickExportsGaugesAndRetainsVerdict)
{
    HealthFixture f;
    Gauge &burn = f.registry.gauge(sloBurnRateMetricName,
                                   {{"model", "m"}});
    Counter &requests = f.registry.counter("djinn_requests_total",
                                           {{"model", "m"}});
    for (int t = 0; t <= 20; ++t) {
        burn.set(3.0);
        requests.inc(5);
        f.sampleAt(static_cast<double>(t));
    }
    f.monitor.tick();
    EXPECT_EQ(f.monitor.lastVerdict().level,
              HealthLevel::Degraded);

    double health = -1.0, reasonBurn = -1.0, reasonStall = -1.0;
    for (const auto &sample : f.registry.snapshot()) {
        if (sample.name == "djinn_health")
            health = sample.value;
        if (sample.name == "djinn_health_reason") {
            auto rule = sample.labels.find("rule");
            ASSERT_NE(rule, sample.labels.end());
            if (rule->second == "burn_rate")
                reasonBurn = sample.value;
            if (rule->second == "stall")
                reasonStall = sample.value;
        }
    }
    EXPECT_EQ(health, 1.0);
    EXPECT_EQ(reasonBurn, 1.0);
    EXPECT_EQ(reasonStall, 0.0); // pre-registered, quiescent
}

TEST(Health, DeterministicEvaluation)
{
    // Same feed, two monitors: bit-identical renderings.
    auto run = [] {
        HealthFixture f;
        Counter &served = f.registry.counter(
            "djinn_requests_total", {{"model", "m"}});
        Counter &shed = f.registry.counter(
            "djinn_shed_total",
            {{"model", "m"}, {"reason", "queue_full"}});
        std::string out;
        for (int t = 0; t <= 30; ++t) {
            served.inc(7);
            shed.inc(1);
            f.sampleAt(static_cast<double>(t) * 0.25);
            out += f.monitor.evaluateNow().toString();
            out += "\n";
        }
        return out;
    };
    EXPECT_EQ(run(), run());
}

TEST(Health, RenderHealthJsonShape)
{
    HealthVerdict verdict;
    verdict.level = HealthLevel::Degraded;
    verdict.evaluatedAt = 12.5;
    verdict.reasons.push_back(
        {"shed_rate", HealthLevel::Degraded, "shedding 0.1"});
    std::string json = renderHealthJson(verdict, 42.0);
    EXPECT_NE(json.find("\"status\": \"degraded\""),
              std::string::npos);
    EXPECT_NE(json.find("\"uptime_seconds\": 42.000"),
              std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"shed_rate\""),
              std::string::npos);

    // Negative uptime omits the field.
    std::string bare = renderHealthJson(verdict);
    EXPECT_EQ(bare.find("uptime_seconds"), std::string::npos);
}

} // namespace
} // namespace telemetry
} // namespace djinn
