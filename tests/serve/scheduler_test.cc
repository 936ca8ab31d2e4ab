/**
 * @file
 * Deterministic sim-clock battery for the adaptive scheduler
 * (DESIGN.md §16): batch targets grow under rising load and shrink
 * under SLO burn-rate pressure, deficit-weighted fair sharing
 * converges to the configured weights with bounded deficits, and
 * the policy state renders as deterministic JSON. All time is an
 * explicit virtual clock — no sleeps, no wall-clock reads.
 */

#include "serve/scheduler.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "telemetry/metrics.hh"

namespace djinn {
namespace serve {
namespace {

/** Calibrate `model` to a 1 ms/query service time. */
void
calibrate(AdaptiveScheduler &sched, const std::string &model)
{
    sched.observeBatch(model, 4, 0.004);
}

/** Drive `ticks` one-second control intervals at a constant
 * arrival rate, starting at *now. */
void
driveLoad(AdaptiveScheduler &sched, const std::string &model,
          int64_t queriesPerSecond, int ticks, double *now)
{
    for (int i = 0; i < ticks; ++i) {
        sched.observeArrival(model, queriesPerSecond);
        *now += 1.0;
        sched.tick(*now);
    }
}

TEST(AdaptiveScheduler, UncalibratedModelRunsStaticPolicy)
{
    SchedulerOptions options;
    options.maxBatch = 16;
    AdaptiveScheduler sched(options);
    // No service-time calibration yet: the paper's static tuned
    // batch applies, for known and unknown models alike.
    sched.observeArrival("m", 100);
    sched.tick(1.0);
    EXPECT_EQ(sched.batchTarget("m"), 16);
    EXPECT_EQ(sched.batchTarget("never-seen"), 16);
}

TEST(AdaptiveScheduler, BatchGrowsUnderRisingLoad)
{
    // 1 ms/query service, 50 ms SLO, 0.8 headroom -> a 40 ms
    // budget over assembly ((b-1)/lambda) + service (b * 1 ms).
    SchedulerOptions options;
    options.maxBatch = 16;
    options.defaultSloSeconds = 0.050;
    AdaptiveScheduler sched(options);
    calibrate(sched, "m");
    double now = 0.0;

    // 100 qps: assembly dominates; b=4 fits (30+4 ms), b=5 misses.
    driveLoad(sched, "m", 100, 20, &now);
    EXPECT_EQ(sched.batchTarget("m"), 4);

    // 200 qps: b=7 fits (30+7 ms), b=8 misses (35+8 ms).
    driveLoad(sched, "m", 200, 20, &now);
    EXPECT_EQ(sched.batchTarget("m"), 7);

    // 1000 qps: assembly is cheap; the tuned ceiling binds.
    driveLoad(sched, "m", 1000, 20, &now);
    EXPECT_EQ(sched.batchTarget("m"), 16);
    EXPECT_NEAR(sched.arrivalRate("m"), 1000.0, 1.0);
}

TEST(AdaptiveScheduler, BatchShrinksOnBurnRateAndRecovers)
{
    SchedulerOptions options;
    options.maxBatch = 16;
    options.defaultSloSeconds = 0.050;
    AdaptiveScheduler sched(options);
    calibrate(sched, "m");
    double now = 0.0;
    driveLoad(sched, "m", 1000, 20, &now);
    ASSERT_EQ(sched.batchTarget("m"), 16);

    // Burning the error budget twice as fast as allowed tightens
    // the headroom to 0.4 (a 20 ms budget): b=10 fits (9+10 ms),
    // b=11 misses.
    sched.observeBurnRate("m", 2.0);
    driveLoad(sched, "m", 1000, 1, &now);
    EXPECT_EQ(sched.batchTarget("m"), 10);

    // Burn subsides: the target recovers to the ceiling.
    sched.observeBurnRate("m", 0.0);
    driveLoad(sched, "m", 1000, 1, &now);
    EXPECT_EQ(sched.batchTarget("m"), 16);
}

TEST(AdaptiveScheduler, OverloadFallsBackToThroughputMode)
{
    // Even a lone query cannot meet the SLO: shrinking batches
    // further only costs throughput, so the policy pins the tuned
    // maximum instead of death-spiraling to a batch of 1.
    SchedulerOptions options;
    options.maxBatch = 8;
    options.defaultSloSeconds = 0.050;
    AdaptiveScheduler sched(options);
    sched.observeBatch("m", 1, 0.100); // 100 ms/query >> SLO
    double now = 0.0;
    driveLoad(sched, "m", 100, 2, &now);
    EXPECT_EQ(sched.batchTarget("m"), 8);
}

TEST(AdaptiveScheduler, TwoTenantFairShareConvergesToWeights)
{
    // Tenant A (weight 2) and B (weight 1) both overloaded: each
    // control interval refills credit 2:1, each dispatch charges
    // its 5 ms batch cost, and dispatch is allowed only while the
    // tenant's deficit is non-negative.
    SchedulerOptions options;
    options.maxDeficitSeconds = 0.050;
    options.poolSeconds = 1.0;
    AdaptiveScheduler sched(options);
    sched.addTenant("a", 2.0);
    sched.addTenant("b", 1.0);
    sched.assignModel("ma", "a");
    sched.assignModel("mb", "b");

    const double batch_cost = 0.005;
    double now = 0.0;
    for (int i = 0; i < 1000; ++i) {
        sched.observeArrival("ma", 10);
        sched.observeArrival("mb", 10);
        sched.setBacklog("ma", 50);
        sched.setBacklog("mb", 50);
        now += 0.010;
        sched.tick(now);
        for (const char *model : {"ma", "mb"}) {
            while (sched.allowDispatch(model))
                sched.chargeDispatch(model, batch_cost);
        }
        // The deficit bound: never above the configured cap, and
        // never further negative than one batch overshoot.
        for (const char *tenant : {"a", "b"}) {
            EXPECT_LE(sched.tenantDeficit(tenant),
                      options.maxDeficitSeconds + 1e-12);
            EXPECT_GE(sched.tenantDeficit(tenant),
                      -batch_cost - 1e-12);
        }
    }

    auto tenants = sched.tenantStates();
    ASSERT_EQ(tenants.size(), 3u); // a, b, and the implicit default
    double charged_a = 0.0, charged_b = 0.0;
    for (const auto &t : tenants) {
        if (t.tenant == "a")
            charged_a = t.chargedSeconds;
        if (t.tenant == "b")
            charged_b = t.chargedSeconds;
    }
    ASSERT_GT(charged_b, 0.0);
    // 10 s of pool time split 2:1, each side off by at most one
    // batch overshoot: the realised ratio is 2 within ~1%.
    EXPECT_NEAR(charged_a / charged_b, 2.0, 0.02);
}

TEST(AdaptiveScheduler, IdleTenantForfeitsResidualCredit)
{
    SchedulerOptions options;
    options.maxDeficitSeconds = 0.050;
    AdaptiveScheduler sched(options);
    sched.addTenant("hot", 1.0);
    sched.addTenant("cold", 1.0);
    sched.assignModel("mh", "hot");
    sched.assignModel("mc", "cold");

    // Both active for a while: both bank credit.
    double now = 0.0;
    for (int i = 0; i < 5; ++i) {
        sched.observeArrival("mh", 10);
        sched.observeArrival("mc", 10);
        now += 0.010;
        sched.tick(now);
    }
    EXPECT_GT(sched.tenantDeficit("cold"), 0.0);

    // cold goes idle: its banked credit is forfeited (standard
    // DRR), so it cannot burst at hot's expense later.
    for (int i = 0; i < 3; ++i) {
        sched.observeArrival("mh", 10);
        now += 0.010;
        sched.tick(now);
    }
    EXPECT_DOUBLE_EQ(sched.tenantDeficit("cold"), 0.0);
}

TEST(AdaptiveScheduler, ExportsGaugesAndRendersJson)
{
    telemetry::MetricRegistry metrics;
    SchedulerOptions options;
    AdaptiveScheduler sched(options, &metrics);
    sched.addTenant("t", 3.0);
    sched.assignModel("m", "t");
    calibrate(sched, "m");
    double now = 0.0;
    driveLoad(sched, "m", 100, 3, &now);

    bool saw_target = false, saw_weight = false;
    for (const telemetry::MetricSample &s : metrics.snapshot()) {
        if (s.name == std::string("djinn_sched_batch_target") &&
            s.labels.count("model")) {
            saw_target = true;
            EXPECT_GT(s.value, 0.0);
        }
        if (s.name == std::string("djinn_sched_tenant_weight") &&
            s.labels.count("tenant") &&
            s.labels.at("tenant") == "t") {
            saw_weight = true;
            EXPECT_DOUBLE_EQ(s.value, 3.0);
        }
    }
    EXPECT_TRUE(saw_target);
    EXPECT_TRUE(saw_weight);

    std::string json = sched.renderJson();
    EXPECT_NE(json.find("\"model\": \"m\""), std::string::npos);
    EXPECT_NE(json.find("\"tenant\": \"t\""), std::string::npos);
    EXPECT_NE(json.find("\"target\": "), std::string::npos);
    EXPECT_NE(json.find("\"deficit_ms\": "), std::string::npos);
    EXPECT_EQ(json, sched.renderJson()); // deterministic
}

} // namespace
} // namespace serve
} // namespace djinn
