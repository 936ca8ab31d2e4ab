/**
 * @file
 * SLO burn-rate tests over the time-series store: the good/bad
 * counters and sample times are fed synthetically (no sleeps, no
 * server), then sloBurnRate() must read the bad fraction over the
 * trailing window divided by the error budget, forget failures
 * that slid out of the window, reset for idle models, count a
 * model whose counters first appear inside the window, and ignore
 * history older than the store. The server-side good/bad
 * classification is covered in tests/core/observability_test.cc.
 */

#include "telemetry/slo.hh"

#include <gtest/gtest.h>

#include <string>

#include "telemetry/metrics.hh"
#include "telemetry/timeseries.hh"

namespace djinn {
namespace telemetry {
namespace {

class SloTrackerTest : public ::testing::Test
{
  protected:
    /** Count @p good and @p bad requests for @p model. */
    void
    serve(const std::string &model, int good, int bad)
    {
        const LabelMap labels{{"model", model}};
        registry_.counter(sloGoodMetricName, labels).inc(good);
        registry_.counter(sloBadMetricName, labels).inc(bad);
    }

    /** Sample the store once per second over [from, to]. */
    void
    tick(int from, int to)
    {
        for (int t = from; t <= to; ++t)
            store_.sample(static_cast<double>(t));
    }

    double
    burn(const std::string &model, double objective = 0.99)
    {
        return sloBurnRate(store_, model, objective);
    }

    MetricRegistry registry_;
    TimeSeriesStore store_{registry_};
};

TEST_F(SloTrackerTest, BurnRateIsBadFractionOverErrorBudget)
{
    tick(0, 0);
    // 1 bad of 10 -> bad fraction 0.1 -> burn rate 0.1/0.01 = 10.
    serve("m", 9, 1);
    tick(1, 1);
    EXPECT_NEAR(burn("m"), 10.0, 1e-9);
}

TEST_F(SloTrackerTest, AllGoodBurnsNothing)
{
    tick(0, 0);
    serve("m", 5, 0);
    tick(1, 1);
    EXPECT_DOUBLE_EQ(burn("m"), 0.0);
    EXPECT_DOUBLE_EQ(burn("never-served"), 0.0);
}

TEST_F(SloTrackerTest, WindowExpiryForgetsOldFailures)
{
    tick(0, 0);
    serve("m", 0, 1); // bad just after t=0
    // Steady good traffic keeps the model out of the idle reset.
    for (int t = 1; t <= 70; ++t) {
        serve("m", 1, 0);
        tick(t, t);
        if (t == 30) {
            // Still inside the 60 s window: the failure burns.
            EXPECT_GT(burn("m"), 0.0);
        }
    }
    // The window slid past it: the rate drops to zero even though
    // the monotonic bad counter keeps its value.
    EXPECT_DOUBLE_EQ(burn("m"), 0.0);
    EXPECT_EQ(registry_.counter(sloBadMetricName, {{"model", "m"}})
                  .value(),
              1u);
}

TEST_F(SloTrackerTest, IdleModelResetsBurnBeforeWindowExpiry)
{
    // The burn rate is a fraction of in-window traffic, so a model
    // that stops serving after a bad burst would otherwise pin
    // burn = 1/(1 - objective) for the full window. Idle models
    // must read 0 once the idle horizon passes, long before the
    // window forgets the burst.
    tick(0, 0);
    serve("m", 0, 1); // bad burst, then silence
    tick(1, 5);
    EXPECT_NEAR(burn("m"), 100.0, 1e-9);

    // Idle past the reset horizon but well inside the 60 s window.
    tick(6, 30);
    EXPECT_DOUBLE_EQ(burn("m"), 0.0);

    // Traffic resumes: the whole window counts again, burst
    // included (1 bad of 2).
    serve("m", 1, 0);
    tick(31, 31);
    EXPECT_NEAR(burn("m"), 50.0, 1e-9);
}

TEST_F(SloTrackerTest, MixedTrafficAcrossSecondsAggregates)
{
    tick(0, 0);
    // Spread traffic over several one-second slots.
    for (int t = 1; t <= 4; ++t) {
        serve("m", 4, 1);
        tick(t, t);
    }
    // 4 bad of 20 -> fraction 0.2 -> burn rate 0.2/0.1 = 2.
    EXPECT_DOUBLE_EQ(burn("m", 0.90), 2.0);
}

TEST_F(SloTrackerTest, ModelsTrackIndependently)
{
    tick(0, 0);
    serve("good-model", 1, 0);
    serve("bad-model", 0, 1);
    tick(1, 1);
    EXPECT_DOUBLE_EQ(burn("good-model"), 0.0);
    EXPECT_NEAR(burn("bad-model"), 100.0, 1e-9);
}

TEST_F(SloTrackerTest, CountersFirstAppearingInWindowCountFirstRequests)
{
    // The model registers its counters mid-history: its first slot
    // already holds the first requests, which must still count.
    tick(0, 10);
    serve("late", 1, 1);
    tick(11, 11);
    EXPECT_NEAR(burn("late"), 50.0, 1e-9);

    // Also when the registration lands before the store's very
    // first slot.
    MetricRegistry registry;
    TimeSeriesStore store(registry);
    registry.counter(sloGoodMetricName, {{"model", "m"}}).inc(3);
    registry.counter(sloBadMetricName, {{"model", "m"}}).inc(1);
    store.sample(0.0);
    EXPECT_NEAR(sloBurnRate(store, "m", 0.75), 1.0, 1e-9);
}

TEST_F(SloTrackerTest, HistoryOlderThanTheStoreDoesNotBurn)
{
    // Counters registered before the store was built (a restarted
    // server keeps its registry) carry history the store never saw;
    // only what it sees increase counts.
    MetricRegistry registry;
    registry.counter(sloBadMetricName, {{"model", "m"}}).inc(7);
    TimeSeriesStore store(registry);
    store.sample(0.0);
    EXPECT_DOUBLE_EQ(sloBurnRate(store, "m", 0.99), 0.0);
    registry.counter(sloGoodMetricName, {{"model", "m"}}).inc(1);
    store.sample(1.0);
    EXPECT_DOUBLE_EQ(sloBurnRate(store, "m", 0.99), 0.0);
}

} // namespace
} // namespace telemetry
} // namespace djinn
