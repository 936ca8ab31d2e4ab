/**
 * @file
 * Tests for the fixed-memory time-series store: windowed
 * aggregates, ring retention, lazy metric adoption, JSON rendering,
 * and — the store's core contract — an allocation-free sample path
 * once every metric has been synced, proven with a counting global
 * operator new.
 */

#include "telemetry/timeseries.hh"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "telemetry/histogram.hh"
#include "telemetry/metrics.hh"

// ---------------------------------------------------------------
// Counting allocator hooks. Only counts while armed, so gtest's own
// bookkeeping does not pollute the assertion.

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_alloc_count{0};

void *
countedMalloc(size_t size)
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

} // namespace

void *
operator new(size_t size)
{
    void *p = countedMalloc(size);
    if (!p)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](size_t size)
{
    return ::operator new(size);
}

// The nothrow forms too (std::stable_sort's temporary buffer uses
// one): left to the runtime, its block would reach the free() below
// from another allocator, which ASan reports as a mismatch.
void *
operator new(size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}

void *
operator new[](size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, size_t) noexcept
{
    std::free(p);
}

namespace djinn {
namespace telemetry {
namespace {

TEST(TimeSeries, WindowedRateAndAvg)
{
    MetricRegistry registry;
    Counter &requests =
        registry.counter("djinn_requests_total", {{"model", "a"}});
    Gauge &depth = registry.gauge("djinn_batch_queue_depth_total");

    TimeSeriesStore store(registry);
    // 10 requests/s for 10 seconds; depth ramps 0..9.
    for (int t = 0; t <= 10; ++t) {
        if (t > 0)
            requests.inc(10);
        depth.set(static_cast<double>(t));
        store.sample(static_cast<double>(t));
    }

    TimeSeriesStore::Window window;
    window.name = "djinn_requests_total";
    window.seconds = 10.0;
    auto rate =
        store.windowStat(window, TimeSeriesStore::Op::Rate);
    ASSERT_TRUE(rate.valid);
    EXPECT_NEAR(rate.value, 10.0, 1e-9);

    window.name = "djinn_batch_queue_depth_total";
    auto avg = store.windowStat(window, TimeSeriesStore::Op::Avg);
    ASSERT_TRUE(avg.valid);
    EXPECT_NEAR(avg.value, 5.0, 1e-9);

    auto slope =
        store.windowStat(window, TimeSeriesStore::Op::Slope);
    ASSERT_TRUE(slope.valid);
    EXPECT_NEAR(slope.value, 1.0, 1e-9);

    auto maxStat =
        store.windowStat(window, TimeSeriesStore::Op::Max);
    ASSERT_TRUE(maxStat.valid);
    EXPECT_NEAR(maxStat.value, 10.0, 1e-9);

    // Rate over a gauge is meaningless and must come back invalid.
    auto gaugeRate =
        store.windowStat(window, TimeSeriesStore::Op::Rate);
    EXPECT_FALSE(gaugeRate.valid);
}

TEST(TimeSeries, WindowAnchorsAtRequestedNow)
{
    MetricRegistry registry;
    Counter &c = registry.counter("c_total");
    TimeSeriesStore store(registry);
    for (int t = 0; t <= 20; ++t) {
        c.inc(t < 10 ? 1 : 5); // rate changes at t=10
        store.sample(static_cast<double>(t));
    }
    TimeSeriesStore::Window window;
    window.name = "c_total";
    window.seconds = 5.0;
    window.now = 8.0; // early window: rate 1/s
    auto early =
        store.windowStat(window, TimeSeriesStore::Op::Rate);
    ASSERT_TRUE(early.valid);
    EXPECT_NEAR(early.value, 1.0, 1e-9);
    window.now = 20.0; // late window: rate 5/s
    auto late = store.windowStat(window, TimeSeriesStore::Op::Rate);
    ASSERT_TRUE(late.valid);
    EXPECT_NEAR(late.value, 5.0, 1e-9);
}

TEST(TimeSeries, RingWrapKeepsNewestHistory)
{
    MetricRegistry registry;
    Gauge &g = registry.gauge("g");
    TimeSeriesStore store(registry);
    const int slots = static_cast<int>(TimeSeriesStore::kCapacity);
    for (int t = 0; t < slots + 20; ++t) {
        g.set(static_cast<double>(t));
        store.sample(static_cast<double>(t));
    }
    EXPECT_EQ(store.sampleCount(), TimeSeriesStore::kCapacity);
    double newest = 0.0;
    ASSERT_TRUE(store.newestTime(&newest));
    EXPECT_NEAR(newest, slots + 19.0, 1e-9);

    // Only slots 20..619 remain; a window over everything sees them.
    TimeSeriesStore::Window window;
    window.name = "g";
    window.seconds = 1000.0;
    auto minStat =
        store.windowStat(window, TimeSeriesStore::Op::Min);
    ASSERT_TRUE(minStat.valid);
    EXPECT_NEAR(minStat.value, 20.0, 1e-9);
}

TEST(TimeSeries, HistogramWindowQuantile)
{
    MetricRegistry registry;
    LogHistogram &hist = registry.histogram("lat_seconds");
    TimeSeriesStore store(registry);

    // Empty baseline, then a 1 ms era, then a 100 ms era.
    store.sample(0.0);
    for (int i = 0; i < 100; ++i)
        hist.record(1e-3);
    store.sample(1.0);
    for (int i = 0; i < 100; ++i)
        hist.record(0.1);
    store.sample(2.0);

    // Window covering only the second era sees ~100 ms, not the
    // cumulative mixture.
    TimeSeriesStore::Window window;
    window.name = "lat_seconds";
    window.seconds = 1.0;
    window.now = 2.0;
    auto p50 = store.windowStat(
        window, TimeSeriesStore::Op::Quantile, 0.5);
    ASSERT_TRUE(p50.valid);
    EXPECT_GT(p50.value, 0.03);
    EXPECT_LT(p50.value, 0.3);

    // Full window mixes both eras; p25 lands in the 1 ms era.
    window.seconds = 10.0;
    auto p25 = store.windowStat(
        window, TimeSeriesStore::Op::Quantile, 0.25);
    ASSERT_TRUE(p25.valid);
    EXPECT_LT(p25.value, 0.01);
}

TEST(TimeSeries, AdoptsLateRegisteredMetrics)
{
    MetricRegistry registry;
    Counter &a = registry.counter("a_total");
    TimeSeriesStore store(registry);
    a.inc();
    store.sample(0.0);
    EXPECT_EQ(store.trackCount(), 1u);

    Counter &b = registry.counter("b_total");
    b.inc(7);
    store.sample(1.0);
    b.inc(7);
    store.sample(2.0);
    EXPECT_EQ(store.trackCount(), 2u);

    TimeSeriesStore::Window window;
    window.name = "b_total";
    window.seconds = 10.0;
    auto rate =
        store.windowStat(window, TimeSeriesStore::Op::Rate);
    ASSERT_TRUE(rate.valid);
    EXPECT_NEAR(rate.value, 7.0, 1e-9);
}

TEST(TimeSeries, LabelSubsetMatching)
{
    MetricRegistry registry;
    registry.counter("r_total", {{"model", "a"}, {"gpu", "0"}})
        .inc(10);
    registry.counter("r_total", {{"model", "b"}, {"gpu", "0"}})
        .inc(20);
    TimeSeriesStore store(registry);
    store.sample(0.0);
    registry.counter("r_total", {{"model", "a"}, {"gpu", "0"}})
        .inc(10);
    registry.counter("r_total", {{"model", "b"}, {"gpu", "0"}})
        .inc(20);
    store.sample(1.0);

    EXPECT_EQ(store.trackIds("r_total").size(), 2u);
    EXPECT_EQ(
        store.trackIds("r_total", {{"model", "a"}}).size(), 1u);

    TimeSeriesStore::Window window;
    window.name = "r_total";
    window.seconds = 10.0;
    window.labels = {{"model", "b"}};
    auto rate =
        store.windowStat(window, TimeSeriesStore::Op::Rate);
    ASSERT_TRUE(rate.valid);
    EXPECT_NEAR(rate.value, 20.0, 1e-9);

    // Without the label filter both tracks sum.
    window.labels = {};
    rate = store.windowStat(window, TimeSeriesStore::Op::Rate);
    ASSERT_TRUE(rate.valid);
    EXPECT_NEAR(rate.value, 30.0, 1e-9);
}

TEST(TimeSeries, SamplePathAllocationFree)
{
    MetricRegistry registry;
    Counter &requests =
        registry.counter("djinn_requests_total", {{"model", "m"}});
    Gauge &depth = registry.gauge("djinn_batch_queue_depth_total");
    LogHistogram &hist = registry.histogram("lat_seconds");

    TimeSeriesStore store(registry);
    // One warm-up sample adopts every metric and sizes the rings.
    store.sample(0.0);

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int t = 1; t <= 100; ++t) {
        requests.inc();
        depth.set(static_cast<double>(t));
        hist.record(1e-3);
        store.sample(static_cast<double>(t));
    }
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "sample() allocated on the hot path";
}

TEST(TimeSeries, SeriesAndJsonRendering)
{
    MetricRegistry registry;
    Counter &c =
        registry.counter("djinn_requests_total", {{"model", "m"}});
    TimeSeriesStore store(registry);
    for (int t = 0; t <= 5; ++t) {
        if (t > 0)
            c.inc(3);
        store.sample(static_cast<double>(t));
    }

    TimeSeriesStore::Window window;
    window.name = "djinn_requests_total";
    window.seconds = 10.0;
    auto series = store.series(window);
    ASSERT_EQ(series.size(), 1u);
    EXPECT_EQ(series[0].name, "djinn_requests_total");
    // Counters render per-step rates: the first slot has no
    // predecessor, so 5 points from 6 slots.
    ASSERT_EQ(series[0].points.size(), 5u);
    EXPECT_NEAR(series[0].points.back().value, 3.0, 1e-9);

    // Step decimation halves the point count.
    auto coarse = store.series(window, 2.0);
    ASSERT_EQ(coarse.size(), 1u);
    EXPECT_LT(coarse[0].points.size(),
              series[0].points.size());

    std::string json = renderTimeSeriesJson(store, window);
    EXPECT_NE(json.find("\"metric\": \"djinn_requests_total\""),
              std::string::npos);
    EXPECT_NE(json.find("\"model\": \"m\""), std::string::npos);
    EXPECT_NE(json.find("\"points\": ["), std::string::npos);
}

TEST(TimeSeries, MaxTracksCapSkipsExcess)
{
    MetricRegistry registry;
    for (size_t i = 0; i <= TimeSeriesStore::kMaxTracks; ++i)
        registry.counter("m" + std::to_string(i) + "_total");
    TimeSeriesStore store(registry);
    store.sample(0.0);
    EXPECT_EQ(store.trackCount(), TimeSeriesStore::kMaxTracks);
    EXPECT_EQ(store.skippedTracks(), 1u);
}

TEST(TimeSeries, EmptyStoreAnswersInvalid)
{
    MetricRegistry registry;
    TimeSeriesStore store(registry);
    double t = 0.0;
    EXPECT_FALSE(store.newestTime(&t));
    TimeSeriesStore::Window window;
    window.name = "nothing";
    EXPECT_FALSE(
        store.windowStat(window, TimeSeriesStore::Op::Avg).valid);
    EXPECT_TRUE(store.series(window).empty());
}

} // namespace
} // namespace telemetry
} // namespace djinn
