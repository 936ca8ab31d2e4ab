#include "telemetry/dashboard.hh"

#include <algorithm>
#include <cstdio>
#include <set>

#include "telemetry/flight_recorder.hh"

namespace djinn {
namespace telemetry {

namespace {

/** Density ramp, lightest to darkest. */
const char sparkRamp[] = " .:-=+*#%@";

/** Sparkline width, characters. */
constexpr int kSparkWidth = 30;

/** Collapse a point series to @p width buckets by averaging. */
std::vector<double>
resample(const std::vector<TimeSeriesStore::Point> &points,
         int width)
{
    std::vector<double> out;
    if (points.empty() || width <= 0)
        return out;
    out.assign(static_cast<size_t>(width), 0.0);
    std::vector<int> counts(static_cast<size_t>(width), 0);
    const double t0 = points.front().t;
    const double t1 = points.back().t;
    const double span = t1 > t0 ? t1 - t0 : 1.0;
    for (const auto &point : points) {
        int bucket = static_cast<int>((point.t - t0) / span
                                      * (width - 1));
        bucket = std::min(std::max(bucket, 0), width - 1);
        out[static_cast<size_t>(bucket)] += point.value;
        ++counts[static_cast<size_t>(bucket)];
    }
    // Carry the previous bucket's value across gaps so sparse
    // series still draw a continuous line.
    double prev = 0.0;
    for (int i = 0; i < width; ++i) {
        if (counts[static_cast<size_t>(i)] > 0) {
            out[static_cast<size_t>(i)] /=
                counts[static_cast<size_t>(i)];
            prev = out[static_cast<size_t>(i)];
        } else {
            out[static_cast<size_t>(i)] = prev;
        }
    }
    return out;
}

std::string
sparklineFor(const TimeSeriesStore &store,
             const TimeSeriesStore::Window &window, int width)
{
    const auto all = store.series(window);
    // Sum matching tracks point-by-point after resampling each.
    std::vector<double> merged(static_cast<size_t>(width), 0.0);
    bool any = false;
    for (const auto &series : all) {
        const auto resampled = resample(series.points, width);
        if (resampled.empty())
            continue;
        for (int i = 0; i < width; ++i)
            merged[static_cast<size_t>(i)] +=
                resampled[static_cast<size_t>(i)];
        any = true;
    }
    if (!any)
        return std::string(static_cast<size_t>(width), ' ');
    return renderSparkline(merged, width);
}

void
appendStat(std::string &out, const char *fmt,
           const TimeSeriesStore::Stat &stat, double scale = 1.0)
{
    char buf[48];
    if (stat.valid)
        snprintf(buf, sizeof(buf), fmt, stat.value * scale);
    else
        snprintf(buf, sizeof(buf), "%8s", "-");
    out += buf;
}

} // namespace

std::string
renderSparkline(const std::vector<double> &values, int width)
{
    std::string out;
    if (width <= 0)
        return out;
    double hi = 0.0;
    for (double v : values)
        hi = std::max(hi, v);
    const int ramp = static_cast<int>(sizeof(sparkRamp)) - 2;
    for (int i = 0; i < width; ++i) {
        double v = 0.0;
        if (!values.empty()) {
            const size_t j = static_cast<size_t>(i)
                * values.size() / static_cast<size_t>(width);
            v = values[std::min(j, values.size() - 1)];
        }
        int level = hi > 0
            ? static_cast<int>(v / hi * ramp + 0.5)
            : 0;
        level = std::min(std::max(level, 0), ramp);
        out += sparkRamp[level];
    }
    return out;
}

std::string
renderTopDashboard(const TimeSeriesStore &store,
                   const HealthMonitor *monitor,
                   double windowSeconds)
{
    std::string out;
    char buf[256];

    snprintf(buf, sizeof(buf),
             "djinn top — window %.0fs, %zu samples",
             windowSeconds, store.sampleCount());
    out += buf;
    if (monitor) {
        const HealthVerdict verdict = monitor->evaluateNow();
        out += ", health ";
        out += healthLevelName(verdict.level);
        for (const auto &reason : verdict.reasons) {
            out += " [" + reason.rule + "]";
        }
    }
    out += "\n\n";

    snprintf(buf, sizeof(buf), "%-12s %8s %8s %8s %7s %6s  %s\n",
             "MODEL", "QPS", "P50MS", "P99MS", "SHED%", "OCC",
             "REQUESTS/S");
    out += buf;

    // Models are the label values seen on the request counter.
    std::set<std::string> models;
    for (const auto &id : store.trackIds("djinn_requests_total")) {
        auto it = id.labels.find("model");
        if (it != id.labels.end())
            models.insert(it->second);
    }

    TimeSeriesStore::Window window;
    window.seconds = windowSeconds;

    for (const auto &model : models) {
        snprintf(buf, sizeof(buf), "%-12s ", model.c_str());
        out += buf;

        window.labels = {{"model", model}};
        window.name = "djinn_requests_total";
        const auto qps =
            store.windowStat(window, TimeSeriesStore::Op::Rate);
        appendStat(out, "%8.1f", qps);

        window.name = requestSecondsMetricName;
        const auto p50 = store.windowStat(
            window, TimeSeriesStore::Op::Quantile, 0.5);
        const auto p99 = store.windowStat(
            window, TimeSeriesStore::Op::Quantile, 0.99);
        appendStat(out, " %7.2f", p50, 1e3);
        appendStat(out, " %7.2f", p99, 1e3);

        window.name = "djinn_shed_total";
        const auto shed =
            store.windowStat(window, TimeSeriesStore::Op::Rate);
        const double served = qps.valid ? qps.value : 0.0;
        if (shed.valid && shed.value + served > 0) {
            snprintf(buf, sizeof(buf), " %6.1f",
                     shed.value / (shed.value + served) * 100.0);
            out += buf;
        } else if (qps.valid) {
            out += "    0.0";
        } else {
            out += "      -";
        }

        window.name = "djinn_batch_occupancy";
        const auto occupancy =
            store.windowStat(window, TimeSeriesStore::Op::Avg);
        appendStat(out, " %5.1f", occupancy);

        window.name = "djinn_requests_total";
        out += "  ";
        out += sparklineFor(store, window, kSparkWidth);
        out += "\n";
    }
    if (models.empty())
        out += "(no request history in window)\n";
    out += "\n";

    window.labels = {};
    window.name = "djinn_compute_pool_busy";
    const auto busy =
        store.windowStat(window, TimeSeriesStore::Op::Avg);
    snprintf(buf, sizeof(buf), "%-12s ", "pool busy");
    out += buf;
    appendStat(out, "%8.2f", busy);
    out += "  ";
    out += sparklineFor(store, window, kSparkWidth);
    out += "\n";

    window.name = "djinn_batch_queue_depth_total";
    const auto depth =
        store.windowStat(window, TimeSeriesStore::Op::Avg);
    snprintf(buf, sizeof(buf), "%-12s ", "queue depth");
    out += buf;
    appendStat(out, "%8.2f", depth);
    out += "  ";
    out += sparklineFor(store, window, kSparkWidth);
    out += "\n";

    return out;
}

} // namespace telemetry
} // namespace djinn
