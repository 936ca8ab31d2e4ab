#include "telemetry/health.hh"

#include <cstdio>

#include "common/logging.hh"
#include "telemetry/exposition.hh"
#include "telemetry/slo.hh"
#include "telemetry/tracer.hh"

namespace djinn {
namespace telemetry {

namespace {

/** Burn-rate averaging window. */
constexpr double kShortWindowSeconds = 15.0;

/** Shed-rate / queue-growth window. */
constexpr double kLongWindowSeconds = 60.0;

/** SLO burn rate (budget consumption multiple) thresholds. */
constexpr double kBurnDegraded = 1.0;
constexpr double kBurnUnhealthy = 10.0;

/** Shed fraction (shed / (shed + served)) thresholds. */
constexpr double kShedDegraded = 0.05;
constexpr double kShedUnhealthy = 0.5;

/** Queue depth growth slope that flags `queue_growth`. */
constexpr double kQueueGrowthPerSecond = 1.0;

/** Minimum average depth before slope matters. */
constexpr double kQueueGrowthMinDepth = 4.0;

/** Stall watchdog window: queued work with zero progress. */
constexpr double kStallWindowSeconds = 10.0;

/** Sampler heartbeat staleness threshold. */
constexpr double kStalenessSeconds = 5.0;

/** Every rule a verdict can cite, in evaluation order. The fixed
 * set lets tick() pre-register one djinn_health_reason gauge per
 * rule so the exposition's sample set never changes shape. */
const char *const healthRules[] = {
    "stale",   "burn_rate", "shed_rate",
    "queue_growth", "stall", "draining",
};

std::string
formatDetail(const char *fmt, double a, double b)
{
    char buf[160];
    snprintf(buf, sizeof(buf), fmt, a, b);
    return buf;
}

} // namespace

const char *
healthLevelName(HealthLevel level)
{
    switch (level) {
      case HealthLevel::Ok:
        return "ok";
      case HealthLevel::Degraded:
        return "degraded";
      case HealthLevel::Unhealthy:
        return "unhealthy";
    }
    return "ok";
}

std::string
HealthVerdict::toString() const
{
    std::string out = healthLevelName(level);
    char buf[48];
    snprintf(buf, sizeof(buf), " @%.6f", evaluatedAt);
    out += buf;
    for (const auto &reason : reasons) {
        out += " [";
        out += reason.rule;
        out += "/";
        out += healthLevelName(reason.level);
        out += ": ";
        out += reason.detail;
        out += "]";
    }
    return out;
}

HealthMonitor::HealthMonitor(const TimeSeriesStore &store,
                             MetricRegistry &registry,
                             Clock clock)
    : store_(store), registry_(registry), clock_(std::move(clock))
{
    if (!clock_)
        clock_ = [] { return traceNowUs() * 1e-6; };
    healthGauge_ = &registry_.gauge("djinn_health");
    healthGauge_->set(0.0);
    for (const char *rule : healthRules) {
        Gauge &gauge =
            registry_.gauge("djinn_health_reason", {{"rule", rule}});
        gauge.set(0.0);
        reasonGauges_[rule] = &gauge;
    }
}

HealthVerdict
HealthMonitor::evaluate(double nowSeconds) const
{
    HealthVerdict verdict;
    verdict.evaluatedAt = nowSeconds;

    const bool draining =
        draining_.load(std::memory_order_relaxed);

    // Rule: stale — the sampler heartbeat stopped. Without fresh
    // slots every other rule would silently read old history, so
    // surface that first.
    double newest = 0.0;
    const bool haveSamples = store_.newestTime(&newest);
    if (!haveSamples
        || nowSeconds - newest > kStalenessSeconds) {
        HealthReason reason;
        reason.rule = "stale";
        reason.level = HealthLevel::Degraded;
        reason.detail = haveSamples
            ? formatDetail("last sample %.6g s ago (limit %.6g)",
                           nowSeconds - newest,
                           kStalenessSeconds)
            : "no samples recorded";
        verdict.reasons.push_back(std::move(reason));
    }

    TimeSeriesStore::Window window;
    window.now = nowSeconds;

    // Rule: burn_rate — any model consuming its SLO error budget
    // faster than allowed, averaged over the short window.
    window.name = sloBurnRateMetricName;
    window.labels = {};
    window.seconds = kShortWindowSeconds;
    for (const auto &id : store_.trackIds(sloBurnRateMetricName)) {
        window.labels = id.labels;
        const auto burn =
            store_.windowStat(window, TimeSeriesStore::Op::Avg);
        if (!burn.valid || burn.value < kBurnDegraded)
            continue;
        // An idle model's burn gauge is stale history, not live
        // budget burn: require actual request traffic for the
        // same model over the window before alerting on it.
        TimeSeriesStore::Window traffic = window;
        traffic.name = "djinn_requests_total";
        traffic.labels = {};
        auto traffic_model = id.labels.find("model");
        if (traffic_model != id.labels.end())
            traffic.labels = {{"model", traffic_model->second}};
        const auto requestRate = store_.windowStat(
            traffic, TimeSeriesStore::Op::Rate);
        if (!requestRate.valid || requestRate.value <= 0.0)
            continue;
        HealthReason reason;
        reason.rule = "burn_rate";
        reason.level = burn.value >= kBurnUnhealthy
            ? HealthLevel::Unhealthy
            : HealthLevel::Degraded;
        auto model = id.labels.find("model");
        reason.detail = (model != id.labels.end()
                             ? model->second + ": "
                             : std::string())
            + formatDetail("burn rate %.6g (degraded at %.6g)",
                           burn.value, kBurnDegraded);
        verdict.reasons.push_back(std::move(reason));
    }

    // Rule: shed_rate — fraction of offered load turned away over
    // the long window.
    window.labels = {};
    window.seconds = kLongWindowSeconds;
    window.name = "djinn_shed_total";
    const auto shedRate =
        store_.windowStat(window, TimeSeriesStore::Op::Rate);
    window.name = "djinn_requests_total";
    const auto servedRate =
        store_.windowStat(window, TimeSeriesStore::Op::Rate);
    if (shedRate.valid && shedRate.value > 0) {
        const double served =
            servedRate.valid ? servedRate.value : 0.0;
        const double fraction =
            shedRate.value / (shedRate.value + served);
        if (fraction >= kShedDegraded) {
            HealthReason reason;
            reason.rule = "shed_rate";
            reason.level = fraction >= kShedUnhealthy
                ? HealthLevel::Unhealthy
                : HealthLevel::Degraded;
            reason.detail = formatDetail(
                "shedding %.6g of offered load (degraded at %.6g)",
                fraction, kShedDegraded);
            verdict.reasons.push_back(std::move(reason));
        }
    }

    // Rule: queue_growth — the batch queue is non-trivially deep
    // AND growing; either alone is a transient.
    window.name = "djinn_batch_queue_depth_total";
    const auto depthAvg =
        store_.windowStat(window, TimeSeriesStore::Op::Avg);
    const auto depthSlope =
        store_.windowStat(window, TimeSeriesStore::Op::Slope);
    if (depthAvg.valid && depthSlope.valid
        && depthAvg.value >= kQueueGrowthMinDepth
        && depthSlope.value >= kQueueGrowthPerSecond) {
        HealthReason reason;
        reason.rule = "queue_growth";
        reason.level = HealthLevel::Degraded;
        reason.detail = formatDetail(
            "queue depth avg %.6g growing %.6g/s", depthAvg.value,
            depthSlope.value);
        verdict.reasons.push_back(std::move(reason));
    }

    // Rule: stall — queued work with frozen progress counters over
    // the stall window: the watchdog for a wedged batcher or pool.
    // Suppressed while draining (the server stops dispatching on
    // purpose and the queue empties through cancellation).
    if (!draining) {
        window.seconds = kStallWindowSeconds;
        window.name = "djinn_batch_queue_depth_total";
        const auto stallDepth =
            store_.windowStat(window, TimeSeriesStore::Op::Min);
        window.name = "djinn_batches_total";
        const auto batchRate =
            store_.windowStat(window, TimeSeriesStore::Op::Rate);
        window.name = "djinn_requests_total";
        const auto requestRate =
            store_.windowStat(window, TimeSeriesStore::Op::Rate);
        const double progress =
            (batchRate.valid ? batchRate.value : 0.0)
            + (requestRate.valid ? requestRate.value : 0.0);
        if (stallDepth.valid && stallDepth.value >= 1.0
            && (batchRate.valid || requestRate.valid)
            && progress <= 0.0) {
            HealthReason reason;
            reason.rule = "stall";
            reason.level = HealthLevel::Unhealthy;
            reason.detail = formatDetail(
                "queue depth >= %.6g with no progress for %.6g s",
                stallDepth.value, kStallWindowSeconds);
            verdict.reasons.push_back(std::move(reason));
        }
    }

    for (const auto &reason : verdict.reasons)
        verdict.level = std::max(verdict.level, reason.level);

    if (draining) {
        HealthReason reason;
        reason.rule = "draining";
        reason.level = HealthLevel::Degraded;
        reason.detail = "graceful drain in progress";
        verdict.reasons.push_back(std::move(reason));
        // An intentional drain is exactly degraded: never ok (work
        // is being refused) and never unhealthy (it is deliberate).
        verdict.level = HealthLevel::Degraded;
    }

    return verdict;
}

HealthVerdict
HealthMonitor::evaluateNow() const
{
    return evaluate(clock_());
}

void
HealthMonitor::tick()
{
    HealthVerdict verdict = evaluate(clock_());

    healthGauge_->set(static_cast<double>(verdict.level));
    for (auto &[rule, gauge] : reasonGauges_) {
        double level = 0.0;
        for (const auto &reason : verdict.reasons) {
            if (reason.rule == rule)
                level = std::max(
                    level, static_cast<double>(reason.level));
        }
        gauge->set(level);
    }

    std::lock_guard<std::mutex> lock(mutex_);
    if (!haveLast_ || last_.level != verdict.level) {
        inform("health: %s", verdict.toString().c_str());
    }
    last_ = std::move(verdict);
    haveLast_ = true;
}

HealthVerdict
HealthMonitor::lastVerdict() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return last_;
}

void
HealthMonitor::setDraining(bool draining)
{
    draining_.store(draining, std::memory_order_relaxed);
}

std::string
renderHealthJson(const HealthVerdict &verdict, double uptimeSeconds)
{
    std::string out = "{\"status\": \"";
    out += healthLevelName(verdict.level);
    out += "\"";
    char buf[64];
    if (uptimeSeconds >= 0) {
        snprintf(buf, sizeof(buf), ", \"uptime_seconds\": %.3f",
                 uptimeSeconds);
        out += buf;
    }
    snprintf(buf, sizeof(buf), ", \"evaluated_at\": %.6f",
             verdict.evaluatedAt);
    out += buf;
    out += ", \"reasons\": [";
    bool first = true;
    for (const auto &reason : verdict.reasons) {
        if (!first)
            out += ", ";
        first = false;
        out += "{\"rule\": \"" + jsonEscape(reason.rule)
            + "\", \"level\": \"";
        out += healthLevelName(reason.level);
        out += "\", \"detail\": \"" + jsonEscape(reason.detail)
            + "\"}";
    }
    out += "]}\n";
    return out;
}

} // namespace telemetry
} // namespace djinn
