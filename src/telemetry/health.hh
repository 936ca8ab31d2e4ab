/**
 * @file
 * A rule engine over the TimeSeriesStore that turns windowed metric
 * history into a graded health verdict: `ok`, `degraded`, or
 * `unhealthy`, each with concrete reasons. The rules mirror what a
 * WSC operator would page on — SLO burn rate over a short window,
 * shed-rate ceilings, sustained queue-growth slope, a stall
 * watchdog (queued work but frozen progress counters), and sampler
 * staleness. The verdict upgrades `/healthz` to structured JSON,
 * exports `djinn_health` / `djinn_health_reason{rule}` gauges, and
 * logs every level transition.
 *
 * Evaluation is pure over (store, clock): the cluster simulator
 * replays its virtual-time series into a store and evaluates at the
 * same instants to get bit-identical verdicts across runs, which is
 * how the rules are unit-tested deterministically.
 *
 * A graceful drain is not an outage: the server flags
 * setDraining(true) before it stops accepting work, which both adds
 * a `draining` reason and clamps the final level to `degraded`, so
 * the stall watchdog cannot page on an intentional shutdown.
 */

#ifndef DJINN_TELEMETRY_HEALTH_HH
#define DJINN_TELEMETRY_HEALTH_HH

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/metrics.hh"
#include "telemetry/timeseries.hh"

namespace djinn {
namespace telemetry {

/** Graded verdict levels, ordered by severity. */
enum class HealthLevel {
    Ok = 0,
    Degraded = 1,
    Unhealthy = 2,
};

/** Lowercase wire name of @p level (`ok|degraded|unhealthy`). */
const char *healthLevelName(HealthLevel level);

/** One triggered rule. */
struct HealthReason {
    /** Rule identifier (`burn_rate`, `shed_rate`, ...). */
    std::string rule;

    /** Severity this rule contributes. */
    HealthLevel level = HealthLevel::Degraded;

    /** Human-readable evidence, deterministically formatted. */
    std::string detail;
};

/** The graded verdict. */
struct HealthVerdict {
    HealthLevel level = HealthLevel::Ok;
    std::vector<HealthReason> reasons;

    /** Evaluation time (store epoch seconds). */
    double evaluatedAt = 0.0;

    /** Deterministic one-line rendering, for logs and tests. */
    std::string toString() const;
};

/**
 * The monitor. evaluate() is const and reentrant; tick() (called
 * from the sampler hook) additionally exports gauges and logs
 * transitions.
 */
class HealthMonitor
{
  public:
    /** Clock returning store-epoch seconds; defaults to the trace
     * clock. Injected by tests and the simulator. */
    using Clock = std::function<double()>;

    /**
     * @param store history source; must outlive the monitor.
     * @param registry receives djinn_health gauges.
     * @param clock store-epoch clock override.
     */
    HealthMonitor(const TimeSeriesStore &store,
                  MetricRegistry &registry, Clock clock = {});

    HealthMonitor(const HealthMonitor &) = delete;
    HealthMonitor &operator=(const HealthMonitor &) = delete;

    /** Evaluate every rule at @p nowSeconds. Pure. */
    HealthVerdict evaluate(double nowSeconds) const;

    /** Evaluate at the injected clock's current time. */
    HealthVerdict evaluateNow() const;

    /**
     * Periodic hook: evaluate, export djinn_health gauges, log
     * level transitions, retain the verdict for lastVerdict().
     */
    void tick();

    /** The verdict retained by the last tick(). */
    HealthVerdict lastVerdict() const;

    /**
     * Flag a graceful drain: adds a `draining` reason and clamps
     * the verdict to degraded (a drain is never `unhealthy`).
     */
    void setDraining(bool draining);

  private:
    const TimeSeriesStore &store_;
    MetricRegistry &registry_;
    Clock clock_;

    Gauge *healthGauge_ = nullptr;
    std::map<std::string, Gauge *> reasonGauges_;

    std::atomic<bool> draining_{false};

    mutable std::mutex mutex_;
    HealthVerdict last_;
    bool haveLast_ = false;
};

/**
 * Render @p verdict as the structured `/healthz` JSON body:
 * `{"status": ..., "uptime_seconds": ..., "reasons": [{"rule": ...,
 * "level": ..., "detail": ...}]}`. Pass a negative uptime to omit
 * the field.
 */
std::string renderHealthJson(const HealthVerdict &verdict,
                             double uptimeSeconds = -1.0);

} // namespace telemetry
} // namespace djinn

#endif // DJINN_TELEMETRY_HEALTH_HH
