/**
 * @file
 * The `djinn top` rendering: a plain-text operator dashboard
 * computed from the TimeSeriesStore. One frame shows per-model
 * QPS, windowed p50/p99 latency, shed rate, and batch occupancy
 * with an ASCII sparkline of the request-rate series, plus global
 * compute-pool-busy and queue-depth sparklines and the current
 * health verdict. The output is pure text (no escape codes), so it
 * is safe to pipe, diff in tests, and serve over the Metrics wire
 * verb `top`; the CLI adds the screen-clear when stdout is a tty.
 */

#ifndef DJINN_TELEMETRY_DASHBOARD_HH
#define DJINN_TELEMETRY_DASHBOARD_HH

#include <string>

#include "telemetry/health.hh"
#include "telemetry/timeseries.hh"

namespace djinn {
namespace telemetry {

/**
 * Render one dashboard frame from @p store, every figure computed
 * over the trailing @p windowSeconds. @p monitor may be null (the
 * health line is omitted).
 */
std::string renderTopDashboard(const TimeSeriesStore &store,
                               const HealthMonitor *monitor,
                               double windowSeconds);

/**
 * Render @p values as a one-line ASCII sparkline of @p width
 * characters scaled to [0, max]; exposed for tests.
 */
std::string renderSparkline(const std::vector<double> &values,
                            int width);

} // namespace telemetry
} // namespace djinn

#endif // DJINN_TELEMETRY_DASHBOARD_HH
