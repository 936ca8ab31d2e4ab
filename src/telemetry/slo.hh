/**
 * @file
 * SLO burn rate read from the time-series store. The server
 * classifies every served request good (service latency within
 * the model's target) or bad into the monotonic
 * `djinn_slo_good_total` / `djinn_slo_bad_total` counters, plain
 * registry counters like `djinn_requests_total`. Each sampler tick
 * derives `djinn_slo_burn_rate` from the store's windowed
 * increases of those two counters: the bad fraction over the
 * window divided by the error budget (1 - objective). Burn rate 1
 * means the service is consuming its budget exactly as fast as the
 * objective allows; above 1 the SLO is burning down; a sustained
 * rate of N exhausts a period's budget N times too fast — the
 * standard multi-window alerting signal.
 */

#ifndef DJINN_TELEMETRY_SLO_HH
#define DJINN_TELEMETRY_SLO_HH

#include <string>

#include "telemetry/timeseries.hh"

namespace djinn {
namespace telemetry {

/** Metric family names of the SLO accounting. */
inline const char *const sloGoodMetricName = "djinn_slo_good_total";
inline const char *const sloBadMetricName = "djinn_slo_bad_total";
inline const char *const sloBurnRateMetricName =
    "djinn_slo_burn_rate";
inline const char *const sloTargetMetricName =
    "djinn_slo_target_seconds";

/** Trailing window the burn rate is computed over, seconds. */
inline constexpr double sloBurnWindowSeconds = 60.0;

/**
 * A model with no requests in this trailing window burns 0. The
 * burn rate is a *fraction* of in-window requests: once a model
 * goes idle, a stale burst (even a single bad request) would
 * otherwise pin it at up to 1/(1 - objective) for the rest of the
 * window and trip health alerting on a model that is serving
 * nothing. Seconds.
 */
inline constexpr double sloIdleSeconds = 15.0;

/**
 * @p model's burn rate over the trailing sloBurnWindowSeconds
 * ending at @p store's newest slot; 0 when the model counted no
 * request in the trailing sloIdleSeconds (or never).
 *
 * @param objective availability objective in (0, 1).
 */
double sloBurnRate(const TimeSeriesStore &store,
                   const std::string &model, double objective);

} // namespace telemetry
} // namespace djinn

#endif // DJINN_TELEMETRY_SLO_HH
