/**
 * @file
 * Bridge from the cluster simulator to the telemetry subsystem:
 * records a ClusterResult into a MetricRegistry under the
 * `djinn_cluster_*` families, so policy sweeps and capacity probes
 * land in the same exposition formats (Prometheus text and JSON) as
 * the live server.
 */

#ifndef DJINN_CLUSTER_TELEMETRY_HH
#define DJINN_CLUSTER_TELEMETRY_HH

#include <string>

#include "cluster/simulator.hh"
#include "telemetry/metrics.hh"
#include "telemetry/timeseries.hh"

namespace djinn {
namespace cluster {

/**
 * Record one cluster experiment into @p registry as gauges under
 * `djinn_cluster_*`, labeled {policy, scenario} (plus {stat} for
 * latency quantiles, {reason} for sheds, {app} for the per-app
 * breakdown, and {t} for time-series points).
 *
 * @param registry destination registry.
 * @param scenario experiment tag, e.g. "nodes=16,rate=12000".
 * @param config the experiment's configuration (labels the
 *        policy).
 * @param result the simulated experiment.
 * @param includeSeries also record the sampled time series (one
 *        gauge per sample point; off by default to bound metric
 *        cardinality).
 */
void recordClusterResult(telemetry::MetricRegistry &registry,
                         const std::string &scenario,
                         const ClusterConfig &config,
                         const ClusterResult &result,
                         bool includeSeries = false);

/**
 * Replay a simulated experiment's sampled time series into a
 * TimeSeriesStore at virtual time, through the same metric
 * families the live server's sampler feeds (requests/shed totals,
 * aggregate queue depth, pool busy). A HealthMonitor evaluated at
 * the sample instants then grades the simulated scenario with the
 * exact rules that guard production — and, because the simulator
 * is deterministic, with bit-identical verdicts across runs.
 *
 * @p registry must be the registry @p store samples (the counters
 * fed here live in it); use a dedicated registry per replay so
 * live server metrics do not mix in.
 */
void feedTimeSeries(telemetry::MetricRegistry &registry,
                    telemetry::TimeSeriesStore &store,
                    const std::string &scenario,
                    const ClusterResult &result);

} // namespace cluster
} // namespace djinn

#endif // DJINN_CLUSTER_TELEMETRY_HH
