#include "serve/tuner.hh"

#include <algorithm>

namespace djinn {
namespace serve {

namespace {

/** Candidate batch sizes, ascending. */
constexpr int64_t kCandidates[] = {1, 2, 4, 8, 16, 32, 64, 128};

/** Latency budget as a multiple of the unbatched mean latency;
 * candidates beyond it are rejected. */
constexpr double kLatencySlack = 6.0;

/** Accept the smallest batch whose throughput reaches this fraction
 * of the best admissible throughput. */
constexpr double kThroughputFraction = 0.9;

} // namespace

TunerResult
tuneBatchSize(App app, const SimConfig &base_config)
{
    TunerResult result;
    for (int64_t batch : kCandidates) {
        SimConfig config = base_config;
        config.app = app;
        config.batch = batch;
        // Let enough batches complete to measure the big ones.
        config.measureTime = std::max(
            base_config.measureTime,
            0.25 * static_cast<double>(batch));
        SimResult sim = runServingSim(config);
        result.sweep.push_back(
            {batch, sim.throughputQps, sim.meanLatency, false});
    }

    double latency_cap =
        kLatencySlack * result.sweep.front().meanLatency;
    double best = 0.0;
    for (TunerPoint &point : result.sweep) {
        point.admissible = point.meanLatency <= latency_cap;
        if (point.admissible)
            best = std::max(best, point.throughputQps);
    }
    for (const TunerPoint &point : result.sweep) {
        if (point.admissible &&
            point.throughputQps >= kThroughputFraction * best) {
            result.batch = point.batch;
            return result;
        }
    }
    result.batch = kCandidates[0];
    return result;
}

} // namespace serve
} // namespace djinn
