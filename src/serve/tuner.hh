/**
 * @file
 * Batch-size auto-tuning: the paper selects each application's
 * batch size by sweeping Figure 7 and picking "high throughput
 * while limiting query latency impact" (Section 5.1, Table 3 last
 * column). This formalizes that rule as a library call.
 */

#ifndef DJINN_SERVE_TUNER_HH
#define DJINN_SERVE_TUNER_HH

#include <cstdint>
#include <vector>

#include "serve/simulation.hh"

namespace djinn {
namespace serve {

/** One point of the tuning sweep. */
struct TunerPoint {
    int64_t batch = 0;
    double throughputQps = 0.0;
    double meanLatency = 0.0;
    bool admissible = false;
};

/** The tuning result: the chosen batch plus the full sweep. */
struct TunerResult {
    int64_t batch = 1;
    std::vector<TunerPoint> sweep;
};

/**
 * Sweep the batch sizes 1, 2, 4, ..., 128 for @p app on the server
 * described by @p base_config (its batch field is ignored) and
 * select per the paper's rule: among the batches whose mean latency
 * stays within 6x the unbatched mean, the smallest that reaches 90%
 * of the best such throughput.
 */
TunerResult tuneBatchSize(App app, const SimConfig &base_config);

} // namespace serve
} // namespace djinn

#endif // DJINN_SERVE_TUNER_HH
