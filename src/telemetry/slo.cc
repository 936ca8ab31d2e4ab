#include "telemetry/slo.hh"

namespace djinn {
namespace telemetry {

double
sloBurnRate(const TimeSeriesStore &store, const std::string &model,
            double objective)
{
    auto increase = [&](const char *name, double seconds) {
        TimeSeriesStore::Window window;
        window.name = name;
        window.labels = {{"model", model}};
        window.seconds = seconds;
        TimeSeriesStore::Stat stat =
            store.windowStat(window, TimeSeriesStore::Op::Increase);
        return stat.valid ? stat.value : 0.0;
    };
    if (increase(sloGoodMetricName, sloIdleSeconds) +
            increase(sloBadMetricName, sloIdleSeconds) <= 0.0)
        return 0.0;
    const double good = increase(sloGoodMetricName, sloBurnWindowSeconds);
    const double bad = increase(sloBadMetricName, sloBurnWindowSeconds);
    return bad / (good + bad) / (1.0 - objective);
}

} // namespace telemetry
} // namespace djinn
