#include "telemetry/trace.hh"

namespace djinn {
namespace telemetry {

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Decode:
        return "decode";
      case Phase::QueueWait:
        return "queue_wait";
      case Phase::Forward:
        return "forward";
      case Phase::Encode:
        return "encode";
      case Phase::Service:
        return "service";
    }
    return "unknown";
}

RequestTrace::RequestTrace(MetricRegistry &registry,
                           std::string model)
    : registry_(registry), model_(std::move(model))
{
    registry_.gauge(inflightMetricName).add(1.0);
}

RequestTrace::~RequestTrace()
{
    registry_.gauge(inflightMetricName).add(-1.0);
}

void
RequestTrace::record(Phase phase, double seconds)
{
    registry_
        .histogram(phaseMetricName,
                   {{"model", model_}, {"phase", phaseName(phase)}})
        .record(seconds);
}

void
RequestTrace::recordWork(Phase phase, const CounterDelta &delta)
{
    const LabelMap labels{{"model", model_},
                          {"phase", phaseName(phase)}};
    registry_.histogram(phaseCyclesMetricName, labels)
        .record(static_cast<double>(delta.work()));
    if (!delta.hardware)
        return;
    registry_.histogram(phaseInstructionsMetricName, labels)
        .record(static_cast<double>(delta.instructions));
    registry_.histogram(phaseIpcMetricName, labels)
        .record(delta.ipc());
    registry_.histogram(phaseCacheMissMetricName, labels)
        .record(static_cast<double>(delta.cacheMisses));
}

void
RequestTrace::recordRequestWork(const CounterDelta &delta)
{
    const LabelMap labels{{"model", model_}};
    registry_.histogram(requestCyclesMetricName, labels)
        .record(static_cast<double>(delta.work()));
    if (delta.hardware) {
        registry_.histogram(requestIpcMetricName, labels)
            .record(delta.ipc());
    }
}

} // namespace telemetry
} // namespace djinn
