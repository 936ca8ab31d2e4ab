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

PhaseInstruments::PhaseInstruments(MetricRegistry &registry,
                                   std::string model)
    : registry_(registry), model_(std::move(model)),
      inflight_(registry.gauge(inflightMetricName))
{}

LogHistogram &
PhaseInstruments::histogram(Family family, Phase phase)
{
    static const char *const names[FamilyCount] = {
        phaseMetricName,         phaseCyclesMetricName,
        phaseInstructionsMetricName,
        phaseIpcMetricName,      phaseCacheMissMetricName,
        requestCyclesMetricName, requestIpcMetricName};
    const bool phased = family < RequestCycles;
    std::atomic<LogHistogram *> &slot =
        slots_[family][phased ? static_cast<int>(phase) : 0];
    LogHistogram *h = slot.load(std::memory_order_acquire);
    if (!h) {
        // Racing first uses resolve the same registry entry.
        LabelMap labels{{"model", model_}};
        if (phased)
            labels.emplace("phase", phaseName(phase));
        h = &registry_.histogram(names[family], labels);
        slot.store(h, std::memory_order_release);
    }
    return *h;
}

void
PhaseInstruments::record(Phase phase, double seconds)
{
    histogram(Seconds, phase).record(seconds);
}

void
PhaseInstruments::recordWork(Phase phase, const CounterDelta &delta)
{
    histogram(Cycles, phase).record(static_cast<double>(delta.work()));
    if (!delta.hardware)
        return;
    histogram(Instructions, phase)
        .record(static_cast<double>(delta.instructions));
    histogram(Ipc, phase).record(delta.ipc());
    histogram(CacheMisses, phase)
        .record(static_cast<double>(delta.cacheMisses));
}

void
PhaseInstruments::recordRequestWork(const CounterDelta &delta)
{
    histogram(RequestCycles).record(static_cast<double>(delta.work()));
    if (delta.hardware)
        histogram(RequestIpc).record(delta.ipc());
}

RequestTrace::RequestTrace(MetricRegistry &registry,
                           std::string model)
    : owned_(std::make_unique<PhaseInstruments>(registry,
                                                std::move(model))),
      instruments_(owned_.get())
{
    instruments_->inflight().add(1.0);
}

RequestTrace::RequestTrace(PhaseInstruments &instruments)
    : instruments_(&instruments)
{
    instruments_->inflight().add(1.0);
}

RequestTrace::~RequestTrace()
{
    instruments_->inflight().add(-1.0);
}

void
RequestTrace::setModel(std::string model)
{
    owned_ = std::make_unique<PhaseInstruments>(
        instruments_->registry(), std::move(model));
    instruments_ = owned_.get();
}

void
RequestTrace::record(Phase phase, double seconds)
{
    instruments_->record(phase, seconds);
}

void
RequestTrace::recordWork(Phase phase, const CounterDelta &delta)
{
    instruments_->recordWork(phase, delta);
}

void
RequestTrace::recordRequestWork(const CounterDelta &delta)
{
    instruments_->recordRequestWork(delta);
}

} // namespace telemetry
} // namespace djinn
