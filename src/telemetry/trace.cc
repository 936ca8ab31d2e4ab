#include "telemetry/trace.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "telemetry/slo.hh"

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

RequestLog::RequestLog(MetricRegistry &registry,
                       FlightRecorder &recorder, std::string model,
                       bool queued, double sloTargetSeconds,
                       Tracer *tracer)
    : registry_(registry), recorder_(recorder),
      model_(std::move(model)), queued_(queued),
      sloTargetSeconds_(sloTargetSeconds), tracer_(tracer),
      inflight_(registry.gauge(inflightMetricName))
{}

LogHistogram &
RequestLog::histogram(Family family, Phase phase)
{
    static const char *const names[FamilyCount] = {
        phaseMetricName,         phaseCyclesMetricName,
        phaseInstructionsMetricName,
        phaseIpcMetricName,      phaseCacheMissMetricName,
        requestSecondsMetricName, requestCyclesMetricName,
        requestIpcMetricName};
    const bool phased = family < RequestSeconds;
    std::atomic<LogHistogram *> &slot =
        histograms_[family][phased ? static_cast<int>(phase) : 0];
    LogHistogram *h = slot.load(std::memory_order_acquire);
    if (!h) {
        // Racing first uses resolve the same registry entry.
        LabelMap labels{{"model", model_}};
        if (phased)
            labels.emplace("phase", phaseName(phase));
        HistogramOptions options;
        // Exemplars resolve a latency bucket to a flight record.
        options.exemplars = family == RequestSeconds;
        h = &registry_.histogram(names[family], labels, options);
        slot.store(h, std::memory_order_release);
    }
    return *h;
}

void
RequestLog::recordWork(Phase phase, const CounterDelta &delta)
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

bool
RequestLog::dispatched(const FlightRecord &record) const
{
    return queued_ && (record.outcome == FlightOutcome::Ok ||
                       record.outcome == FlightOutcome::ShedDeadline);
}

void
RequestLog::recordSpans(const FlightRecord &record,
                        uint64_t serverSpan, uint64_t clientSpan)
{
    auto us = [](double seconds) {
        return static_cast<int64_t>(std::llround(seconds * 1e6));
    };
    const std::string track = common::currentThreadName();
    auto span = [&](std::string name, const char *category,
                    int64_t start_us, int64_t end_us) {
        TraceEvent e;
        e.name = std::move(name);
        e.category = category;
        e.track = track;
        e.traceId = record.traceId;
        e.spanId = tracer_->nextSpanId();
        e.parentSpanId = serverSpan;
        e.startUs = start_us;
        e.durationUs = end_us - start_us;
        return e;
    };
    // The record's durations are the worker's own measurements, so
    // each phase span is cut from the request span by offsets
    // (rounded cumulatively, so decode and queue_wait never overlap).
    const int64_t end = record.timestampUs;
    const int64_t start =
        end - us(record.totalSeconds - record.readSeconds);
    const int64_t decoded = start + us(record.decodeSeconds);
    tracer_->record(span("decode", "server", start, decoded));
    if (dispatched(record)) {
        TraceEvent wait = span(
            "queue_wait", "batch", decoded,
            start + us(record.decodeSeconds + record.queueWaitSeconds));
        wait.args.emplace_back("rows", strprintf("%d", record.rows));
        tracer_->record(std::move(wait));
    }
    tracer_->record(
        span("encode", "server", end - us(record.encodeSeconds), end));
    TraceEvent request = span("request " + model_, "server", start, end);
    request.spanId = serverSpan;
    request.parentSpanId = clientSpan;
    request.args = {{"model", model_},
                    {"rows", strprintf("%d", record.rows)},
                    {"outcome", flightOutcomeName(record.outcome)}};
    tracer_->record(std::move(request));
}

uint64_t
RequestLog::finish(FlightRecord &record, const RequestWork &work,
                   uint64_t serverSpan, uint64_t clientSpan)
{
    record.setModel(model_);
    record.hardware = work.request.hardware;
    record.cycles = work.request.cycles;
    record.instructions = work.request.instructions;
    record.cacheMisses = work.request.cacheMisses;
    record.seq = recorder_.record(record);

    histogram(Seconds, Phase::Decode).record(record.decodeSeconds);
    recordWork(Phase::Decode, work.decode);
    // A queued request the batcher saw (every outcome but Error)
    // spent its blocked span on the queue; one it also dispatched
    // (not shed at admission) carries a measured queue wait.
    if (queued_ && record.outcome != FlightOutcome::Error)
        recordWork(Phase::QueueWait, work.queueWait);
    if (dispatched(record))
        histogram(Seconds, Phase::QueueWait).record(record.queueWaitSeconds);
    histogram(Seconds, Phase::Encode).record(record.encodeSeconds);
    recordWork(Phase::Encode, work.encode);

    histogram(RequestSeconds)
        .record(record.totalSeconds, record.traceId, record.seq);
    histogram(RequestCycles)
        .record(static_cast<double>(work.request.work()));
    if (work.request.hardware)
        histogram(RequestIpc).record(work.request.ipc());
    inflight_.add(-1.0);
    if (tracer_ && serverSpan)
        recordSpans(record, serverSpan, clientSpan);

    if (record.outcome != FlightOutcome::Ok)
        return record.seq;
    histogram(Seconds, Phase::Service).record(record.serviceSeconds);
    std::call_once(firstSuccess_, [this]() {
        const LabelMap label{{"model", model_}};
        requests_ = &registry_.counter(requestsTotalMetricName, label);
        rows_ = &registry_.counter(rowsTotalMetricName, label);
        if (sloTargetSeconds_ <= 0.0)
            return;
        // The whole SLO family at once, so the exposition shows both
        // counters, the target, and a 0 burn rate until the
        // sampler's first reading.
        sloGood_ = &registry_.counter(sloGoodMetricName, label);
        sloBad_ = &registry_.counter(sloBadMetricName, label);
        registry_.gauge(sloTargetMetricName, label)
            .set(sloTargetSeconds_);
        registry_.gauge(sloBurnRateMetricName, label);
    });
    if (sloGood_) {
        (record.serviceSeconds <= sloTargetSeconds_ ? sloGood_
                                                    : sloBad_)
            ->inc();
    }
    requests_.load()->inc();
    rows_.load()->inc(static_cast<uint64_t>(record.rows));
    return record.seq;
}

uint64_t
RequestLog::requests() const
{
    const Counter *c = requests_.load();
    return c ? c->value() : 0;
}

uint64_t
RequestLog::rows() const
{
    const Counter *c = rows_.load();
    return c ? c->value() : 0;
}

} // namespace telemetry
} // namespace djinn
