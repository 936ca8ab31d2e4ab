#include "core/batcher.hh"

#include <chrono>
#include <cstring>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/perf_sink.hh"
#include "nn/profile.hh"
#include "telemetry/perf_counters.hh"
#include "telemetry/trace.hh"
#include "telemetry/tracer.hh"

namespace djinn {
namespace core {

namespace {

/** Batch sizes and queue depths are small integers: 2x buckets
 * from 1 to 64k. */
const telemetry::HistogramOptions batchSizeOptions{1.0, 2.0, 16,
                                                   false};

} // namespace

BatchingExecutor::BatchingExecutor(const ModelRegistry &registry,
                                   const BatchOptions &options,
                                   telemetry::MetricRegistry &metrics)
    : registry_(registry), options_(options), metrics_(metrics)
{
    if (options.maxQueries <= 0)
        fatal("BatchingExecutor: maxQueries must be positive");
    if (options.maxQueueDepth < 0)
        fatal("BatchingExecutor: maxQueueDepth must be "
              "non-negative");
}

BatchingExecutor::~BatchingExecutor()
{
    {
        std::lock_guard<std::mutex> lock(mapMutex_);
        stopping_ = true;
        for (auto &[name, queue] : queues_) {
            std::lock_guard<std::mutex> qlock(queue->mutex);
            queue->stopping = true;
            queue->cv.notify_all();
        }
    }
    for (auto &[name, queue] : queues_) {
        if (queue->dispatcher.joinable())
            queue->dispatcher.join();
    }
}

BatchingExecutor::ModelQueue *
BatchingExecutor::queueFor(const std::string &model, int64_t rows,
                           const std::vector<float> &data,
                           Status &error)
{
    std::lock_guard<std::mutex> lock(mapMutex_);
    if (stopping_) {
        error = Status::unavailable("executor shutting down");
        return nullptr;
    }
    ModelQueue *raw = nullptr;
    auto it = queues_.find(model);
    if (it != queues_.end()) {
        raw = it->second.get();
    } else {
        auto network = registry_.find(model);
        if (!network) {
            error = Status::notFound("unknown model '" + model + "'");
            return nullptr;
        }
        auto queue = std::make_unique<ModelQueue>();
        queue->name = model;
        queue->network = std::move(network);
        auto pending_target = pendingTargets_.find(model);
        queue->target.store(pending_target != pendingTargets_.end()
                                ? pending_target->second
                                : options_.maxQueries,
                            std::memory_order_relaxed);
        const telemetry::LabelMap model_label{{"model", model}};
        const telemetry::LabelMap forward_label{
            {"model", model},
            {"phase", telemetry::phaseName(telemetry::Phase::Forward)}};
        queue->forwardHist = &metrics_.histogram(
            telemetry::phaseMetricName, forward_label);
        queue->batchRowsHist = &metrics_.histogram(
            "djinn_batch_rows", model_label, batchSizeOptions);
        queue->occupancyGauge =
            &metrics_.gauge("djinn_batch_occupancy", model_label);
        queue->batchesCounter =
            &metrics_.counter("djinn_batches_total", model_label);
        queue->forwardCyclesHist = &metrics_.histogram(
            telemetry::phaseCyclesMetricName, forward_label);
        queue->forwardInstructionsHist = &metrics_.histogram(
            telemetry::phaseInstructionsMetricName, forward_label);
        queue->forwardIpcHist = &metrics_.histogram(
            telemetry::phaseIpcMetricName, forward_label);
        queue->forwardCacheMissHist = &metrics_.histogram(
            telemetry::phaseCacheMissMetricName, forward_label);
        queue->shedDeadlineCounter = &metrics_.counter(
            "djinn_shed_total",
            {{"model", model}, {"reason", "deadline"}});
        raw = queue.get();
        queues_.emplace(model, std::move(queue));
    }

    int64_t sample_elems = raw->network->inputShape().sampleElems();
    if (rows <= 0 ||
        static_cast<int64_t>(data.size()) != rows * sample_elems) {
        error = Status::invalidArgument(strprintf(
            "model '%s' expects %lld floats per row, got %zu "
            "floats for %lld rows", model.c_str(),
            static_cast<long long>(sample_elems), data.size(),
            static_cast<long long>(rows)));
        return nullptr;
    }
    return raw;
}

void
BatchingExecutor::startDispatcherLocked(ModelQueue *queue)
{
    const std::string &model = queue->name;
    const telemetry::LabelMap model_label{{"model", model}};
    // Admit-time queue depth, sampled per request at enqueue: the
    // background-sampler gauge aliases bursts shorter than its
    // interval; this histogram does not.
    queue->admitDepthHist = &metrics_.histogram(
        "djinn_admit_queue_depth", model_label, batchSizeOptions);
    queue->depthGauge =
        &metrics_.gauge("djinn_batch_queue_depth", model_label);
    queue->shedQueueFullCounter = &metrics_.counter(
        "djinn_shed_total",
        {{"model", model}, {"reason", "queue_full"}});
    // The thread is named before the first submit() returns, so a
    // caller whose query ran inline still sees the model's
    // dispatcher.
    std::promise<void> named;
    std::future<void> started = named.get_future();
    queue->dispatcher = std::thread(
        [this, queue, named = std::move(named)]() mutable {
            common::setCurrentThreadName(
                ("batch-" + queue->name).c_str());
            named.set_value();
            dispatchLoop(queue);
        });
    started.wait();
}

std::future<InferenceResult>
BatchingExecutor::submit(const std::string &model, int64_t rows,
                         std::vector<float> data,
                         const telemetry::TraceContext &trace,
                         uint64_t parent_span, Deadline deadline)
{
    std::promise<InferenceResult> promise;
    std::future<InferenceResult> future = promise.get_future();

    Status error = Status::ok();
    ModelQueue *queue = queueFor(model, rows, data, error);
    if (!queue) {
        promise.set_value({error, {}});
        return future;
    }

    std::vector<Pending> batch;
    {
        std::lock_guard<std::mutex> lock(queue->mutex);
        if (queue->stopping) {
            promise.set_value(
                {Status::unavailable("executor shutting down"), {}});
            return future;
        }
        if (!queue->dispatcher.joinable())
            startDispatcherLocked(queue);
        // Work-conserving: an idle model runs the query now, on
        // this thread. Nothing queued ahead of it means no query is
        // overtaken; the busy mark makes peers that arrive meanwhile
        // queue behind this forward.
        if (!queue->busy && queue->pending.empty() &&
            (!gate_ || gate_(queue->name))) {
            queue->busy = true;
            batch.push_back({rows, std::move(data), std::move(promise),
                             std::chrono::steady_clock::now(), trace,
                             parent_span, deadline, 0});
        } else {
            // Admission control: reject at enqueue instead of
            // queueing without bound. The caller sees Overloaded
            // and may retry after backoff; the query was never
            // executed. The cap is re-derived from the live
            // dispatch target on every submit, so a scheduler that
            // shrinks the batch tightens admission with it.
            if (static_cast<int64_t>(queue->pending.size()) >=
                options_.queueDepthCapFor(queue->target.load(
                    std::memory_order_relaxed))) {
                queue->shedQueueFullCounter->inc();
                promise.set_value(
                    {Status::overloaded(strprintf(
                         "model '%s' queue full (%lld queued)",
                         model.c_str(),
                         static_cast<long long>(
                             queue->pending.size()))),
                     {}});
                return future;
            }
            int64_t admit_depth =
                static_cast<int64_t>(queue->pending.size());
            queue->pending.push_back(
                {rows, std::move(data), std::move(promise),
                 std::chrono::steady_clock::now(), trace, parent_span,
                 deadline, admit_depth});
            pendingTotal_.fetch_add(1, std::memory_order_relaxed);
            queue->admitDepthHist->record(
                static_cast<double>(admit_depth));
            queue->depthGauge->set(
                static_cast<double>(queue->pending.size()));
            // A busy model's dispatcher is woken when its forward
            // clears, not by every arrival behind it.
            if (!queue->busy)
                queue->cv.notify_all();
            return future;
        }
    }

    // Inline: the query waited for nothing, and its spans land on
    // this thread's track (the connection worker's, in the server).
    struct ClearBusy {
        ModelQueue &queue;
        ~ClearBusy()
        {
            std::lock_guard<std::mutex> lock(queue.mutex);
            queue.busy = false;
            if (!queue.pending.empty())
                queue.cv.notify_all();
        }
    } clear_busy{*queue};
    queue->admitDepthHist->record(0.0);
    const std::string track =
        tracer_ ? common::currentThreadName() : std::string();
    markDispatched(batch, batch[0].enqueued);
    execute(*queue, batch,
            queue->target.load(std::memory_order_relaxed), track);
    return future;
}

InferenceResult
BatchingExecutor::run(const std::string &model, int64_t rows,
                      std::vector<float> data,
                      const telemetry::TraceContext &trace,
                      uint64_t parent_span, Deadline deadline)
{
    Status error = Status::ok();
    ModelQueue *queue = queueFor(model, rows, data, error);
    if (!queue)
        return {error, {}};

    std::vector<Pending> batch(1);
    Pending &query = batch[0];
    query.rows = rows;
    query.data = std::move(data);
    query.trace = trace;
    query.parentSpan = parent_span;
    query.deadline = deadline;
    std::future<InferenceResult> result = query.promise.get_future();

    // The spans land on the caller's own track (the connection
    // worker's, in the server), next to its request span.
    execute(*queue, batch, 1, common::currentThreadName());
    return result.get();
}

void
BatchingExecutor::dispatchLoop(ModelQueue *queue)
{
    const std::string track = "batch-" + queue->network->name();

    while (true) {
        std::vector<Pending> batch;
        int64_t target = options_.maxQueries;
        {
            std::unique_lock<std::mutex> lock(queue->mutex);
            // No timed wait for peers: the queue fills only while a
            // forward is in flight, and is taken the moment it
            // clears.
            queue->cv.wait(lock, [&]() {
                return !queue->busy &&
                       (queue->stopping || !queue->pending.empty());
            });
            if (queue->stopping && queue->pending.empty())
                return;
            // Fair-share gate: hold the queued batch until the
            // scheduler grants this model's tenant a dispatch slot.
            // The queue mutex is released while parked, so
            // admission keeps running (a non-empty queue keeps
            // submit() from running inline); a shutdown wakes the
            // wait and dispatches the remainder.
            if (gate_ && !queue->stopping) {
                const std::string &name = queue->name;
                while (!queue->stopping && !gate_(name)) {
                    queue->cv.wait_for(
                        lock, std::chrono::milliseconds(1));
                }
            }
            target = queue->target.load(std::memory_order_relaxed);
            int64_t take = std::min<int64_t>(
                target,
                static_cast<int64_t>(queue->pending.size()));
            batch.assign(
                std::make_move_iterator(queue->pending.begin()),
                std::make_move_iterator(queue->pending.begin() +
                                        take));
            queue->pending.erase(queue->pending.begin(),
                                 queue->pending.begin() + take);
            queue->busy = true;
            pendingTotal_.fetch_sub(take, std::memory_order_relaxed);
            queue->depthGauge->set(
                static_cast<double>(queue->pending.size()));
        }

        // Queue wait ends here, at dispatch, for every query taken
        // (including any execute() then sheds for its deadline).
        markDispatched(batch, std::chrono::steady_clock::now());
        execute(*queue, batch, target, track);
        std::lock_guard<std::mutex> lock(queue->mutex);
        queue->busy = false;
    }
}

void
BatchingExecutor::markDispatched(
    std::vector<Pending> &batch,
    std::chrono::steady_clock::time_point dispatch)
{
    for (Pending &p : batch) {
        p.queueWaitSeconds =
            std::chrono::duration<double>(dispatch - p.enqueued)
                .count();
    }
}

void
BatchingExecutor::execute(ModelQueue &queue,
                          std::vector<Pending> &batch,
                          int64_t target, const std::string &track)
{
    // Deadline enforcement: shed expired queries BEFORE the forward
    // pass. Spending a batch slot on an answer nobody is waiting
    // for wastes compute exactly when the service is most behind.
    {
        auto now = std::chrono::steady_clock::now();
        size_t kept = 0;
        for (size_t i = 0; i < batch.size(); ++i) {
            if (batch[i].deadline <= now) {
                queue.shedDeadlineCounter->inc();
                // The shed query's record still shows the wait
                // and backlog that cost it its deadline.
                InferenceResult shed{
                    Status::deadlineExceeded(
                        "deadline expired before forward pass"),
                    {}};
                shed.admitQueueDepth = batch[i].admitDepth;
                shed.queueWaitSeconds = batch[i].queueWaitSeconds;
                batch[i].promise.set_value(std::move(shed));
                continue;
            }
            if (kept != i)
                batch[kept] = std::move(batch[i]);
            ++kept;
        }
        batch.resize(kept);
    }
    if (batch.empty())
        return;

    auto start_time = std::chrono::steady_clock::now();
    const nn::Network &net = *queue.network;
    int64_t total_rows = 0;
    for (const auto &p : batch)
        total_rows += p.rows;

    // Trace when any query in the batch carries a sampled
    // context; the batch spans link back to every such trace.
    const Pending *primary = nullptr;
    std::string trace_ids;
    if (tracer_) {
        for (const auto &p : batch) {
            if (!p.trace.valid() || !p.trace.sampled())
                continue;
            if (!primary)
                primary = &p;
            if (!trace_ids.empty())
                trace_ids += ",";
            trace_ids += telemetry::traceIdToHex(p.trace.traceId);
        }
    }

    CountingProfileSink profile;
    int64_t fwd_start_us = primary ? telemetry::traceNowUs() : 0;
    nn::Tensor output;
    telemetry::CounterDelta forward_delta;
    try {
        // Stack all queries into one combined input matrix.
        nn::Tensor input(net.inputShape().withBatch(total_rows));
        int64_t row = 0;
        for (const auto &p : batch) {
            std::memcpy(input.sample(row), p.data.data(),
                        p.data.size() * sizeof(float));
            row += p.rows;
        }
        telemetry::CounterScope forward_scope;
        output = net.forward(input, primary ? &profile : nullptr);
        forward_delta = forward_scope.stop();
    } catch (const FatalError &e) {
        for (Pending &p : batch)
            p.promise.set_value({Status::internal(e.what()), {}});
        return;
    }
    int64_t out_elems = net.outputShape().sampleElems();

    if (primary) {
        int64_t fwd_end_us = telemetry::traceNowUs();
        uint64_t fwd_span = tracer_->nextSpanId();
        telemetry::TraceEvent fwd;
        fwd.name = "forward";
        fwd.category = "batch";
        fwd.track = track;
        fwd.traceId = primary->trace.traceId;
        fwd.spanId = fwd_span;
        fwd.parentSpanId = primary->parentSpan;
        fwd.startUs = fwd_start_us;
        fwd.durationUs = fwd_end_us - fwd_start_us;
        fwd.args.emplace_back(
            "batch_rows",
            strprintf("%lld", static_cast<long long>(total_rows)));
        fwd.args.emplace_back("queries",
                              strprintf("%zu", batch.size()));
        fwd.args.emplace_back("trace_ids", trace_ids);
        tracer_->record(std::move(fwd));

        // Lay the per-layer spans out sequentially under the
        // forward span using their measured durations.
        int64_t layer_start = fwd_start_us;
        for (size_t i = 0; i < profile.profiles().size(); ++i) {
            const nn::LayerProfile &lp = profile.profiles()[i];
            telemetry::TraceEvent e;
            e.name = lp.name;
            e.category = "layer";
            e.track = track;
            e.traceId = primary->trace.traceId;
            e.spanId = tracer_->nextSpanId();
            e.parentSpanId = fwd_span;
            e.startUs = layer_start;
            e.durationUs = static_cast<int64_t>(lp.seconds * 1e6);
            e.args.emplace_back("kind", nn::layerKindName(lp.kind));
            e.args.emplace_back(
                "flops",
                strprintf("%llu",
                          static_cast<unsigned long long>(lp.flops)));
            e.args.emplace_back(
                "activation_bytes",
                strprintf("%llu", static_cast<unsigned long long>(
                                      lp.activationBytes)));
            if (i < profile.deltas().size() &&
                profile.deltas()[i].hardware) {
                const telemetry::CounterDelta &d =
                    profile.deltas()[i];
                e.args.emplace_back(
                    "cycles",
                    strprintf("%llu", static_cast<unsigned long long>(
                                          d.cycles)));
                e.args.emplace_back(
                    "instructions",
                    strprintf("%llu", static_cast<unsigned long long>(
                                          d.instructions)));
                e.args.emplace_back("ipc",
                                    strprintf("%.3f", d.ipc()));
            }
            layer_start += e.durationUs;
            tracer_->record(std::move(e));
        }
    }

    double forward_seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start_time).count();
    queue.forwardHist->record(forward_seconds);
    queue.batchRowsHist->record(static_cast<double>(total_rows));
    queue.batchesCounter->inc();
    // Occupancy against the *live* dispatch target: with an
    // adaptive scheduler the static maxQueries would read
    // misleadingly low after a shrink (and > 1.0 after a grow past
    // a stale denominator).
    queue.occupancyGauge->set(
        static_cast<double>(batch.size()) /
        static_cast<double>(std::max<int64_t>(target, 1)));
    queue.forwardCyclesHist->record(
        static_cast<double>(forward_delta.work()));
    if (forward_delta.hardware) {
        queue.forwardInstructionsHist->record(
            static_cast<double>(forward_delta.instructions));
        queue.forwardIpcHist->record(forward_delta.ipc());
        queue.forwardCacheMissHist->record(
            static_cast<double>(forward_delta.cacheMisses));
    }

    if (observer_) {
        observer_(queue.name, static_cast<int64_t>(batch.size()),
                  forward_seconds);
    }

    // Scatter results back to their queries, each annotated with
    // its own view of the batch (position, queue wait, admit
    // depth) for the flight recorder.
    int64_t row = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
        Pending &p = batch[i];
        std::vector<float> slice(
            output.sample(row),
            output.sample(row) + p.rows * out_elems);
        row += p.rows;
        InferenceResult result{Status::ok(), std::move(slice),
                               total_rows};
        result.batchQueries = static_cast<int64_t>(batch.size());
        result.batchPosition = static_cast<int64_t>(i);
        result.admitQueueDepth = p.admitDepth;
        result.queueWaitSeconds = p.queueWaitSeconds;
        result.forwardSeconds = forward_seconds;
        p.promise.set_value(std::move(result));
    }
}

void
BatchingExecutor::setBatchTarget(const std::string &model,
                                 int64_t target)
{
    target = std::max<int64_t>(
        1, std::min(target, options_.maxQueries));
    std::lock_guard<std::mutex> lock(mapMutex_);
    pendingTargets_[model] = target;
    auto it = queues_.find(model);
    if (it == queues_.end())
        return;
    ModelQueue *queue = it->second.get();
    queue->target.store(target, std::memory_order_relaxed);
    // Wake the dispatcher: a smaller target may make the current
    // backlog dispatchable right now.
    std::lock_guard<std::mutex> qlock(queue->mutex);
    queue->cv.notify_all();
}

int64_t
BatchingExecutor::batchTarget(const std::string &model) const
{
    std::lock_guard<std::mutex> lock(mapMutex_);
    auto it = queues_.find(model);
    if (it != queues_.end())
        return it->second->target.load(std::memory_order_relaxed);
    auto pending = pendingTargets_.find(model);
    return pending != pendingTargets_.end() ? pending->second
                                            : options_.maxQueries;
}

int64_t
BatchingExecutor::queueDepth(const std::string &model) const
{
    std::lock_guard<std::mutex> lock(mapMutex_);
    auto it = queues_.find(model);
    if (it == queues_.end())
        return 0;
    std::lock_guard<std::mutex> qlock(it->second->mutex);
    return static_cast<int64_t>(it->second->pending.size());
}

} // namespace core
} // namespace djinn
