/**
 * @file
 * Server-side query batching (paper Section 5.1): queries for the
 * same model are stacked into one larger input matrix so a single
 * forward pass serves many queries, raising accelerator occupancy.
 */

#ifndef DJINN_CORE_BATCHER_HH
#define DJINN_CORE_BATCHER_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.hh"
#include "core/model_registry.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace_context.hh"

namespace djinn {
namespace telemetry {
class Tracer;
} // namespace telemetry
} // namespace djinn

namespace djinn {
namespace core {

/** Batching policy. */
struct BatchOptions {
    /** Combine at most this many queries per forward pass. */
    int64_t maxQueries = 16;

    /**
     * Admission control: cap on queued queries per model. A submit
     * against a full queue is rejected immediately with an
     * Overloaded status instead of growing the queue without
     * bound. 0 derives the cap as 4 x maxQueries.
     */
    int64_t maxQueueDepth = 0;

    /**
     * The per-model queue cap when the live dispatch target is
     * @p currentBatch queries. An explicit maxQueueDepth always
     * wins; otherwise the cap tracks the *current* batch size —
     * not the static maxQueries — so an adaptive scheduler that
     * shrinks the batch also tightens admission instead of letting
     * the queue grow to a stale, larger cap. Floored at one
     * minimum batch's worth of slack.
     */
    int64_t
    queueDepthCapFor(int64_t currentBatch) const
    {
        if (maxQueueDepth > 0)
            return maxQueueDepth;
        return 4 * std::max<int64_t>(currentBatch, 1);
    }
};

/** Result of one batched query. */
struct InferenceResult {
    Status status;
    std::vector<float> output;

    /** Total rows of the combined forward pass that served this
     * query (>= the query's own rows when batching took effect). */
    int64_t batchRows = 0;

    /** Queries combined into the serving batch. */
    int64_t batchQueries = 0;

    /** This query's position within the serving batch. */
    int64_t batchPosition = 0;

    /** Queue depth observed at enqueue, before this query joined
     * (sampled per request, so bursts shorter than the background
     * sampler interval still show in tail attribution). */
    int64_t admitQueueDepth = 0;

    /** Seconds this query waited between enqueue and dispatch
     * (0 for run() and for a query submit() ran inline, which
     * never queue). Set on a deadline shed too, like
     * admitQueueDepth. */
    double queueWaitSeconds = 0.0;

    /** Seconds of the combined forward pass that served it. */
    double forwardSeconds = 0.0;
};

/**
 * Batches inference requests per model and executes combined
 * forward passes. Assembly is work-conserving: at most one forward
 * per model is in flight, and a query that finds its model idle
 * runs at once on the submitting thread. Queries that arrive while
 * a forward runs queue behind it, and when it returns the model's
 * dispatcher thread (started by its first submit()) takes up to
 * the dispatch target of them as one batch, with no timed wait.
 * run() executes a batch of one on the calling thread through the
 * same execute step, so batched and unbatched serving share one
 * forward path. Thread-safe.
 */
class BatchingExecutor
{
  public:
    /**
     * @param registry the shared model registry.
     * @param options batching policy.
     * @param metrics telemetry destination: the executor records
     *        per-model forward-pass histograms, per-pass batch
     *        sizes, admission and sheds, and the live queue depth (a
     *        query's queue wait is returned in its InferenceResult
     *        for the caller to record). Must outlive the executor.
     */
    BatchingExecutor(const ModelRegistry &registry,
                     const BatchOptions &options,
                     telemetry::MetricRegistry &metrics);

    /** Stops dispatcher threads and fails queued queries. */
    ~BatchingExecutor();

    BatchingExecutor(const BatchingExecutor &) = delete;
    BatchingExecutor &operator=(const BatchingExecutor &) = delete;

    /**
     * Absolute per-query deadline on the steady clock; max() means
     * no deadline.
     */
    using Deadline = std::chrono::steady_clock::time_point;

    /** The no-deadline sentinel. */
    static constexpr Deadline
    noDeadline()
    {
        return Deadline::max();
    }

    /**
     * Submit one query: @p rows inputs for @p model, flattened into
     * @p data (rows x sample elements).
     *
     * When the model has no forward in flight, nothing queued,
     * and the dispatch gate (if set) admits, the query runs inline
     * as a batch of one on the calling thread, and the returned
     * future is already resolved (queue wait 0). Otherwise it
     * queues for the dispatcher.
     *
     * Admission control applies: a submit against a full queue
     * resolves immediately with an Overloaded status (the query is
     * never executed). A query whose @p deadline has passed when
     * its batch is assembled is shed before the forward pass with
     * a DeadlineExceeded status.
     *
     * When @p trace is valid and a tracer is attached, the executor
     * emits forward-pass and per-layer spans linked back to
     * @p trace under @p parent_span (the server-side request span);
     * the query's queue wait reaches the trace through its result's
     * queueWaitSeconds.
     *
     * @return a future resolving to the query's output rows.
     */
    std::future<InferenceResult> submit(
        const std::string &model, int64_t rows,
        std::vector<float> data,
        const telemetry::TraceContext &trace = {},
        uint64_t parent_span = 0, Deadline deadline = noDeadline());

    /**
     * Run one query as a batch of one on the calling thread: the
     * dispatcher's execute step without the queue, the dispatch
     * gate, or a dispatcher thread, and without the one-forward-
     * per-model rule (unbatched serving runs a model's queries
     * side by side). Validation and deadline shedding match
     * submit(). Traced spans land on the calling thread's track
     * under @p parent_span.
     */
    InferenceResult run(
        const std::string &model, int64_t rows,
        std::vector<float> data,
        const telemetry::TraceContext &trace = {},
        uint64_t parent_span = 0, Deadline deadline = noDeadline());

    /**
     * Attach a span destination. Call before serving traffic; the
     * tracer must outlive the executor.
     */
    void setTracer(telemetry::Tracer *tracer) { tracer_ = tracer; }

    /**
     * May @p model dispatch a batch right now? A submit() the gate
     * refuses queues instead of running inline, and a dispatcher
     * whose gate answers false parks (rechecking every millisecond
     * and on queue activity) with its queue intact — the fair-
     * share scheduler's deficit accounting hook. Call before
     * serving traffic.
     */
    using DispatchGate = std::function<bool(const std::string &)>;
    void setDispatchGate(DispatchGate gate)
    {
        gate_ = std::move(gate);
    }

    /**
     * Called after every combined forward pass with the model, the
     * number of queries served, and the pass's service seconds —
     * the scheduler's service-time calibration and dispatch-charge
     * hook. Runs on the thread that executed the pass (the
     * dispatcher, or the caller of run() or of an inline submit());
     * call before serving traffic.
     */
    using BatchObserver = std::function<void(
        const std::string &, int64_t, double)>;
    void setBatchObserver(BatchObserver observer)
    {
        observer_ = std::move(observer);
    }

    /**
     * Set @p model's live dispatch target (clamped to
     * [1, maxQueries]). The dispatcher assembles batches toward
     * the target instead of the static maxQueries, the admission
     * cap re-derives from it, and occupancy is reported against
     * it. Safe to call at any time; targets for models with no
     * queue yet apply when the queue is created.
     */
    void setBatchTarget(const std::string &model, int64_t target);

    /** The live dispatch target for @p model. */
    int64_t batchTarget(const std::string &model) const;

    /** Queries currently queued for @p model (0 when it has no
     * queue), for the scheduler's backlog-aware latency
     * prediction. */
    int64_t queueDepth(const std::string &model) const;

    /**
     * Queries currently queued across every model, for the
     * background sampler's `djinn_batch_queue_depth_total` gauge.
     * Maintained atomically on the submit/dispatch path so reading
     * it never takes a queue mutex.
     */
    int64_t
    queueDepthTotal() const
    {
        return pendingTotal_.load(std::memory_order_relaxed);
    }

  private:
    struct Pending {
        int64_t rows;
        std::vector<float> data;
        std::promise<InferenceResult> promise;
        std::chrono::steady_clock::time_point enqueued;

        /** Originating trace; invalid for untraced queries. */
        telemetry::TraceContext trace;

        /** Server-side request span the batch spans hang off. */
        uint64_t parentSpan = 0;

        /** Absolute deadline; max() when the query has none. */
        Deadline deadline = Deadline::max();

        /** Queue depth seen at enqueue, before this query joined. */
        int64_t admitDepth = 0;

        /** Enqueue-to-dispatch seconds, set when the batch is
         * assembled; 0 for run() and inline queries. */
        double queueWaitSeconds = 0.0;
    };

    struct ModelQueue {
        std::mutex mutex;
        std::condition_variable cv;
        std::vector<Pending> pending;
        /** The served model name — the registry key, which for a
         * tenant instance differs from network->name() (instances
         * share the base network's weights; see
         * ModelRegistry::addInstance). The scheduler gate and
         * batch observer key on this, so per-tenant accounting
         * stays per-instance. */
        std::string name;
        std::shared_ptr<const nn::Network> network;

        /** Started by the first submit() under the queue mutex;
         * run() never starts it. */
        std::thread dispatcher;
        bool stopping = false;

        /** A forward for this model is in flight, inline or
         * dispatched: new queries queue behind it, and the
         * dispatcher waits for it to clear. */
        bool busy = false;

        /** Live dispatch target in [1, maxQueries]; atomic so the
         * scheduler can retarget without the queue mutex. */
        std::atomic<int64_t> target{1};

        // Cached telemetry instruments, resolved once so the hot
        // path never takes the registry lookup mutex. The admission
        // instruments (admit depth, depth gauge, queue-full sheds)
        // are resolved when the dispatcher starts; the rest at
        // queue creation.
        telemetry::LogHistogram *forwardHist = nullptr;
        telemetry::LogHistogram *batchRowsHist = nullptr;
        telemetry::LogHistogram *admitDepthHist = nullptr;
        telemetry::Gauge *depthGauge = nullptr;
        telemetry::Gauge *occupancyGauge = nullptr;
        telemetry::Counter *batchesCounter = nullptr;

        // Cycle accounting for the pass's forward phase, recorded
        // on the dispatcher thread (the thread that burns the
        // cycles; see DESIGN.md "Cycle accounting").
        telemetry::LogHistogram *forwardCyclesHist = nullptr;
        telemetry::LogHistogram *forwardInstructionsHist = nullptr;
        telemetry::LogHistogram *forwardIpcHist = nullptr;
        telemetry::LogHistogram *forwardCacheMissHist = nullptr;

        // Shed accounting (djinn_shed_total{model,reason}).
        telemetry::Counter *shedQueueFullCounter = nullptr;
        telemetry::Counter *shedDeadlineCounter = nullptr;
    };

    /** Assemble: wait for queued queries and an idle model, pass
     * the gate, take a batch, mark it dispatched; then execute()
     * it. */
    void dispatchLoop(ModelQueue *queue);

    /** End the queue wait of every query in @p batch at
     * @p dispatch: store each wait (the server's queue_wait span is
     * derived from it). */
    void markDispatched(std::vector<Pending> &batch,
                        std::chrono::steady_clock::time_point dispatch);

    /**
     * Execute: shed expired deadlines, stack the inputs, run one
     * forward pass, emit its spans and per-pass metrics, call the
     * observer, and resolve every query's promise. @p target is
     * the dispatch target occupancy is reported against; @p track
     * the trace track the spans land on.
     */
    void execute(ModelQueue &queue, std::vector<Pending> &batch,
                 int64_t target, const std::string &track);

    /** The model's state (created on first use, without a
     * dispatcher), or null with @p error set when the model is
     * unknown, the executor is stopping, or the payload does not
     * hold @p rows samples. */
    ModelQueue *queueFor(const std::string &model, int64_t rows,
                         const std::vector<float> &data,
                         Status &error);

    /** Resolve the queue-only instruments and start @p queue's
     * dispatcher; caller holds the queue mutex. */
    void startDispatcherLocked(ModelQueue *queue);

    const ModelRegistry &registry_;
    BatchOptions options_;
    telemetry::MetricRegistry &metrics_;
    telemetry::Tracer *tracer_ = nullptr;
    DispatchGate gate_;
    BatchObserver observer_;

    mutable std::mutex mapMutex_;
    std::map<std::string, std::unique_ptr<ModelQueue>> queues_;

    /** Targets set before a model's queue exists, applied at queue
     * creation. Guarded by mapMutex_. */
    std::map<std::string, int64_t> pendingTargets_;
    bool stopping_ = false;

    std::atomic<int64_t> pendingTotal_{0};
};

} // namespace core
} // namespace djinn

#endif // DJINN_CORE_BATCHER_HH
