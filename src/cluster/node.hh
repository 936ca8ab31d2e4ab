/**
 * @file
 * One simulated DjiNN server node: per-application batch queues
 * with a bounded admission limit, work-conserving batch formation
 * (a free GPU takes up to maxBatch queued queries at once, so
 * batches fill only while the GPUs are busy, as in the live
 * BatchingExecutor), a pool of parallel GPU executors, and
 * deadline enforcement at batch
 * dequeue — the PR 5 lifecycle semantics (shed `Overloaded` at
 * enqueue, `DeadlineExceeded` before the forward pass) transplanted
 * into the discrete-event world.
 */

#ifndef DJINN_CLUSTER_NODE_HH
#define DJINN_CLUSTER_NODE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/policy.hh"
#include "serve/app.hh"
#include "serve/scheduler.hh"
#include "sim/event_queue.hh"

namespace djinn {
namespace cluster {

/**
 * Seconds one node needs to serve a batch of @p queries of @p app
 * (host prep + transfers + GPU forward, pipeline-collapsed). Must
 * be deterministic per (app, queries) for reproducible runs;
 * stochastic models used in queueing-theory tests may keep their
 * own seeded generator, which the single-threaded simulator calls
 * in a deterministic order.
 */
using ServiceModel =
    std::function<double(serve::App app, int64_t queries)>;

/** Static shape of one node. */
struct NodeSpec {
    /** Parallel GPU executors. */
    int gpus = 1;

    /** Admission cap on queued (not yet executing) queries. */
    int64_t queueLimit = 256;

    /**
     * Queries per dispatched batch; 0 uses each app's tuned batch
     * (Table 3).
     */
    int64_t maxBatch = 0;

    /** Relative node speed; 2.0 serves twice as fast. */
    double speedFactor = 1.0;

    /**
     * SLO-driven adaptive batching (DESIGN.md §16): size each
     * app's dispatch batch from its observed arrival rate and
     * calibrated batch service time instead of the static tuned
     * batch, shrinking under burn-rate pressure.
     */
    bool adaptiveBatch = false;

    /**
     * Multi-tenant weighted fair sharing: pick the dispatchable
     * app whose tenant holds the largest deficit-round-robin
     * credit (work-conserving; a free GPU never idles while any
     * app is dispatchable).
     */
    bool fairShare = false;

    /** Per-query latency SLO driving the adaptive policy,
     * seconds. <= 0 keeps the scheduler's default. */
    double sloSeconds = 0.0;

    /**
     * Fair-share weight per app name (serve::appName); apps not
     * listed share the implicit "default" tenant at weight 1.
     */
    std::map<std::string, double> tenantWeights;
};

/** One simulated server. Single-threaded, driven by the event
 * queue. */
class ClusterNode
{
  public:
    /** One routed request. */
    struct Request {
        /** Trace index; stable across retries. */
        uint64_t id = 0;

        /** Target application. */
        serve::App app = serve::App::IMC;

        /** First front-end arrival (latency baseline), seconds. */
        double firstArrival = 0.0;

        /** Absolute deadline; effectively none by default. */
        double deadline = 1e300;

        /** Retry attempts before this admission (router-stamped). */
        int32_t attempt = 0;

        /** Simulation time this attempt was admitted; stamped by
         * enqueue(). */
        double admitTime = 0.0;

        /** Queued queries observed at admission, before this one
         * joined; stamped by enqueue(). */
        int64_t admitDepth = 0;
    };

    /** Batch context delivered with each completion — the flight-
     * record fields only the serving node knows. */
    struct Served {
        /** Queries combined into the serving batch. */
        int64_t batchQueries = 0;

        /** This query's position within the batch. */
        int64_t batchPosition = 0;

        /** The batch's service time, seconds. */
        double serviceSeconds = 0.0;

        /** Simulation time the batch was dispatched. */
        double dispatchTime = 0.0;
    };

    /** Called once per query when its batch completes. */
    using CompleteFn =
        std::function<void(const Request &, const Served &)>;

    /** Called when a queued query is dropped at dequeue because
     * its deadline already passed. */
    using DeadlineShedFn = std::function<void(const Request &)>;

    ClusterNode(sim::EventQueue &eq, int id, const NodeSpec &spec,
                ServiceModel service, CompleteFn onComplete,
                DeadlineShedFn onDeadlineShed);

    ClusterNode(const ClusterNode &) = delete;
    ClusterNode &operator=(const ClusterNode &) = delete;

    /**
     * Admit one query.
     *
     * @return false when the queue is at its limit (the caller
     *         sheds Overloaded).
     */
    bool enqueue(const Request &request);

    /** The router's view of this node. */
    NodeView view() const;

    /** Queries waiting in batch queues. */
    int64_t queuedQueries() const { return totalQueued_; }

    /** Queries currently executing. */
    int64_t inService() const { return inService_; }

    /** Largest queued-query count ever observed. */
    int64_t maxQueuedQueries() const { return maxQueued_; }

    /** Cumulative GPU-busy seconds across executors. */
    double busySeconds() const { return busySeconds_; }

    /** Batches dispatched. */
    uint64_t batchesDispatched() const { return batches_; }

    /** Queries dispatched into batches. */
    uint64_t queriesDispatched() const { return dispatched_; }

    /** Node id (index in the cluster). */
    int id() const { return id_; }

  private:
    int64_t effectiveMaxBatch(serve::App app) const;
    void pump();
    void dispatch(serve::App app);
    void onBatchDone(std::vector<Request> batch, double serviceTime,
                     double dispatchTime);
    void registerApp(serve::App app);
    void maybeSchedTick();

    sim::EventQueue &eq_;
    int id_;
    NodeSpec spec_;
    ServiceModel service_;
    CompleteFn onComplete_;
    DeadlineShedFn onDeadlineShed_;

    std::map<serve::App, std::deque<Request>> queues_;
    std::vector<serve::App> order_;  ///< apps in first-seen order
    size_t cursor_ = 0;              ///< round-robin scan start

    int freeGpus_;
    int64_t totalQueued_ = 0;
    int64_t inService_ = 0;
    int64_t maxQueued_ = 0;
    double busySeconds_ = 0.0;
    uint64_t batches_ = 0;
    uint64_t dispatched_ = 0;

    /** Smoothed seconds per query actually observed (EWMA); 0
     * until the first batch completes. */
    double ewmaQuerySeconds_ = 0.0;

    /** Adaptive batch + fair-share control plane; null unless
     * spec.adaptiveBatch or spec.fairShare is set. Ticked lazily
     * from enqueue/completion events in virtual time (the
     * single-threaded simulator never self-schedules control
     * events, which would keep the event queue alive forever). */
    std::unique_ptr<serve::AdaptiveScheduler> sched_;
    double lastSchedTick_ = -1.0;
    std::map<serve::App, std::string> tenantOf_;
};

} // namespace cluster
} // namespace djinn

#endif // DJINN_CLUSTER_NODE_HH
