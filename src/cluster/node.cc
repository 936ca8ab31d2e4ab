#include "cluster/node.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace djinn {
namespace cluster {

ClusterNode::ClusterNode(sim::EventQueue &eq, int id,
                         const NodeSpec &spec, ServiceModel service,
                         CompleteFn onComplete,
                         DeadlineShedFn onDeadlineShed)
    : eq_(eq), id_(id), spec_(spec), service_(std::move(service)),
      onComplete_(std::move(onComplete)),
      onDeadlineShed_(std::move(onDeadlineShed)),
      freeGpus_(spec.gpus)
{
    if (spec_.gpus <= 0)
        fatal("ClusterNode: gpus must be positive");
    if (spec_.queueLimit <= 0)
        fatal("ClusterNode: queueLimit must be positive");
    if (spec_.speedFactor <= 0.0)
        fatal("ClusterNode: speedFactor must be positive");
    if (!service_)
        fatal("ClusterNode: service model must be set");

    if (spec_.adaptiveBatch || spec_.fairShare) {
        serve::SchedulerOptions options;
        if (spec_.sloSeconds > 0.0)
            options.defaultSloSeconds = spec_.sloSeconds;
        // Dispatch capacity scales with the executor pool: N GPUs
        // serve N seconds of batch time per simulated second.
        options.poolSeconds = static_cast<double>(spec_.gpus);
        sched_ = std::make_unique<serve::AdaptiveScheduler>(options);
        for (const auto &[name, weight] : spec_.tenantWeights)
            sched_->addTenant(name, weight);
    }
}

int64_t
ClusterNode::effectiveMaxBatch(serve::App app) const
{
    int64_t base = spec_.maxBatch > 0 ? spec_.maxBatch
                                      : serve::appSpec(app).tunedBatch;
    if (sched_ && spec_.adaptiveBatch) {
        int64_t target = sched_->batchTarget(serve::appName(app));
        return std::max<int64_t>(1, std::min(target, base));
    }
    return base;
}

void
ClusterNode::registerApp(serve::App app)
{
    if (!sched_)
        return;
    const std::string name = serve::appName(app);
    // An app named in tenantWeights is its own tenant; everything
    // else shares the scheduler's implicit "default" tenant.
    std::string tenant = "default";
    if (spec_.tenantWeights.count(name))
        tenant = name;
    tenantOf_[app] = tenant;
    sched_->assignModel(name, tenant);
    sched_->setMaxBatch(name, spec_.maxBatch > 0
                                  ? spec_.maxBatch
                                  : serve::appSpec(app).tunedBatch);
    if (spec_.sloSeconds > 0.0)
        sched_->setSlo(name, spec_.sloSeconds);
}

void
ClusterNode::maybeSchedTick()
{
    if (!sched_)
        return;
    const double now = eq_.now();
    // A 100 ms control period in virtual time, piggybacked on
    // arrival/completion events; idle nodes simply stop ticking.
    if (lastSchedTick_ >= 0.0 && now - lastSchedTick_ < 0.1)
        return;
    for (const auto &[app, queue] : queues_) {
        sched_->setBacklog(serve::appName(app),
                           static_cast<int64_t>(queue.size()));
    }
    sched_->tick(now);
    lastSchedTick_ = now;
}

bool
ClusterNode::enqueue(const Request &request)
{
    if (totalQueued_ >= spec_.queueLimit)
        return false;

    auto [it, inserted] = queues_.try_emplace(request.app);
    if (inserted) {
        order_.push_back(request.app);
        registerApp(request.app);
    }
    if (sched_)
        sched_->observeArrival(serve::appName(request.app), 1);
    Request admitted = request;
    admitted.admitTime = eq_.now();
    admitted.admitDepth = totalQueued_;
    it->second.push_back(admitted);
    ++totalQueued_;
    maxQueued_ = std::max(maxQueued_, totalQueued_);
    maybeSchedTick();
    pump();
    return true;
}

NodeView
ClusterNode::view() const
{
    NodeView view;
    view.queuedQueries = totalQueued_;
    view.inService = inService_;
    view.queueLimit = spec_.queueLimit;
    // Optimistic before the first completion (ewma 0): deadline
    // policies then behave like their non-deadline variants until
    // the node has calibrated itself.
    view.estimatedLatency =
        ewmaQuerySeconds_ *
        static_cast<double>(totalQueued_ + inService_ + 1) /
        static_cast<double>(spec_.gpus);
    return view;
}

void
ClusterNode::pump()
{
    while (freeGpus_ > 0 && !order_.empty()) {
        bool found = false;
        if (sched_ && spec_.fairShare) {
            // Weighted fair sharing: among dispatchable apps, pick
            // the one whose tenant holds the largest deficit
            // credit. Work-conserving — a free GPU never idles
            // while anything is dispatchable, even if every
            // deficit is negative. Ties break on the round-robin
            // scan order (strict >), keeping runs deterministic.
            bool have = false;
            size_t best = 0;
            double bestDeficit = 0.0;
            for (size_t probe = 0; probe < order_.size(); ++probe) {
                size_t i = (cursor_ + probe) % order_.size();
                serve::App app = order_[i];
                if (queues_[app].empty())
                    continue;
                double deficit =
                    sched_->tenantDeficit(tenantOf_.at(app));
                if (!have || deficit > bestDeficit) {
                    have = true;
                    best = i;
                    bestDeficit = deficit;
                }
            }
            if (have) {
                cursor_ = (best + 1) % order_.size();
                dispatch(order_[best]);
                found = true;
            }
        } else {
            for (size_t probe = 0; probe < order_.size(); ++probe) {
                size_t i = (cursor_ + probe) % order_.size();
                serve::App app = order_[i];
                if (!queues_[app].empty()) {
                    cursor_ = (i + 1) % order_.size();
                    dispatch(app);
                    found = true;
                    break;
                }
            }
        }
        if (!found)
            return;
    }
}

void
ClusterNode::dispatch(serve::App app)
{
    std::deque<Request> &queue = queues_[app];
    int64_t limit = effectiveMaxBatch(app);
    double now = eq_.now();

    // Deadline enforcement at dequeue, before the forward pass:
    // queries whose budget already expired are shed, not computed.
    std::vector<Request> batch;
    while (!queue.empty() &&
           static_cast<int64_t>(batch.size()) < limit) {
        Request request = queue.front();
        queue.pop_front();
        --totalQueued_;
        if (request.deadline < now)
            onDeadlineShed_(request);
        else
            batch.push_back(request);
    }

    if (batch.empty())
        return;

    int64_t queries = static_cast<int64_t>(batch.size());
    double service_time =
        service_(app, queries) / spec_.speedFactor;
    if (service_time < 0.0)
        fatal("ClusterNode: negative service time");

    --freeGpus_;
    inService_ += queries;
    busySeconds_ += service_time;
    ++batches_;
    dispatched_ += static_cast<uint64_t>(queries);
    if (sched_)
        sched_->chargeDispatch(serve::appName(app), service_time);

    eq_.scheduleAfter(
        service_time,
        [this, b = std::move(batch), service_time, now]() mutable {
            onBatchDone(std::move(b), service_time, now);
        });
}

void
ClusterNode::onBatchDone(std::vector<Request> batch,
                         double serviceTime, double dispatchTime)
{
    int64_t queries = static_cast<int64_t>(batch.size());
    Served served;
    served.batchQueries = queries;
    served.serviceSeconds = serviceTime;
    served.dispatchTime = dispatchTime;
    for (size_t i = 0; i < batch.size(); ++i) {
        served.batchPosition = static_cast<int64_t>(i);
        onComplete_(batch[i], served);
    }
    inService_ -= queries;
    ++freeGpus_;

    double per_query = serviceTime / static_cast<double>(queries);
    ewmaQuerySeconds_ =
        ewmaQuerySeconds_ == 0.0
            ? per_query
            : 0.8 * ewmaQuerySeconds_ + 0.2 * per_query;
    if (sched_) {
        sched_->observeBatch(serve::appName(batch[0].app), queries,
                             serviceTime);
        maybeSchedTick();
    }
    pump();
}

} // namespace cluster
} // namespace djinn
