/**
 * @file
 * SLO-driven adaptive batching and multi-tenant fair sharing.
 *
 * DjiNN dispatches with a static tuned batch (Table 3); the
 * throughput-vs-latency tradeoff that policy bakes in (paper
 * Section 5.1 / Fig 9) is decided once, offline. The
 * AdaptiveScheduler decides it continuously instead: each model's
 * dispatch target grows toward its tuned maximum while the
 * predicted latency — queue drain + batch assembly + calibrated
 * batch service time — stays inside a headroom fraction of the
 * model's SLO, and shrinks when the SLO burn rate says the budget
 * is being consumed too fast. Co-located tenants share the compute
 * pool under deficit-weighted fair sharing accounted at
 * batch-dispatch granularity, so one hot model cannot starve its
 * neighbours.
 *
 * The class is clock-free: every time-dependent entry point takes
 * an explicit `now` in seconds, so the same policy drives the live
 * server (trace-clock seconds) and the deterministic cluster
 * simulator (virtual event time) unchanged.
 */

#ifndef DJINN_SERVE_SCHEDULER_HH
#define DJINN_SERVE_SCHEDULER_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/metrics.hh"

namespace djinn {
namespace serve {

/** Policy knobs for the adaptive scheduler. */
struct SchedulerOptions {
    /** Ceiling for models without an explicit setMaxBatch() (the
     * live server passes its --batch-size here). */
    int64_t maxBatch = 16;

    /** SLO applied to models without an explicit setSlo(),
     * seconds. */
    double defaultSloSeconds = 0.050;

    /** Cap on a tenant's accumulated dispatch credit, seconds of
     * compute; bounds how bursty a long-idle-then-hot tenant can
     * be at its neighbours' expense. */
    double maxDeficitSeconds = 0.050;

    /** Compute-pool seconds accrued per elapsed second (the number
     * of parallel executors the tenants share). */
    double poolSeconds = 1.0;
};

/** One model's policy state, as rendered by the `sched` verb and
 * asserted by tests. */
struct ModelSchedState {
    std::string model;
    std::string tenant;
    int64_t target = 0;
    int64_t maxBatch = 0;
    int64_t backlog = 0;
    double arrivalQps = 0.0;
    double serviceSecondsPerQuery = 0.0;
    double sloSeconds = 0.0;
    double burnRate = 0.0;
};

/** One tenant's fair-share accounting. */
struct TenantSchedState {
    std::string tenant;
    double weight = 1.0;
    double deficitSeconds = 0.0;
    double chargedSeconds = 0.0;

    /** This tenant's fraction of all compute seconds charged so
     * far; 0 until anything dispatches. */
    double share = 0.0;
};

/**
 * The adaptive batching + weighted fair sharing policy engine.
 * Thread-safe; every method takes one short mutex hold. Models and
 * tenants are created lazily on first mention with default policy
 * (tenant "default", weight 1).
 */
class AdaptiveScheduler
{
  public:
    explicit AdaptiveScheduler(
        const SchedulerOptions &options = {},
        telemetry::MetricRegistry *metrics = nullptr);

    AdaptiveScheduler(const AdaptiveScheduler &) = delete;
    AdaptiveScheduler &operator=(const AdaptiveScheduler &) = delete;

    /** Register @p tenant with relative @p weight (> 0). */
    void addTenant(const std::string &tenant, double weight);

    /** Bind @p model's dispatches to @p tenant's quota. */
    void assignModel(const std::string &model,
                     const std::string &tenant);

    /** Override @p model's latency SLO, seconds. */
    void setSlo(const std::string &model, double seconds);

    /** Override @p model's dispatch-target ceiling (its tuned
     * batch). */
    void setMaxBatch(const std::string &model, int64_t maxBatch);

    /** Count @p queries arriving for @p model; folded into the
     * arrival-rate EWMA at the next tick(). */
    void observeArrival(const std::string &model, int64_t queries);

    /** Fold one completed batch into the per-query service-time
     * EWMA. */
    void observeBatch(const std::string &model, int64_t queries,
                      double serviceSeconds);

    /** Report @p model's current SLO burn rate (SloTracker). */
    void observeBurnRate(const std::string &model, double burnRate);

    /** Report @p model's queued-query depth (admission backlog). */
    void setBacklog(const std::string &model, int64_t depth);

    /**
     * Advance the control loop to @p nowSeconds: fold arrival
     * counts into rate EWMAs, recompute every model's dispatch
     * target, refill tenant deficits in proportion to weight
     * (active tenants only — fair sharing is work-conserving), and
     * export the djinn_sched_* gauges.
     */
    void tick(double nowSeconds);

    /** Current dispatch target for @p model (its ceiling when the
     * model is unknown or uncalibrated). */
    int64_t batchTarget(const std::string &model) const;

    /** May @p model dispatch a batch now? True unless its tenant
     * has exhausted its dispatch credit. */
    bool allowDispatch(const std::string &model) const;

    /** Charge @p serviceSeconds of compute to @p model's tenant;
     * call once per dispatched batch. */
    void chargeDispatch(const std::string &model,
                        double serviceSeconds);

    /** Smoothed arrival rate for @p model, queries/second. */
    double arrivalRate(const std::string &model) const;

    /** @p tenant's dispatch credit, seconds (negative while paying
     * off an overshoot). */
    double tenantDeficit(const std::string &tenant) const;

    /** Per-model policy state, sorted by model name. */
    std::vector<ModelSchedState> modelStates() const;

    /** Per-tenant accounting, sorted by tenant name. */
    std::vector<TenantSchedState> tenantStates() const;

    /** The full policy state as one JSON object (the `sched` wire
     * verb's payload). Deterministic field order. */
    std::string renderJson() const;

  private:
    struct Tenant {
        double weight = 1.0;
        double deficitSeconds = 0.0;
        double chargedSeconds = 0.0;
        telemetry::Gauge *weightGauge = nullptr;
        telemetry::Gauge *deficitGauge = nullptr;
        telemetry::Gauge *shareGauge = nullptr;
    };

    struct Model {
        std::string tenant;
        int64_t maxBatch = 0;
        int64_t target = 0;
        int64_t backlog = 0;
        int64_t arrivalsSinceTick = 0;
        double sloSeconds = 0.0;
        double arrivalEwma = 0.0;
        bool haveArrivalRate = false;
        double serviceEwma = 0.0; ///< seconds per query; 0 until
                                  ///< the first batch calibrates it
        double burnRate = 0.0;
        telemetry::Gauge *targetGauge = nullptr;
        telemetry::Gauge *arrivalGauge = nullptr;
        telemetry::Gauge *serviceGauge = nullptr;
    };

    Model &modelFor(const std::string &model);
    Tenant &tenantFor(const std::string &tenant);
    int64_t computeTarget(const Model &m) const;
    void exportGauges();

    SchedulerOptions options_;
    telemetry::MetricRegistry *metrics_;

    mutable std::mutex mutex_;
    std::map<std::string, Model> models_;
    std::map<std::string, Tenant> tenants_;
    double lastTick_ = -1.0;
};

} // namespace serve
} // namespace djinn

#endif // DJINN_SERVE_SCHEDULER_HH
