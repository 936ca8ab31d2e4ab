#include "serve/scheduler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace djinn {
namespace serve {

namespace {

/** Smallest dispatch target a model can shrink to. */
constexpr int64_t kMinBatch = 1;

/** Fraction of the SLO the predicted latency may use; the rest
 * absorbs prediction error and network/protocol overhead. */
constexpr double kHeadroom = 0.8;

/** Tightened headroom applied while a model's burn rate is at or
 * above kShrinkBurnThreshold: the batch shrinks until the predicted
 * latency fits the reduced budget. */
constexpr double kShrinkHeadroom = 0.4;

/** Burn rate at or above which the tightened headroom kicks in
 * (1.0 = consuming the error budget exactly as fast as the
 * objective allows). */
constexpr double kShrinkBurnThreshold = 1.0;

/** EWMA weight for new arrival-rate observations. */
constexpr double kArrivalAlpha = 0.3;

/** EWMA weight for new per-query service-time observations. */
constexpr double kServiceAlpha = 0.2;

} // namespace

AdaptiveScheduler::AdaptiveScheduler(
    const SchedulerOptions &options,
    telemetry::MetricRegistry *metrics)
    : options_(options), metrics_(metrics)
{
    if (options_.maxBatch < kMinBatch)
        fatal("AdaptiveScheduler: maxBatch must be positive");
    if (options_.defaultSloSeconds <= 0.0)
        fatal("AdaptiveScheduler: SLO must be positive");
    if (options_.maxDeficitSeconds <= 0.0)
        fatal("AdaptiveScheduler: maxDeficitSeconds must be "
              "positive");
    if (options_.poolSeconds <= 0.0)
        fatal("AdaptiveScheduler: poolSeconds must be positive");
}

AdaptiveScheduler::Model &
AdaptiveScheduler::modelFor(const std::string &model)
{
    auto it = models_.find(model);
    if (it != models_.end())
        return it->second;

    Model m;
    m.tenant = "default";
    m.maxBatch = options_.maxBatch;
    m.target = options_.maxBatch;
    m.sloSeconds = options_.defaultSloSeconds;
    if (metrics_) {
        const telemetry::LabelMap labels{{"model", model}};
        m.targetGauge =
            &metrics_->gauge("djinn_sched_batch_target", labels);
        m.arrivalGauge =
            &metrics_->gauge("djinn_sched_arrival_qps", labels);
        m.serviceGauge =
            &metrics_->gauge("djinn_sched_service_seconds", labels);
        m.targetGauge->set(static_cast<double>(m.target));
    }
    tenantFor(m.tenant);
    return models_.emplace(model, std::move(m)).first->second;
}

AdaptiveScheduler::Tenant &
AdaptiveScheduler::tenantFor(const std::string &tenant)
{
    auto it = tenants_.find(tenant);
    if (it != tenants_.end())
        return it->second;

    Tenant t;
    if (metrics_) {
        const telemetry::LabelMap labels{{"tenant", tenant}};
        t.weightGauge =
            &metrics_->gauge("djinn_sched_tenant_weight", labels);
        t.deficitGauge =
            &metrics_->gauge("djinn_sched_tenant_deficit", labels);
        t.shareGauge =
            &metrics_->gauge("djinn_sched_tenant_share", labels);
        t.weightGauge->set(t.weight);
    }
    return tenants_.emplace(tenant, std::move(t)).first->second;
}

void
AdaptiveScheduler::addTenant(const std::string &tenant,
                             double weight)
{
    if (weight <= 0.0)
        fatal("AdaptiveScheduler: tenant weight must be positive");
    std::lock_guard<std::mutex> lock(mutex_);
    Tenant &t = tenantFor(tenant);
    t.weight = weight;
    if (t.weightGauge)
        t.weightGauge->set(weight);
}

void
AdaptiveScheduler::assignModel(const std::string &model,
                               const std::string &tenant)
{
    std::lock_guard<std::mutex> lock(mutex_);
    tenantFor(tenant);
    modelFor(model).tenant = tenant;
}

void
AdaptiveScheduler::setSlo(const std::string &model, double seconds)
{
    if (seconds <= 0.0)
        fatal("AdaptiveScheduler: SLO must be positive");
    std::lock_guard<std::mutex> lock(mutex_);
    modelFor(model).sloSeconds = seconds;
}

void
AdaptiveScheduler::setMaxBatch(const std::string &model,
                               int64_t maxBatch)
{
    if (maxBatch < kMinBatch)
        fatal("AdaptiveScheduler: model maxBatch must be positive");
    std::lock_guard<std::mutex> lock(mutex_);
    Model &m = modelFor(model);
    m.maxBatch = maxBatch;
    m.target = std::min(m.target, maxBatch);
    if (m.target <= 0)
        m.target = maxBatch;
}

void
AdaptiveScheduler::observeArrival(const std::string &model,
                                  int64_t queries)
{
    std::lock_guard<std::mutex> lock(mutex_);
    modelFor(model).arrivalsSinceTick += queries;
}

void
AdaptiveScheduler::observeBatch(const std::string &model,
                                int64_t queries,
                                double serviceSeconds)
{
    if (queries <= 0 || serviceSeconds < 0.0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    Model &m = modelFor(model);
    double per = serviceSeconds / static_cast<double>(queries);
    m.serviceEwma = m.serviceEwma == 0.0
        ? per
        : kServiceAlpha * per + (1.0 - kServiceAlpha) * m.serviceEwma;
}

void
AdaptiveScheduler::observeBurnRate(const std::string &model,
                                   double burnRate)
{
    std::lock_guard<std::mutex> lock(mutex_);
    modelFor(model).burnRate = burnRate;
}

void
AdaptiveScheduler::setBacklog(const std::string &model,
                              int64_t depth)
{
    std::lock_guard<std::mutex> lock(mutex_);
    modelFor(model).backlog = std::max<int64_t>(depth, 0);
}

int64_t
AdaptiveScheduler::computeTarget(const Model &m) const
{
    // Uncalibrated models run the paper's static policy: the tuned
    // maximum. There is no latency model to size against yet.
    if (m.serviceEwma <= 0.0)
        return m.maxBatch;

    const double headroom = m.burnRate >= kShrinkBurnThreshold
        ? kShrinkHeadroom
        : kHeadroom;
    const double budget = headroom * m.sloSeconds;
    const double per = m.serviceEwma;

    // Largest b whose predicted latency fits the budget:
    //   backlog drain + batch assembly ((b-1)/lambda) + service.
    // Each term is monotone in b, so a linear scan suffices (the
    // ceiling is a tuned batch, tens at most).
    const double backlog_wait =
        static_cast<double>(m.backlog) * per;
    int64_t best = 0;
    for (int64_t b = kMinBatch; b <= m.maxBatch; ++b) {
        double assembly = 0.0;
        if (b > 1) {
            if (m.arrivalEwma <= 0.0)
                break; // no traffic: nothing will fill a bigger b
            assembly =
                static_cast<double>(b - 1) / m.arrivalEwma;
        }
        double predicted =
            backlog_wait + assembly + per * static_cast<double>(b);
        if (predicted > budget)
            break;
        best = b;
    }

    // Even a lone query misses the budget: the model is overloaded
    // (or the SLO is unattainable), and shrinking further only
    // costs throughput — fall back to the throughput-optimal tuned
    // maximum.
    if (best == 0)
        return m.maxBatch;
    return best;
}

void
AdaptiveScheduler::tick(double nowSeconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const double dt =
        lastTick_ >= 0.0 && nowSeconds > lastTick_
            ? nowSeconds - lastTick_
            : 0.0;

    // Which tenants are contending for the pool this interval?
    // Only they accrue credit: fair sharing stays work-conserving
    // (a lone active tenant gets the whole pool), and an idle
    // tenant cannot bank credit to burst with later.
    std::map<std::string, bool> active;
    for (const auto &[name, m] : models_) {
        if (m.backlog > 0 || m.arrivalsSinceTick > 0)
            active[m.tenant] = true;
    }

    for (auto &[name, m] : models_) {
        if (dt > 0.0) {
            double inst =
                static_cast<double>(m.arrivalsSinceTick) / dt;
            m.arrivalEwma = m.haveArrivalRate
                ? kArrivalAlpha * inst +
                      (1.0 - kArrivalAlpha) * m.arrivalEwma
                : inst;
            m.haveArrivalRate = true;
            m.arrivalsSinceTick = 0;
        }
        m.target = computeTarget(m);
    }

    if (dt > 0.0 && !active.empty()) {
        double weight_sum = 0.0;
        for (const auto &[name, is_active] : active)
            weight_sum += tenantFor(name).weight;
        for (auto &[name, t] : tenants_) {
            if (active.count(name)) {
                t.deficitSeconds += dt * options_.poolSeconds *
                                    t.weight / weight_sum;
                t.deficitSeconds =
                    std::min(t.deficitSeconds,
                             options_.maxDeficitSeconds);
            } else {
                // Standard DRR: an emptied queue forfeits its
                // residual credit.
                t.deficitSeconds = std::min(t.deficitSeconds, 0.0);
            }
        }
    }

    lastTick_ = nowSeconds;
    exportGauges();
}

void
AdaptiveScheduler::exportGauges()
{
    if (!metrics_)
        return;
    for (auto &[name, m] : models_) {
        m.targetGauge->set(static_cast<double>(m.target));
        m.arrivalGauge->set(m.arrivalEwma);
        m.serviceGauge->set(m.serviceEwma);
    }
    double charged_total = 0.0;
    for (const auto &[name, t] : tenants_)
        charged_total += t.chargedSeconds;
    for (auto &[name, t] : tenants_) {
        t.weightGauge->set(t.weight);
        t.deficitGauge->set(t.deficitSeconds);
        t.shareGauge->set(charged_total > 0.0
                              ? t.chargedSeconds / charged_total
                              : 0.0);
    }
}

int64_t
AdaptiveScheduler::batchTarget(const std::string &model) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = models_.find(model);
    return it != models_.end() ? it->second.target
                               : options_.maxBatch;
}

bool
AdaptiveScheduler::allowDispatch(const std::string &model) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = models_.find(model);
    if (it == models_.end())
        return true;
    auto t = tenants_.find(it->second.tenant);
    return t == tenants_.end() || t->second.deficitSeconds >= 0.0;
}

void
AdaptiveScheduler::chargeDispatch(const std::string &model,
                                  double serviceSeconds)
{
    if (serviceSeconds < 0.0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    Tenant &t = tenantFor(modelFor(model).tenant);
    t.deficitSeconds -= serviceSeconds;
    t.chargedSeconds += serviceSeconds;
}

double
AdaptiveScheduler::arrivalRate(const std::string &model) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = models_.find(model);
    return it != models_.end() ? it->second.arrivalEwma : 0.0;
}

double
AdaptiveScheduler::tenantDeficit(const std::string &tenant) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tenants_.find(tenant);
    return it != tenants_.end() ? it->second.deficitSeconds : 0.0;
}

std::vector<ModelSchedState>
AdaptiveScheduler::modelStates() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ModelSchedState> out;
    out.reserve(models_.size());
    for (const auto &[name, m] : models_) {
        ModelSchedState s;
        s.model = name;
        s.tenant = m.tenant;
        s.target = m.target;
        s.maxBatch = m.maxBatch;
        s.backlog = m.backlog;
        s.arrivalQps = m.arrivalEwma;
        s.serviceSecondsPerQuery = m.serviceEwma;
        s.sloSeconds = m.sloSeconds;
        s.burnRate = m.burnRate;
        out.push_back(std::move(s));
    }
    return out;
}

std::vector<TenantSchedState>
AdaptiveScheduler::tenantStates() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double charged_total = 0.0;
    for (const auto &[name, t] : tenants_)
        charged_total += t.chargedSeconds;
    std::vector<TenantSchedState> out;
    out.reserve(tenants_.size());
    for (const auto &[name, t] : tenants_) {
        TenantSchedState s;
        s.tenant = name;
        s.weight = t.weight;
        s.deficitSeconds = t.deficitSeconds;
        s.chargedSeconds = t.chargedSeconds;
        s.share = charged_total > 0.0
                      ? t.chargedSeconds / charged_total
                      : 0.0;
        out.push_back(std::move(s));
    }
    return out;
}

std::string
AdaptiveScheduler::renderJson() const
{
    std::string out = "{\"models\": [";
    bool first = true;
    for (const auto &m : modelStates()) {
        if (!first)
            out += ", ";
        first = false;
        out += strprintf(
            "{\"model\": \"%s\", \"tenant\": \"%s\", "
            "\"target\": %lld, \"max_batch\": %lld, "
            "\"backlog\": %lld, \"arrival_qps\": %.6g, "
            "\"service_ms\": %.6g, \"slo_ms\": %.6g, "
            "\"burn_rate\": %.6g}",
            m.model.c_str(), m.tenant.c_str(),
            static_cast<long long>(m.target),
            static_cast<long long>(m.maxBatch),
            static_cast<long long>(m.backlog), m.arrivalQps,
            m.serviceSecondsPerQuery * 1e3, m.sloSeconds * 1e3,
            m.burnRate);
    }
    out += "], \"tenants\": [";
    first = true;
    for (const auto &t : tenantStates()) {
        if (!first)
            out += ", ";
        first = false;
        out += strprintf(
            "{\"tenant\": \"%s\", \"weight\": %.6g, "
            "\"deficit_ms\": %.6g, \"charged_seconds\": %.6g, "
            "\"share\": %.6g}",
            t.tenant.c_str(), t.weight, t.deficitSeconds * 1e3,
            t.chargedSeconds, t.share);
    }
    out += "]}\n";
    return out;
}

} // namespace serve
} // namespace djinn
