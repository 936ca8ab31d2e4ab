#include "telemetry/timeseries.hh"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>

#include "telemetry/exposition.hh"

namespace djinn {
namespace telemetry {

namespace {

/** True when every pair of @p want appears in @p have. */
bool
labelsMatch(const LabelMap &have, const LabelMap &want)
{
    for (const auto &[k, v] : want) {
        auto it = have.find(k);
        if (it == have.end() || it->second != v)
            return false;
    }
    return true;
}

} // namespace

TimeSeriesStore::TimeSeriesStore(const MetricRegistry &registry)
    : registry_(registry)
{
    times_.resize(kCapacity, 0.0);
    sync();
    built_ = true;
}

void
TimeSeriesStore::sync()
{
    std::lock_guard<std::mutex> lock(mutex_);
    syncLocked();
}

void
TimeSeriesStore::syncLocked()
{
    // Count what forEach visits, under the registry's lock: a metric
    // registered after it returns must still read as unsynced.
    size_t visited = 0;
    registry_.forEach([this, &visited](const MetricRef &ref) {
        ++visited;
        const void *key = ref.counter
            ? static_cast<const void *>(ref.counter)
            : ref.gauge ? static_cast<const void *>(ref.gauge)
                        : static_cast<const void *>(ref.histogram);
        if (known_.count(key))
            return;
        if (tracks_.size() >= kMaxTracks) {
            // Only count a given skipped metric once.
            if (known_.emplace(key, SIZE_MAX).second)
                ++skipped_;
            return;
        }
        Track track;
        track.name = *ref.name;
        track.labels = *ref.labels;
        track.kind = ref.kind;
        track.counter = ref.counter;
        track.gauge = ref.gauge;
        track.histogram = ref.histogram;
        track.firstSlot = sampled_;
        track.zeroBefore = built_;
        track.values.resize(kCapacity, 0.0);
        if (ref.kind == MetricKind::Histogram) {
            track.bucketCount = ref.histogram->bucketCountTotal();
            track.counts.resize(kCapacity, 0);
            track.sums.resize(kCapacity, 0.0);
            track.buckets.resize(
                kCapacity * static_cast<size_t>(track.bucketCount), 0);
        }
        known_.emplace(key, tracks_.size());
        tracks_.push_back(std::move(track));
    });
    syncedMetrics_ = visited;
}

void
TimeSeriesStore::sample(double nowSeconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (registry_.size() != syncedMetrics_)
        syncLocked();

    const size_t slot = head_;
    times_[slot] = nowSeconds;
    for (Track &track : tracks_) {
        switch (track.kind) {
          case MetricKind::Counter:
            track.values[slot] =
                static_cast<double>(track.counter->value());
            break;
          case MetricKind::Gauge:
            track.values[slot] = track.gauge->value();
            break;
          case MetricKind::Histogram: {
            const LogHistogram *hist = track.histogram;
            track.counts[slot] = hist->count();
            track.sums[slot] = hist->sum();
            uint64_t *row = track.buckets.data()
                + slot * static_cast<size_t>(track.bucketCount);
            for (int i = 0; i < track.bucketCount; ++i)
                row[i] = hist->bucketValue(i);
            break;
          }
        }
    }
    head_ = (head_ + 1) % kCapacity;
    if (filled_ < kCapacity)
        ++filled_;
    ++sampled_;
}

size_t
TimeSeriesStore::trackCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tracks_.size();
}

size_t
TimeSeriesStore::skippedTracks() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return skipped_;
}

size_t
TimeSeriesStore::sampleCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return filled_;
}

bool
TimeSeriesStore::newestTime(double *out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (filled_ == 0)
        return false;
    *out = times_[slotIndex(filled_ - 1)];
    return true;
}

size_t
TimeSeriesStore::slotIndex(size_t i) const
{
    return (head_ + kCapacity - filled_ + i) % kCapacity;
}

bool
TimeSeriesStore::windowRange(const Window &window, size_t *first,
                             size_t *last) const
{
    if (filled_ == 0)
        return false;
    double end = window.now;
    if (end < 0)
        end = times_[slotIndex(filled_ - 1)];
    const double begin = end - window.seconds;

    bool any = false;
    size_t lo = 0;
    size_t hi = 0;
    for (size_t i = 0; i < filled_; ++i) {
        const double t = times_[slotIndex(i)];
        if (t < begin || t > end)
            continue;
        if (!any)
            lo = i;
        hi = i;
        any = true;
    }
    if (!any)
        return false;
    *first = lo;
    *last = hi;
    return true;
}

bool
TimeSeriesStore::pointValue(const Track &track, size_t i,
                            double *out) const
{
    if (track.kind == MetricKind::Gauge) {
        *out = track.values[slotIndex(i)];
        return true;
    }
    // Cumulative kinds yield a per-step rate; the very first
    // retained slot has no predecessor to delta against.
    if (i == 0)
        return false;
    const size_t cur = slotIndex(i);
    const size_t prev = slotIndex(i - 1);
    const double dt = times_[cur] - times_[prev];
    if (dt <= 0)
        return false;
    double delta;
    if (track.kind == MetricKind::Counter) {
        delta = track.values[cur] - track.values[prev];
    } else {
        delta = static_cast<double>(track.counts[cur])
            - static_cast<double>(track.counts[prev]);
    }
    if (delta < 0)
        delta = 0;
    *out = delta / dt;
    return true;
}

std::vector<TrackId>
TimeSeriesStore::trackIds(const std::string &name,
                          const LabelMap &labels) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TrackId> out;
    for (const Track &track : tracks_) {
        if (!name.empty() && track.name != name)
            continue;
        if (!labelsMatch(track.labels, labels))
            continue;
        out.push_back({track.name, track.labels, track.kind});
    }
    return out;
}

TimeSeriesStore::Stat
TimeSeriesStore::windowStat(const Window &window, Op op,
                            double quantile) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t first = 0;
    size_t last = 0;
    if (!windowRange(window, &first, &last))
        return {};

    Stat stat;

    if (op == Op::Rate || op == Op::Increase) {
        const size_t a = slotIndex(first);
        const size_t b = slotIndex(last);
        const double dt = times_[b] - times_[a];
        if (op == Op::Rate && dt <= 0)
            return {};
        const uint64_t first_slot = sampled_ - filled_ + first;
        double total = 0.0;
        bool any = false;
        for (const Track &track : tracks_) {
            if (track.name != window.name
                || !labelsMatch(track.labels, window.labels)
                || track.kind == MetricKind::Gauge) {
                continue;
            }
            const bool counter = track.kind == MetricKind::Counter;
            double from = counter
                ? track.values[a]
                : static_cast<double>(track.counts[a]);
            const double to = counter
                ? track.values[b]
                : static_cast<double>(track.counts[b]);
            // Retained slots before firstSlot already hold 0; only
            // firstSlot itself needs its predecessor's 0 supplied.
            if (op == Op::Increase && track.zeroBefore
                && track.firstSlot == first_slot)
                from = 0.0;
            total += std::max(to - from, 0.0)
                / (op == Op::Rate ? dt : 1.0);
            any = true;
        }
        if (!any)
            return {};
        stat.valid = true;
        stat.value = total;
        return stat;
    }

    if (op == Op::Avg || op == Op::Min || op == Op::Max) {
        double sum = 0.0;
        double lo = 0.0;
        double hi = 0.0;
        size_t n = 0;
        for (const Track &track : tracks_) {
            if (track.name != window.name
                || !labelsMatch(track.labels, window.labels)) {
                continue;
            }
            for (size_t i = first; i <= last; ++i) {
                double v;
                if (!pointValue(track, i, &v))
                    continue;
                if (n == 0) {
                    lo = hi = v;
                } else {
                    lo = std::min(lo, v);
                    hi = std::max(hi, v);
                }
                sum += v;
                ++n;
            }
        }
        if (n == 0)
            return {};
        stat.valid = true;
        stat.value = op == Op::Avg ? sum / static_cast<double>(n)
            : op == Op::Min        ? lo
                                   : hi;
        return stat;
    }

    if (op == Op::Slope) {
        // Least-squares fit over per-slot sums across matching
        // gauge tracks.
        std::vector<double> xs;
        std::vector<double> ys;
        for (size_t i = first; i <= last; ++i) {
            double total = 0.0;
            bool any = false;
            for (const Track &track : tracks_) {
                if (track.name != window.name
                    || !labelsMatch(track.labels, window.labels)
                    || track.kind != MetricKind::Gauge) {
                    continue;
                }
                total += track.values[slotIndex(i)];
                any = true;
            }
            if (any) {
                xs.push_back(times_[slotIndex(i)]);
                ys.push_back(total);
            }
        }
        if (xs.size() < 2)
            return {};
        double mx = 0.0;
        double my = 0.0;
        for (size_t i = 0; i < xs.size(); ++i) {
            mx += xs[i];
            my += ys[i];
        }
        mx /= static_cast<double>(xs.size());
        my /= static_cast<double>(xs.size());
        double num = 0.0;
        double den = 0.0;
        for (size_t i = 0; i < xs.size(); ++i) {
            num += (xs[i] - mx) * (ys[i] - my);
            den += (xs[i] - mx) * (xs[i] - mx);
        }
        if (den <= 0)
            return {};
        stat.valid = true;
        stat.value = num / den;
        return stat;
    }

    // Op::Quantile: merge windowed bucket deltas across matching
    // histogram tracks into one synthetic snapshot.
    HistogramSnapshot merged;
    bool haveLayout = false;
    double liveMax = 0.0;
    for (const Track &track : tracks_) {
        if (track.name != window.name
            || !labelsMatch(track.labels, window.labels)
            || track.kind != MetricKind::Histogram) {
            continue;
        }
        if (!haveLayout) {
            merged.options = track.histogram->options();
            merged.buckets.assign(
                static_cast<size_t>(track.bucketCount), 0);
            haveLayout = true;
        }
        if (track.bucketCount
            != static_cast<int>(merged.buckets.size())) {
            continue; // Mixed layouts under one family; skip.
        }
        const size_t a =
            slotIndex(first) * static_cast<size_t>(track.bucketCount);
        const size_t b =
            slotIndex(last) * static_cast<size_t>(track.bucketCount);
        for (int i = 0; i < track.bucketCount; ++i) {
            const uint64_t lo = track.buckets[a + i];
            const uint64_t hi = track.buckets[b + i];
            if (hi > lo)
                merged.buckets[static_cast<size_t>(i)] += hi - lo;
        }
        const size_t sa = slotIndex(first);
        const size_t sb = slotIndex(last);
        if (track.counts[sb] > track.counts[sa]) {
            merged.count += track.counts[sb] - track.counts[sa];
            merged.sum += track.sums[sb] - track.sums[sa];
        }
        liveMax = std::max(liveMax, track.histogram->max());
    }
    if (!haveLayout || merged.count == 0 || last == first)
        return {};

    // quantile() clamps to [min, max]; derive plausible bounds from
    // the occupied buckets since exact extremes are not retained.
    int firstNonzero = -1;
    int lastNonzero = -1;
    for (int i = 0; i < static_cast<int>(merged.buckets.size());
         ++i) {
        if (merged.buckets[static_cast<size_t>(i)] == 0)
            continue;
        if (firstNonzero < 0)
            firstNonzero = i;
        lastNonzero = i;
    }
    if (firstNonzero > 0)
        merged.min = merged.bucketUpperBound(firstNonzero - 1);
    else
        merged.min = 0.0;
    if (lastNonzero + 1 < static_cast<int>(merged.buckets.size()))
        merged.max = merged.bucketUpperBound(lastNonzero);
    else
        merged.max = liveMax; // Overflow bucket: no finite bound.
    stat.valid = true;
    stat.value = merged.quantile(quantile);
    return stat;
}

std::vector<TimeSeriesStore::Series>
TimeSeriesStore::series(const Window &window, double step) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Series> out;
    size_t first = 0;
    size_t last = 0;
    if (!windowRange(window, &first, &last))
        return out;
    for (const Track &track : tracks_) {
        if ((!window.name.empty() && track.name != window.name)
            || !labelsMatch(track.labels, window.labels)) {
            continue;
        }
        Series series;
        series.name = track.name;
        series.labels = track.labels;
        series.kind = track.kind;
        double lastEmitted = -1.0;
        bool emitted = false;
        for (size_t i = first; i <= last; ++i) {
            double v;
            if (!pointValue(track, i, &v))
                continue;
            const double t = times_[slotIndex(i)];
            if (step > 0 && emitted && t - lastEmitted < step)
                continue;
            series.points.push_back({t, v});
            lastEmitted = t;
            emitted = true;
        }
        out.push_back(std::move(series));
    }
    return out;
}

std::string
renderTimeSeriesJson(const TimeSeriesStore &store,
                     const TimeSeriesStore::Window &window,
                     double step)
{
    double now = window.now;
    if (now < 0 && !store.newestTime(&now))
        now = 0.0;

    const auto all = store.series(window, step);

    std::string out = "{\"metric\": \"" + jsonEscape(window.name)
        + "\", \"window\": ";
    char buf[64];
    snprintf(buf, sizeof(buf), "%.6g", window.seconds);
    out += buf;
    out += ", \"now\": ";
    snprintf(buf, sizeof(buf), "%.6f", now);
    out += buf;
    out += ", \"series\": [";
    bool firstSeries = true;
    for (const auto &series : all) {
        if (!firstSeries)
            out += ", ";
        firstSeries = false;
        out += "{\"labels\": {";
        bool firstLabel = true;
        for (const auto &[k, v] : series.labels) {
            if (!firstLabel)
                out += ", ";
            firstLabel = false;
            out += "\"" + jsonEscape(k) + "\": \"" + jsonEscape(v)
                + "\"";
        }
        out += "}, \"kind\": \"";
        switch (series.kind) {
          case MetricKind::Counter:
            out += "counter";
            break;
          case MetricKind::Gauge:
            out += "gauge";
            break;
          case MetricKind::Histogram:
            out += "histogram";
            break;
        }
        out += "\", \"points\": [";
        bool firstPoint = true;
        for (const auto &point : series.points) {
            if (!firstPoint)
                out += ", ";
            firstPoint = false;
            snprintf(buf, sizeof(buf), "[%.6f, %.9g]", point.t,
                     point.value);
            out += buf;
        }
        out += "]}";
    }
    out += "]}";
    return out;
}

BackgroundSampler::BackgroundSampler(double period_seconds, Tick tick)
    : period_(std::chrono::duration_cast<
              std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(
              period_seconds > 0 ? period_seconds : 0.01))),
      tick_(std::move(tick))
{}

void
BackgroundSampler::start()
{
    if (thread_.joinable())
        return;
    thread_ = std::jthread([this](std::stop_token stop) {
        // Only this thread waits on the pair; stop() wakes it
        // through the stop token.
        std::mutex mutex;
        std::condition_variable_any wake;
        std::unique_lock<std::mutex> lock(mutex);
        while (!stop.stop_requested()) {
            tick_();
            wake.wait_for(lock, stop, period_, [] { return false; });
        }
    });
}

void
BackgroundSampler::stop()
{
    if (!thread_.joinable())
        return;
    thread_.request_stop();
    thread_.join();
}

double
processRssBytes()
{
    // /proc/self/statm field 2 is resident pages.
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0.0;
    long long pages_total = 0, pages_resident = 0;
    int got = std::fscanf(f, "%lld %lld", &pages_total,
                          &pages_resident);
    std::fclose(f);
    if (got != 2)
        return 0.0;
    return static_cast<double>(pages_resident) * 4096.0;
}

} // namespace telemetry
} // namespace djinn
