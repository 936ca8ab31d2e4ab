#include "telemetry/tracer.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <tuple>

#include "common/logging.hh"
#include "telemetry/exposition.hh"
#include "telemetry/timeseries.hh"

namespace djinn {
namespace telemetry {

int64_t
traceNowUs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - epoch)
        .count();
}

Tracer::Tracer(size_t capacity) : capacity_(capacity ? capacity : 1) {}

void
Tracer::record(TraceEvent event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (ring_.size() < capacity_) {
        ring_.push_back(std::move(event));
        return;
    }
    ring_[head_] = std::move(event);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
}

std::vector<TraceEvent>
Tracer::events(size_t last_n) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    // head_ is the oldest entry once the ring has wrapped.
    for (size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[(head_ + i) % ring_.size()]);
    if (last_n && out.size() > last_n)
        out.erase(out.begin(),
                  out.begin() +
                      static_cast<ptrdiff_t>(out.size() - last_n));
    return out;
}

uint64_t
Tracer::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ring_.size();
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.clear();
    head_ = 0;
    dropped_ = 0;
}

namespace {

/** Stable small integer tids so tracks render as named threads. */
std::map<std::string, int>
assignTrackIds(const std::vector<TraceEvent> &events)
{
    std::map<std::string, int> tids;
    for (const TraceEvent &e : events) {
        if (!tids.count(e.track))
            tids.emplace(e.track,
                         static_cast<int>(tids.size()) + 1);
    }
    return tids;
}

void
appendArgs(std::string &out, const TraceEvent &e)
{
    out += "\"args\": {";
    bool first = true;
    auto add = [&](const std::string &k, const std::string &v) {
        if (!first)
            out += ", ";
        first = false;
        out += "\"" + jsonEscape(k) + "\": \"" + jsonEscape(v) + "\"";
    };
    if (e.traceId) {
        add("trace_id", traceIdToHex(e.traceId));
        add("span_id", traceIdToHex(e.spanId));
        if (e.parentSpanId)
            add("parent_span_id", traceIdToHex(e.parentSpanId));
    }
    for (const auto &[k, v] : e.args)
        add(k, v);
    out += "}";
}

/** @p store's gauge series over the slots from the first of
 * @p spans (sorted by start) on; every retained slot when there
 * are no spans. */
std::vector<TimeSeriesStore::Series>
gaugeSeries(const TimeSeriesStore &store,
            const std::vector<TraceEvent> &spans)
{
    TimeSeriesStore::Window window; // every family
    window.seconds = std::numeric_limits<double>::infinity();
    if (!spans.empty() && store.newestTime(&window.now))
        window.seconds = window.now - spans.front().startUs * 1e-6;
    std::vector<TimeSeriesStore::Series> gauges = store.series(window);
    std::erase_if(gauges, [](const TimeSeriesStore::Series &series) {
        return series.kind != MetricKind::Gauge;
    });
    return gauges;
}

} // namespace

std::string
renderChromeTrace(const std::vector<TraceEvent> &events,
                  const TimeSeriesStore *store)
{
    // Order by (start, input position): equal starts keep their
    // input order without stable_sort's temporary buffer, which
    // ASan builds against libstdc++ 12 flag as alloc-dealloc-
    // mismatched.
    std::vector<size_t> order(events.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return std::tie(events[a].startUs, a)
            < std::tie(events[b].startUs, b);
    });
    std::vector<TraceEvent> sorted;
    sorted.reserve(events.size());
    for (size_t i : order)
        sorted.push_back(events[i]);
    std::vector<TimeSeriesStore::Series> gauges;
    if (store)
        gauges = gaugeSeries(*store, sorted);
    std::map<std::string, int> tids = assignTrackIds(sorted);
    int sampler_tid = 0;
    if (!gauges.empty()) {
        sampler_tid = tids.emplace("sampler",
                                   static_cast<int>(tids.size()) + 1)
                          .first->second;
    }

    std::string out = "{\n  \"displayTimeUnit\": \"ms\",\n"
                      "  \"traceEvents\": [\n";
    bool first = true;
    auto begin_event = [&]() -> std::string & {
        if (!first)
            out += ",\n";
        first = false;
        out += "    ";
        return out;
    };

    begin_event() += "{\"name\": \"process_name\", \"ph\": \"M\", "
                     "\"pid\": 1, \"tid\": 0, "
                     "\"args\": {\"name\": \"djinn\"}}";
    for (const auto &[track, tid] : tids) {
        begin_event() += strprintf(
            "{\"name\": \"thread_name\", \"ph\": \"M\", "
            "\"pid\": 1, \"tid\": %d, "
            "\"args\": {\"name\": \"%s\"}}",
            tid, jsonEscape(track).c_str());
    }

    for (const TraceEvent &e : sorted) {
        begin_event() += strprintf(
            "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"ts\": %lld, \"dur\": %lld, \"pid\": 1, \"tid\": %d, ",
            jsonEscape(e.name).c_str(), jsonEscape(e.category).c_str(),
            static_cast<long long>(e.startUs),
            static_cast<long long>(e.durationUs), tids[e.track]);
        appendArgs(out, e);
        out += "}";
    }
    for (const TimeSeriesStore::Series &gauge : gauges) {
        const std::string name =
            jsonEscape(renderMetricId(gauge.name, gauge.labels));
        // A counter track holds its value until the next event, so
        // only the window's first slot and each change are drawn.
        for (size_t i = 0; i < gauge.points.size(); ++i) {
            const TimeSeriesStore::Point &point = gauge.points[i];
            if (i > 0 && point.value == gauge.points[i - 1].value)
                continue;
            begin_event() += strprintf(
                "{\"name\": \"%s\", \"cat\": \"sampler\", "
                "\"ph\": \"C\", \"ts\": %lld, \"pid\": 1, "
                "\"tid\": %d, \"args\": {\"value\": %.17g}}",
                name.c_str(), std::llround(point.t * 1e6), sampler_tid,
                point.value);
        }
    }
    out += "\n  ]\n}\n";
    return out;
}

} // namespace telemetry
} // namespace djinn
