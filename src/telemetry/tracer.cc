#include "telemetry/tracer.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

#include "common/logging.hh"
#include "telemetry/exposition.hh"

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

void
Tracer::recordCounter(const std::string &name, double value,
                      const std::string &track)
{
    TraceEvent event;
    event.name = name;
    event.category = "sampler";
    event.track = track;
    event.startUs = traceNowUs();
    event.counter = true;
    event.value = value;
    record(std::move(event));
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
    auto add = [&](const std::string &k, const std::string &v,
                   bool quote) {
        if (!first)
            out += ", ";
        first = false;
        out += "\"" + jsonEscape(k) + "\": ";
        out += quote ? "\"" + jsonEscape(v) + "\"" : v;
    };
    if (e.counter) {
        add("value", strprintf("%.17g", e.value), false);
    } else if (e.traceId) {
        add("trace_id", traceIdToHex(e.traceId), true);
        add("span_id", traceIdToHex(e.spanId), true);
        if (e.parentSpanId)
            add("parent_span_id", traceIdToHex(e.parentSpanId),
                true);
    }
    for (const auto &[k, v] : e.args)
        add(k, v, true);
    out += "}";
}

} // namespace

std::string
renderChromeTrace(const std::vector<TraceEvent> &events)
{
    std::vector<TraceEvent> sorted = events;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.startUs < b.startUs;
                     });
    std::map<std::string, int> tids = assignTrackIds(sorted);

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
        begin_event();
        int tid = tids[e.track];
        if (e.counter) {
            out += strprintf("{\"name\": \"%s\", \"cat\": \"%s\", "
                             "\"ph\": \"C\", \"ts\": %lld, "
                             "\"pid\": 1, \"tid\": %d, ",
                             jsonEscape(e.name).c_str(),
                             jsonEscape(e.category).c_str(),
                             static_cast<long long>(e.startUs),
                             tid);
        } else {
            out += strprintf("{\"name\": \"%s\", \"cat\": \"%s\", "
                             "\"ph\": \"X\", \"ts\": %lld, "
                             "\"dur\": %lld, \"pid\": 1, "
                             "\"tid\": %d, ",
                             jsonEscape(e.name).c_str(),
                             jsonEscape(e.category).c_str(),
                             static_cast<long long>(e.startUs),
                             static_cast<long long>(e.durationUs),
                             tid);
        }
        appendArgs(out, e);
        out += "}";
    }
    out += "\n  ]\n}\n";
    return out;
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

BackgroundSampler::BackgroundSampler(Tracer &tracer,
                                     const MetricRegistry &metrics,
                                     double period_seconds,
                                     Hook hook, UpdateHook update)
    : tracer_(tracer), metrics_(metrics),
      period_(period_seconds > 0 ? period_seconds : 0.01),
      hook_(std::move(hook)), update_(std::move(update))
{}

BackgroundSampler::~BackgroundSampler()
{
    stop();
}

void
BackgroundSampler::start()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (running_)
        return;
    stopping_ = false;
    running_ = true;
    thread_ = std::thread([this]() { loop(); });
}

void
BackgroundSampler::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!running_)
            return;
        stopping_ = true;
        cv_.notify_all();
    }
    thread_.join();
    std::lock_guard<std::mutex> lock(mutex_);
    running_ = false;
}

void
BackgroundSampler::sampleOnce()
{
    // Refresh gauges whose source is not registry-backed first, so
    // the sweep below exports them on this same tick.
    if (update_)
        update_();
    for (const MetricSample &sample : metrics_.snapshot()) {
        if (sample.kind != MetricKind::Gauge)
            continue;
        tracer_.recordCounter(
            renderMetricId(sample.name, sample.labels),
            sample.value);
    }
    tracer_.recordCounter("process_rss_bytes", processRssBytes());
    if (hook_)
        hook_(tracer_);
}

void
BackgroundSampler::loop()
{
    auto period = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(period_));
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
        lock.unlock();
        sampleOnce();
        lock.lock();
        cv_.wait_for(lock, period, [this]() { return stopping_; });
    }
}

} // namespace telemetry
} // namespace djinn
