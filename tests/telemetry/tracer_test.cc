/**
 * @file
 * Tests for the trace ring, the Chrome trace-event exporter (spans
 * from the ring, counter tracks from a time-series store), the
 * flight-record request CSV, and the background sampler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/flight_recorder.hh"
#include "telemetry/metrics.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/tracer.hh"

using namespace djinn;
using telemetry::TraceEvent;
using telemetry::Tracer;

namespace {

/**
 * Minimal recursive-descent JSON syntax checker: accepts exactly
 * the value grammar (objects, arrays, strings with escapes,
 * numbers, true/false/null). Good enough to prove the exporter
 * emits well-formed JSON without a JSON library.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : text_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    return false;
                char c = text_[pos_];
                if (c == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos_;
                        if (pos_ >= text_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                text_[pos_])))
                            return false;
                    }
                } else if (!std::strchr("\"\\/bfnrt", c)) {
                    return false;
                }
            } else if (static_cast<unsigned char>(text_[pos_]) <
                       0x20) {
                return false; // raw control character
            }
            ++pos_;
        }
        if (pos_ >= text_.size())
            return false;
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(
                    text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : 0; }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    const std::string &text_;
    size_t pos_ = 0;
};

TraceEvent
makeSpan(const std::string &name, const std::string &track,
         uint64_t trace_id, uint64_t span_id, uint64_t parent,
         int64_t start_us, int64_t dur_us)
{
    TraceEvent e;
    e.name = name;
    e.category = "test";
    e.track = track;
    e.traceId = trace_id;
    e.spanId = span_id;
    e.parentSpanId = parent;
    e.startUs = start_us;
    e.durationUs = dur_us;
    return e;
}

TEST(TraceContextTest, MintedContextsAreDistinctAndSampled)
{
    auto a = telemetry::makeTraceContext();
    auto b = telemetry::makeTraceContext();
    EXPECT_TRUE(a.valid());
    EXPECT_TRUE(a.sampled());
    EXPECT_NE(a.traceId, b.traceId);
    EXPECT_NE(a.spanId, b.spanId);
    EXPECT_NE(a.traceId, a.spanId);

    auto unsampled = telemetry::makeTraceContext(false);
    EXPECT_TRUE(unsampled.valid());
    EXPECT_FALSE(unsampled.sampled());
}

TEST(TraceContextTest, HexRendering)
{
    EXPECT_EQ(telemetry::traceIdToHex(0), "0000000000000000");
    EXPECT_EQ(telemetry::traceIdToHex(0xdeadbeefull),
              "00000000deadbeef");
}

TEST(TracerTest, RingOverwritesOldestAndCountsDrops)
{
    Tracer tracer(4);
    for (int i = 0; i < 7; ++i)
        tracer.record(makeSpan("e" + std::to_string(i), "t", 1,
                               static_cast<uint64_t>(i + 1), 0,
                               i * 10, 5));
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.dropped(), 3u);
    auto events = tracer.events();
    ASSERT_EQ(events.size(), 4u);
    // Oldest three were overwritten; e3..e6 remain, in order.
    EXPECT_EQ(events.front().name, "e3");
    EXPECT_EQ(events.back().name, "e6");

    auto last_two = tracer.events(2);
    ASSERT_EQ(last_two.size(), 2u);
    EXPECT_EQ(last_two[0].name, "e5");
    EXPECT_EQ(last_two[1].name, "e6");
}

TEST(TracerTest, ClearEmptiesEverything)
{
    Tracer tracer(8);
    tracer.record(makeSpan("a", "t", 1, 2, 0, 0, 1));
    tracer.clear();
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_TRUE(tracer.events().empty());
    EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(ChromeTraceTest, OutputIsValidJson)
{
    Tracer tracer;
    tracer.record(makeSpan("decode \"x\"\n", "worker-1", 0xabc, 2,
                           1, 100, 50));
    telemetry::MetricRegistry metrics;
    metrics.gauge("queue_depth").set(3.5);
    telemetry::TimeSeriesStore store(metrics);
    store.sample(1e-3);
    std::string json =
        telemetry::renderChromeTrace(tracer.events(), &store);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
}

TEST(ChromeTraceTest, SpansNestAndTimestampsMonotonePerTrack)
{
    Tracer tracer;
    // Parent span encloses two children on the same track; a second
    // track interleaves.
    tracer.record(makeSpan("child1", "worker", 7, 11, 10, 110, 20));
    tracer.record(makeSpan("parent", "worker", 7, 10, 0, 100, 100));
    tracer.record(makeSpan("child2", "worker", 7, 12, 10, 140, 30));
    tracer.record(makeSpan("other", "batch", 7, 13, 10, 105, 10));

    auto events = tracer.events();
    std::string json = telemetry::renderChromeTrace(events);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;

    // The exporter sorts by start time, so per-track (and overall)
    // "X" event timestamps are monotone — required for correct
    // nesting of complete events in the viewer.
    std::vector<TraceEvent> sorted = events;
    std::sort(sorted.begin(), sorted.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  return a.startUs < b.startUs;
              });
    EXPECT_EQ(sorted.front().name, "parent");
    int64_t prev = -1;
    for (const auto &e : sorted) {
        EXPECT_GE(e.startUs, prev);
        prev = e.startUs;
    }

    // Children fall entirely inside the parent interval, so the
    // viewer nests them under it on the "worker" track.
    const TraceEvent *parent = nullptr;
    for (const auto &e : events) {
        if (e.name == "parent")
            parent = &e;
    }
    ASSERT_NE(parent, nullptr);
    for (const auto &e : events) {
        if (e.parentSpanId != parent->spanId || e.track != "worker")
            continue;
        EXPECT_GE(e.startUs, parent->startUs);
        EXPECT_LE(e.startUs + e.durationUs,
                  parent->startUs + parent->durationUs);
    }

    // Parent/child ids surface in args so traces can be filtered.
    EXPECT_NE(json.find("\"parent_span_id\": "
                        "\"000000000000000a\""),
              std::string::npos);
}

TEST(ChromeTraceTest, TracksBecomeNamedThreads)
{
    Tracer tracer;
    tracer.record(makeSpan("a", "client", 1, 2, 0, 0, 1));
    tracer.record(makeSpan("b", "worker-5", 1, 3, 0, 1, 1));
    std::string json = telemetry::renderChromeTrace(tracer.events());
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"client\""), std::string::npos);
    EXPECT_NE(json.find("\"worker-5\""), std::string::npos);
}

TEST(RequestsCsvTest, HeaderAndRows)
{
    // The `metrics requests` view renders served flight records;
    // service_ms is queue wait plus forward.
    auto record = [](uint64_t trace_id, const char *model,
                     int32_t rows, int32_t batch_rows, double wait,
                     double forward,
                     telemetry::FlightOutcome outcome) {
        telemetry::FlightRecord r;
        r.traceId = trace_id;
        r.setModel(model);
        r.rows = rows;
        r.batchRows = batch_rows;
        r.queueWaitSeconds = wait;
        r.forwardSeconds = forward;
        r.outcome = outcome;
        return r;
    };
    std::string csv = telemetry::renderRequestsCsv(
        {record(0x10, "alexnet", 2, 16, 2.5e-3, 10e-3,
                telemetry::FlightOutcome::Ok),
         record(0x20, "mnist", 1, 0, 0.0, 0.0,
                telemetry::FlightOutcome::ShedDeadline),
         record(0, "mnist", 1, 1, 0.0, 0.75e-3,
                telemetry::FlightOutcome::Ok)});
    EXPECT_EQ(csv,
              "trace_id,model,rows,batch_rows,service_ms\n"
              "0000000000000010,alexnet,2,16,12.500\n"
              "0000000000000000,mnist,1,1,0.750\n");
}

TEST(ChromeTraceTest, StoreGaugesBecomeCounterTracks)
{
    telemetry::MetricRegistry metrics;
    telemetry::Gauge &depth = metrics.gauge("queue_depth");
    telemetry::TimeSeriesStore store(metrics);
    depth.set(4.0);
    store.sample(1.0);
    depth.set(2.5);
    store.sample(2.0);

    // An empty ring draws every retained slot at its time, in us.
    std::string json = telemetry::renderChromeTrace({}, &store);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    const std::string head = "{\"name\": \"queue_depth\", "
                             "\"cat\": \"sampler\", \"ph\": \"C\", ";
    EXPECT_NE(json.find(head + "\"ts\": 1000000, "), std::string::npos)
        << json;
    EXPECT_NE(json.find(head + "\"ts\": 2000000, "), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"args\": {\"value\": 4}"), std::string::npos);
    EXPECT_NE(json.find("\"args\": {\"value\": 2.5}"), std::string::npos);
    EXPECT_NE(json.find("\"args\": {\"name\": \"sampler\"}"),
              std::string::npos);

    // With spans, only the slots from the oldest span's start on.
    json = telemetry::renderChromeTrace(
        {makeSpan("late", "worker", 1, 2, 0, 1800000, 10),
         makeSpan("early", "worker", 1, 3, 0, 1500000, 10)},
        &store);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_EQ(json.find(head + "\"ts\": 1000000, "), std::string::npos);
    EXPECT_NE(json.find(head + "\"ts\": 2000000, "), std::string::npos);
}

TEST(ChromeTraceTest, CounterTracksDrawOnlyChanges)
{
    // A counter track holds its last value, so a slot that repeats
    // its predecessor draws nothing.
    telemetry::MetricRegistry metrics;
    telemetry::Gauge &steady = metrics.gauge("steady");
    telemetry::Gauge &moving = metrics.gauge("moving");
    telemetry::TimeSeriesStore store(metrics);
    steady.set(7.0);
    const double values[] = {1.0, 1.0, 3.0, 3.0, 1.0};
    for (int slot = 0; slot < 5; ++slot) {
        moving.set(values[slot]);
        store.sample(1.0 + slot);
    }

    std::string json = telemetry::renderChromeTrace({}, &store);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    auto events = [&json](const std::string &name) {
        const std::string head = "{\"name\": \"" + name +
                                 "\", \"cat\": \"sampler\", "
                                 "\"ph\": \"C\", ";
        int n = 0;
        for (size_t at = json.find(head); at != std::string::npos;
             at = json.find(head, at + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(events("steady"), 1) << json;
    EXPECT_EQ(events("moving"), 3) << json;
    // The changes land at their own slots.
    EXPECT_NE(json.find("\"ts\": 3000000, \"pid\": 1"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"ts\": 5000000, \"pid\": 1"), std::string::npos)
        << json;
}

TEST(SamplerTest, SampleOnceRecordsGaugesAndRss)
{
    // One tick of a sampler that feeds a store (the server's tick,
    // cut down): the trace then draws the store's gauges, process
    // RSS among them, and no counter.
    telemetry::MetricRegistry metrics;
    metrics.gauge("queue_depth", {{"model", "tiny"}}).set(4.0);
    telemetry::Gauge &rss = metrics.gauge("process_rss_bytes");
    metrics.counter("ignored_total").inc(); // counters not drawn
    telemetry::TimeSeriesStore store(metrics);
    telemetry::BackgroundSampler sampler(1.0, [&]() {
        rss.set(telemetry::processRssBytes());
        store.sample(telemetry::traceNowUs() * 1e-6);
    });
    sampler.start();
    while (store.sampleCount() == 0)
        std::this_thread::yield();
    sampler.stop();

    EXPECT_GT(rss.value(), 0.0);
    std::string json = telemetry::renderChromeTrace({}, &store);
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"queue_depth{model=\\\"tiny\\\"}\", "
                        "\"cat\": \"sampler\", \"ph\": \"C\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"process_rss_bytes\", \"cat\": \"sampler\", "
                        "\"ph\": \"C\""),
              std::string::npos)
        << json;
    EXPECT_EQ(json.find("ignored_total"), std::string::npos);
}

TEST(SamplerTest, StartStopIsClean)
{
    std::atomic<int> ticks{0};
    telemetry::BackgroundSampler sampler(1e-3, [&ticks]() { ++ticks; });
    sampler.start();
    sampler.start(); // no-op
    while (ticks.load() < 3)
        std::this_thread::yield();
    sampler.stop();
    sampler.stop(); // no-op
    const int stopped = ticks.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(ticks.load(), stopped);

    // A restart ticks again, first at start().
    sampler.start();
    while (ticks.load() == stopped)
        std::this_thread::yield();
    sampler.stop();
}

} // namespace
