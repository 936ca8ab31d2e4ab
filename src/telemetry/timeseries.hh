/**
 * @file
 * A fixed-memory in-process time-series store over the metric
 * registry: every BackgroundSampler tick appends one ring slot
 * holding the cumulative value of every counter, the instantaneous
 * value of every gauge, and the cumulative count/sum/bucket array
 * of every histogram. History therefore survives between scrapes —
 * windowed rates, averages, slopes, and percentiles over any
 * trailing window up to the retention horizon can be computed
 * after the fact, which is what the health watchdog, the
 * `djinn_cli top` dashboard, and `/debug/timeseries` consume. The
 * gauge tracks are also the trace's counter tracks: the Chrome
 * exporter draws them from here, so a gauge is sampled once.
 *
 * Memory is bounded at sync() time: each track preallocates its
 * rings, and the sample path only stores into them through cached
 * instrument pointers (MetricRegistry references are stable for
 * the registry's lifetime), so recording a slot performs zero
 * allocations — asserted by the telemetry test suite. New metrics
 * registered after construction are adopted lazily: sample()
 * re-syncs (and allocates, once) only when the registry's entry
 * count has changed.
 *
 * Timestamps are explicit: the live server samples with
 * traceNowUs()-based seconds, while the cluster simulator replays
 * its virtual-time series into a store (cluster/telemetry
 * feedTimeSeries), making the health rules unit-testable with
 * bit-identical results.
 */

#ifndef DJINN_TELEMETRY_TIMESERIES_HH
#define DJINN_TELEMETRY_TIMESERIES_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/metrics.hh"

namespace djinn {
namespace telemetry {

/** A snapshot-free view over one track's identity. */
struct TrackId {
    std::string name;
    LabelMap labels;
    MetricKind kind = MetricKind::Counter;
};

/**
 * The store. sample() is thread-safe against queries; one sampler
 * thread is assumed (the BackgroundSampler's).
 */
class TimeSeriesStore
{
  public:
    /**
     * Ring slots retained per track. With the default 0.25 s
     * sampler period this keeps 2.5 minutes of history.
     */
    static constexpr size_t kCapacity = 600;

    /**
     * Cap on tracked series; metrics beyond the cap are skipped
     * (skippedTracks() counts them) so one labels explosion cannot
     * grow the store without bound.
     */
    static constexpr size_t kMaxTracks = 2048;

    /**
     * @param registry source of instruments; must outlive the
     *        store.
     */
    explicit TimeSeriesStore(const MetricRegistry &registry);

    TimeSeriesStore(const TimeSeriesStore &) = delete;
    TimeSeriesStore &operator=(const TimeSeriesStore &) = delete;

    /**
     * Adopt registry entries that appeared since the last sync,
     * preallocating their rings (allocates). Called automatically
     * by sample() when the registry's size changed.
     */
    void sync();

    /**
     * Record one slot at @p nowSeconds (any monotonic epoch; the
     * server uses trace-clock seconds, the simulator virtual
     * time). Allocation-free once every metric has been synced.
     */
    void sample(double nowSeconds);

    /** Tracks currently recorded. */
    size_t trackCount() const;

    /** Metrics skipped because kMaxTracks was reached. */
    size_t skippedTracks() const;

    /** Slots filled so far (saturates at kCapacity). */
    size_t sampleCount() const;

    /** Newest slot's timestamp; false when no slot was recorded. */
    bool newestTime(double *out) const;

    /**
     * Identities of tracks whose family matches @p name (empty
     * matches all) and whose labels contain every pair of
     * @p labels (subset match).
     */
    std::vector<TrackId> trackIds(const std::string &name = {},
                                  const LabelMap &labels = {}) const;

    /** Windowed aggregate selector. */
    enum class Op {
        /**
         * Sum over matching counter/histogram tracks of
         * (last - first) / (t_last - t_first) inside the window:
         * events per second. Invalid for gauges.
         */
        Rate,

        /** Mean over every in-window point of every matching
         * track (per-step rates for counters/histograms, raw
         * values for gauges). */
        Avg,

        /** Minimum over the same point set as Avg. */
        Min,

        /** Maximum over the same point set as Avg. */
        Max,

        /**
         * Least-squares slope (units per second) of the per-slot
         * SUM across matching tracks — the growth rate of a total
         * backlog. Gauges only.
         */
        Slope,

        /**
         * Quantile of the histogram formed by subtracting the
         * window-start bucket array from the window-end one,
         * merged across matching tracks. Histograms only.
         */
        Quantile,

        /**
         * Sum over matching counter/histogram tracks of last -
         * first inside the window: events counted in the window.
         * A metric registered after the store was built read 0
         * before its first slot, so a window reaching that slot
         * counts its first events too. Invalid for gauges.
         */
        Increase,
    };

    /** A trailing-window query. */
    struct Window {
        /** Metric family (exact); series() matches every family
         * when empty. */
        std::string name;

        /** Label subset every matching track must contain. */
        LabelMap labels;

        /** Window length, seconds. */
        double seconds = 60.0;

        /**
         * Window end; slots with t in [now - seconds, now] are
         * considered. Negative anchors at the newest slot.
         */
        double now = -1.0;
    };

    /** A windowed aggregate; valid is false when no matching track
     * has enough in-window data for the op. */
    struct Stat {
        bool valid = false;
        double value = 0.0;
    };

    /** Evaluate one windowed aggregate (see Op). */
    Stat windowStat(const Window &window, Op op,
                    double quantile = 0.99) const;

    /** One series point. */
    struct Point {
        double t = 0.0;
        double value = 0.0;
    };

    /** One track's windowed points. */
    struct Series {
        std::string name;
        LabelMap labels;
        MetricKind kind = MetricKind::Counter;
        std::vector<Point> points;
    };

    /**
     * Per-track point series over the window: per-step rates for
     * counters and histogram counts, raw values for gauges.
     * @p step > 0 decimates: consecutive emitted points are at
     * least @p step seconds apart.
     */
    std::vector<Series> series(const Window &window,
                               double step = 0.0) const;

  private:
    struct Track {
        std::string name;
        LabelMap labels;
        MetricKind kind = MetricKind::Counter;
        const Counter *counter = nullptr;
        const Gauge *gauge = nullptr;
        const LogHistogram *histogram = nullptr;

        /** Counter cumulative value or gauge value per slot. */
        std::vector<double> values;

        /** Histogram cumulative count / sum per slot. */
        std::vector<uint64_t> counts;
        std::vector<double> sums;

        /** Histogram cumulative buckets, capacity x bucketCount. */
        std::vector<uint64_t> buckets;
        int bucketCount = 0;

        /** Absolute index (count of earlier samples) of the first
         * slot holding this track. */
        uint64_t firstSlot = 0;

        /** Registered after construction, so 0 before firstSlot. */
        bool zeroBefore = false;
    };

    void syncLocked();

    /** Physical slot index of logical slot @p i (0 = oldest);
     * caller holds mutex_. */
    size_t slotIndex(size_t i) const;

    /** Logical slot range [first, last] covered by @p window;
     * false when fewer than one slot is inside. */
    bool windowRange(const Window &window, size_t *first,
                     size_t *last) const;

    /** The per-point value of @p track at logical slot @p i (rate
     * for cumulative kinds, value for gauges); false for the first
     * slot of a cumulative track. */
    bool pointValue(const Track &track, size_t i,
                    double *out) const;

    const MetricRegistry &registry_;

    mutable std::mutex mutex_;
    std::vector<double> times_;
    std::vector<Track> tracks_;
    std::map<const void *, size_t> known_;
    size_t head_ = 0;
    size_t filled_ = 0;
    uint64_t sampled_ = 0;
    bool built_ = false;
    size_t syncedMetrics_ = 0;
    size_t skipped_ = 0;
};

/**
 * Render the windowed series of one metric family as JSON:
 * `{"metric": ..., "window": ..., "now": ..., "series": [{"labels":
 * {...}, "kind": ..., "points": [[t, v], ...]}, ...]}`. Counters
 * and histograms render per-step rates; gauges raw values. Served
 * by GET /debug/timeseries and the `series:` Metrics wire verb.
 */
std::string renderTimeSeriesJson(const TimeSeriesStore &store,
                                 const TimeSeriesStore::Window &window,
                                 double step = 0.0);

/**
 * A background thread that calls one tick callback every period,
 * first at start(). The server's tick refreshes its derived gauges
 * (including `djinn_process_rss_bytes`), steps the scheduler, and
 * appends one TimeSeriesStore slot. start() and stop() are called
 * from one owning thread; destruction stops the thread.
 */
class BackgroundSampler
{
  public:
    using Tick = std::function<void()>;

    /**
     * @param period_seconds tick interval (non-positive: 10 ms).
     * @param tick called on the sampler thread.
     */
    BackgroundSampler(double period_seconds, Tick tick);

    /** Start ticking; no-op when already running. */
    void start();

    /** Stop and join the sampling thread; no-op when stopped. */
    void stop();

  private:
    std::chrono::steady_clock::duration period_;
    Tick tick_;
    std::jthread thread_;
};

/** Current process resident set size in bytes; 0 when unknown. */
double processRssBytes();

} // namespace telemetry
} // namespace djinn

#endif // DJINN_TELEMETRY_TIMESERIES_HH
