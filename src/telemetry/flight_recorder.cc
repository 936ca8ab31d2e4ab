#include "telemetry/flight_recorder.hh"

#include <algorithm>
#include <cstring>

#include "common/strings.hh"
#include "telemetry/exposition.hh"
#include "telemetry/metrics.hh"

namespace djinn {
namespace telemetry {

namespace {

/** Min-heap order on total latency, so the root is the fastest
 * retained record — the one a slower candidate evicts. */
bool slower(const FlightRecord &a, const FlightRecord &b)
{
    return a.totalSeconds > b.totalSeconds;
}

} // namespace

const char *flightOutcomeName(FlightOutcome outcome)
{
    switch (outcome) {
    case FlightOutcome::Ok: return "ok";
    case FlightOutcome::ShedQueueFull: return "shed_queue_full";
    case FlightOutcome::ShedDeadline: return "shed_deadline";
    case FlightOutcome::Error: return "error";
    }
    return "unknown";
}

void FlightRecord::setModel(const std::string &name)
{
    size_t n = std::min(name.size(), sizeof(model) - 1);
    std::memcpy(model, name.data(), n);
    model[n] = '\0';
}

std::string FlightRecord::modelName() const
{
    return std::string(model,
                       strnlen(model, sizeof(model)));
}

FlightRecorder::FlightRecorder(size_t capacity,
                               size_t reservoirCapacity,
                               MetricRegistry *metrics)
    : slots_(std::max<size_t>(capacity, 1)),
      reservoirCapacity_(reservoirCapacity)
{
    reservoir_.reserve(reservoirCapacity_);
    if (metrics)
        recordsCounter_ = &metrics->counter("djinn_tail_records_total");
}

uint64_t FlightRecorder::record(const FlightRecord &record)
{
    uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);

    FlightRecord stamped = record;
    stamped.seq = seq;

    // The newer sequence wins a lapped slot unless an older writer
    // is still copying into it. A record that loses its slot can
    // still reach the tail reservoir below.
    slots_[seq % slots_.size()].write(seq, stamped);

    offerTail(stamped);
    if (recordsCounter_)
        recordsCounter_->inc();
    return seq;
}

uint64_t FlightRecorder::recordCount() const
{
    return next_.load(std::memory_order_relaxed);
}

void FlightRecorder::offerTail(const FlightRecord &record)
{
    if (reservoirCapacity_ == 0)
        return;
    // Lock-free pre-check on the cached full flag + threshold only:
    // reservoir_ itself (including its size) is guarded by the
    // mutex, and a stale flag or threshold merely sends a borderline
    // record through the locked path, which re-checks exactly.
    if (reservoirFull_.load(std::memory_order_relaxed) &&
        record.totalSeconds <=
            tailThreshold_.load(std::memory_order_relaxed))
        return;

    std::lock_guard<std::mutex> lock(reservoirMutex_);
    if (reservoir_.size() >= reservoirCapacity_) {
        if (record.totalSeconds <= reservoir_.front().totalSeconds)
            return;
        std::pop_heap(reservoir_.begin(), reservoir_.end(), slower);
        reservoir_.back() = record;
    } else {
        reservoir_.push_back(record);
    }
    std::push_heap(reservoir_.begin(), reservoir_.end(), slower);
    if (reservoir_.size() >= reservoirCapacity_) {
        tailThreshold_.store(reservoir_.front().totalSeconds,
                             std::memory_order_relaxed);
        reservoirFull_.store(true, std::memory_order_relaxed);
    }
}

std::vector<FlightRecord> FlightRecorder::snapshot() const
{
    std::vector<FlightRecord> out;
    out.reserve(slots_.size() + reservoirCapacity_);
    for (const SeqlockSlot<FlightRecord> &slot : slots_) {
        FlightRecord record;
        uint64_t seq;
        if (slot.read(record, seq))
            out.push_back(record);
    }
    {
        std::lock_guard<std::mutex> lock(reservoirMutex_);
        out.insert(out.end(), reservoir_.begin(), reservoir_.end());
    }
    std::sort(out.begin(), out.end(),
              [](const FlightRecord &a, const FlightRecord &b) {
                  return a.seq < b.seq;
              });
    out.erase(std::unique(out.begin(), out.end(),
                          [](const FlightRecord &a,
                             const FlightRecord &b) {
                              return a.seq == b.seq;
                          }),
              out.end());
    return out;
}

bool FlightRecorder::find(uint64_t seq, FlightRecord &out) const
{
    for (const FlightRecord &record : snapshot())
        if (record.seq == seq) {
            out = record;
            return true;
        }
    return false;
}

std::string
renderRequestsCsv(const std::vector<FlightRecord> &records)
{
    std::string out = "trace_id,model,rows,batch_rows,service_ms\n";
    for (const FlightRecord &r : records) {
        if (r.outcome != FlightOutcome::Ok)
            continue;
        out += strprintf("%016llx,%s,%d,%d,%.3f\n",
                         static_cast<unsigned long long>(r.traceId),
                         r.modelName().c_str(), r.rows, r.batchRows,
                         (r.queueWaitSeconds + r.forwardSeconds) *
                             1e3);
    }
    return out;
}

std::string
renderFlightRecordJson(const FlightRecord &record)
{
    std::string out = "{";
    out += strprintf("\"seq\": %llu",
                     static_cast<unsigned long long>(record.seq));
    if (record.traceId != 0)
        out += strprintf(", \"trace_id\": \"%016llx\"",
                         static_cast<unsigned long long>(
                             record.traceId));
    out += strprintf(", \"timestamp_us\": %lld",
                     static_cast<long long>(record.timestampUs));
    out += ", \"model\": \"" + jsonEscape(record.modelName()) + "\"";
    out += std::string(", \"outcome\": \"") +
           flightOutcomeName(record.outcome) + "\"";
    out += strprintf(", \"total_seconds\": %.9g",
                     record.totalSeconds);
    out += strprintf(", \"read_seconds\": %.9g",
                     record.readSeconds);
    out += strprintf(", \"decode_seconds\": %.9g",
                     record.decodeSeconds);
    out += strprintf(", \"queue_wait_seconds\": %.9g",
                     record.queueWaitSeconds);
    out += strprintf(", \"forward_seconds\": %.9g",
                     record.forwardSeconds);
    out += strprintf(", \"encode_seconds\": %.9g",
                     record.encodeSeconds);
    out += strprintf(", \"retry_wait_seconds\": %.9g",
                     record.retryWaitSeconds);
    out += strprintf(", \"rows\": %d", record.rows);
    out += strprintf(", \"batch_queries\": %d",
                     record.batchQueries);
    out += strprintf(", \"batch_rows\": %d", record.batchRows);
    out += strprintf(", \"batch_position\": %d",
                     record.batchPosition);
    out += strprintf(", \"admit_queue_depth\": %d",
                     record.admitQueueDepth);
    out += strprintf(", \"retries\": %d", record.retries);
    out += strprintf(", \"hardware\": %s",
                     record.hardware ? "true" : "false");
    out += strprintf(", \"cycles\": %llu",
                     static_cast<unsigned long long>(record.cycles));
    out += strprintf(", \"instructions\": %llu",
                     static_cast<unsigned long long>(
                         record.instructions));
    out += strprintf(", \"cache_misses\": %llu}",
                     static_cast<unsigned long long>(
                         record.cacheMisses));
    return out;
}

bool FlightRecorder::findByTraceId(uint64_t traceId,
                                   FlightRecord &out) const
{
    if (traceId == 0)
        return false;
    bool found = false;
    for (const FlightRecord &record : snapshot())
        if (record.traceId == traceId) {
            out = record;
            found = true; // keep scanning: newest seq wins
        }
    return found;
}

} // namespace telemetry
} // namespace djinn
