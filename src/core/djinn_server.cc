#include "core/djinn_server.hh"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>

#include "common/logging.hh"
#include "common/strings.hh"
#include "common/thread_pool.hh"
#include "core/fault.hh"
#include "core/http_endpoint.hh"
#include "telemetry/build_info.hh"
#include "telemetry/perf_counters.hh"
#include "telemetry/slo.hh"

namespace djinn {
namespace core {

namespace {

// Registry metric families the server maintains (documented in
// DESIGN.md "Telemetry").
const char *const errorsTotalName = "djinn_request_errors_total";
const char *const connectionsTotalName = "djinn_connections_total";
const char *const protocolErrorsName = "djinn_protocol_errors";
const char *const ioTimeoutsName = "djinn_io_timeouts_total";
const char *const processRssName = "djinn_process_rss_bytes";

// Fixed sizing of the server's telemetry.
constexpr size_t kTraceCapacity = 16384;  // trace ring, in spans
constexpr size_t kFlightCapacity = 4096;  // flight-record ring slots
constexpr size_t kFlightReservoir = 256;  // slowest records kept
constexpr double kSloObjective = 0.99;    // error budget 1 - this

/** Wire-status label for the error counter. */
const char *
errorReason(WireStatus status)
{
    switch (status) {
      case WireStatus::UnknownModel:
        return "unknown_model";
      case WireStatus::BadRequest:
        return "bad_request";
      case WireStatus::ServerError:
        return "server_error";
      case WireStatus::Overloaded:
        return "overloaded";
      case WireStatus::DeadlineExceeded:
        return "deadline_exceeded";
      case WireStatus::Ok:
        break;
    }
    return "ok";
}

/** Flight-record outcome for a finished inference response. */
telemetry::FlightOutcome
flightOutcomeOf(WireStatus status)
{
    switch (status) {
      case WireStatus::Ok:
        return telemetry::FlightOutcome::Ok;
      case WireStatus::Overloaded:
        return telemetry::FlightOutcome::ShedQueueFull;
      case WireStatus::DeadlineExceeded:
        return telemetry::FlightOutcome::ShedDeadline;
      default:
        return telemetry::FlightOutcome::Error;
    }
}

} // namespace

DjinnServer::DjinnServer(const ModelRegistry &registry,
                         const ServerConfig &config)
    : registry_(registry), config_(config),
      tracer_(kTraceCapacity),
      flightRecorder_(kFlightCapacity, kFlightReservoir, &metrics_),
      unknownLog_(metrics_, flightRecorder_, kUnknownModelLabel,
                  config.batching, config.sloTargetSeconds,
                  spanTracer()),
      batcher_(registry, config.batchOptions, metrics_)
{
    for (const std::string &model : registry_.modelNames()) {
        requestLogs_.emplace(
            model, std::make_unique<telemetry::RequestLog>(
                       metrics_, flightRecorder_, model,
                       config_.batching, config_.sloTargetSeconds,
                       spanTracer()));
    }
    if (config_.tracing)
        batcher_.setTracer(&tracer_);
    if (config_.adaptiveScheduling && config_.batching) {
        serve::SchedulerOptions sched_opts;
        sched_opts.maxBatch = config_.batchOptions.maxQueries;
        sched_opts.maxDeficitSeconds = std::max(
            sched_opts.maxDeficitSeconds, config_.samplerPeriod);
        if (config_.sloTargetSeconds > 0.0)
            sched_opts.defaultSloSeconds =
                config_.sloTargetSeconds;
        scheduler_ = std::make_unique<serve::AdaptiveScheduler>(
            sched_opts, &metrics_);
        for (const auto &[tenant, weight] : config_.tenantWeights)
            scheduler_->addTenant(tenant, weight);
        for (const auto &[model, tenant] : config_.tenantModels)
            scheduler_->assignModel(model, tenant);
        serve::AdaptiveScheduler *sched = scheduler_.get();
        // Calibrate service time and charge the tenant's deficit
        // per dispatched batch; gate dispatches on fair share only
        // when tenants are actually configured.
        batcher_.setBatchObserver(
            [sched](const std::string &model, int64_t queries,
                    double seconds) {
                sched->observeBatch(model, queries, seconds);
                sched->chargeDispatch(model, seconds);
            });
        // The gate needs the sampler tick to refill deficits, so
        // it only arms when the sampler will actually run.
        if (!config_.tenantWeights.empty() && config_.tracing &&
            config_.samplerPeriod > 0.0) {
            batcher_.setDispatchGate(
                [sched](const std::string &model) {
                    return sched->allowDispatch(model);
                });
        }
    }
    if (!config_.faultSpec.empty()) {
        std::string error;
        faultMask_ = parseFaultSpec(config_.faultSpec, &error);
        if (!error.empty())
            inform("ignoring unknown fault(s): %s", error.c_str());
        if (faultMask_ != FaultNone) {
            inform("FAULT INJECTION ACTIVE: %s",
                   config_.faultSpec.c_str());
        }
    }
}

DjinnServer::~DjinnServer()
{
    stop();
}

Status
DjinnServer::start()
{
    if (listener_.running())
        return Status::invalidArgument("server already running");

    // Size the shared compute pool before the first forward pass;
    // 0 keeps the automatic choice (DJINN_COMPUTE_THREADS
    // environment variable, then hardware concurrency).
    if (config_.computeThreads > 0)
        common::setComputeThreads(config_.computeThreads);
    metrics_.gauge("djinn_compute_threads")
        .set(static_cast<double>(common::computeThreads()));

    // Provenance gauges (djinn_build_info, djinn_start_time_seconds)
    // plus the trace-clock start time that backs /healthz uptime.
    telemetry::exportBuildInfo(metrics_);
    startTraceSeconds_ = telemetry::traceNowUs() * 1e-6;

    // Probe hardware counter availability once and export it: the
    // gauge tells scrapers whether djinn_phase_cycles carries
    // cycles (1) or fallback wall nanoseconds (0).
    metrics_.gauge(telemetry::perfAvailableMetricName)
        .set(telemetry::perfCountersAvailable() ? 1.0 : 0.0);

    // Validate declared per-model precisions against what the
    // registry actually holds, then export every model's serving
    // precision so scrapers can see mixed-precision deployments.
    for (const auto &[model, precision] : config_.modelPrecisions) {
        auto network = registry_.find(model);
        if (!network) {
            return Status::invalidArgument(
                "precision configured for unknown model '" + model +
                "'");
        }
        if (network->precision() != precision) {
            return Status::invalidArgument(strprintf(
                "model '%s' was built at precision %s but is "
                "configured for %s", model.c_str(),
                nn::precisionName(network->precision()),
                nn::precisionName(precision)));
        }
    }
    for (const std::string &model : registry_.modelNames()) {
        auto network = registry_.find(model);
        if (!network)
            continue;
        metrics_
            .gauge("djinn_model_precision",
                   {{"model", model},
                    {"precision",
                     nn::precisionName(network->precision())}})
            .set(1.0);
    }

    Status s = listener_.start(config_.bindAddress, config_.port, 128,
                               metrics_,
                               [this](int fd) { acceptConnection(fd); });
    if (!s.isOk())
        return s;
    inform("DjiNN listening on %s:%u with %zu models",
           config_.bindAddress.c_str(), listener_.port(),
           registry_.size());

    if (config_.tracing && config_.samplerPeriod > 0.0) {
        // The continuous layer rides the sampler. Each tick refreshes
        // the gauges whose sources are not registry-backed (compute
        // pool busy count, process RSS, aggregate batcher backlog),
        // recomputes the SLO burn rates from the store's history,
        // steps the scheduler, then appends one time-series slot and
        // re-evaluates health. The store's gauge tracks are also the
        // trace's counter tracks. Recreated on every start() so a
        // restarted server gets fresh history; the gauges are
        // registered first, so no tick grows the registry under a
        // reader.
        telemetry::Gauge *pool_busy =
            &metrics_.gauge("djinn_compute_pool_busy");
        telemetry::Gauge *rss = &metrics_.gauge(processRssName);
        telemetry::Gauge *queue_depth =
            config_.batching
                ? &metrics_.gauge("djinn_batch_queue_depth_total")
                : nullptr;
        timeseries_ =
            std::make_unique<telemetry::TimeSeriesStore>(metrics_);
        health_ = std::make_unique<telemetry::HealthMonitor>(
            *timeseries_, metrics_);
        sampler_ = std::make_unique<telemetry::BackgroundSampler>(
            config_.samplerPeriod,
            [this, pool_busy, rss, queue_depth]() {
                pool_busy->set(static_cast<double>(
                    common::computePool().activeWorkers()));
                rss->set(telemetry::processRssBytes());
                if (queue_depth) {
                    queue_depth->set(static_cast<double>(
                        batcher_.queueDepthTotal()));
                }
                if (config_.sloTargetSeconds > 0.0) {
                    // Burn rates from the store's history of the
                    // good/bad counters of every model that has
                    // served; the gauge and the scheduler read one
                    // number.
                    for (const telemetry::TrackId &id :
                         timeseries_->trackIds(
                             telemetry::sloGoodMetricName)) {
                        const std::string &model =
                            id.labels.at("model");
                        const double burn = telemetry::sloBurnRate(
                            *timeseries_, model, kSloObjective);
                        metrics_
                            .gauge(telemetry::sloBurnRateMetricName,
                                   id.labels)
                            .set(burn);
                        if (scheduler_)
                            scheduler_->observeBurnRate(model, burn);
                    }
                }
                if (scheduler_) {
                    // One control-loop step: feed the scheduler
                    // the latest backlog (burn rates went in
                    // above), advance its EWMAs and deficits, then
                    // push the new per-model dispatch targets into
                    // the batcher.
                    for (const auto &model :
                         registry_.modelNames()) {
                        scheduler_->setBacklog(
                            model, batcher_.queueDepth(model));
                    }
                    scheduler_->tick(telemetry::traceNowUs() *
                                     1e-6);
                    for (const auto &model :
                         registry_.modelNames()) {
                        batcher_.setBatchTarget(
                            model,
                            scheduler_->batchTarget(model));
                    }
                }
                timeseries_->sample(telemetry::traceNowUs() * 1e-6);
                health_->tick();
            });
        sampler_->start();
    }
    if (config_.httpPort >= 0) {
        http_ = std::make_unique<HttpEndpoint>(debugRoutes());
        Status s = http_->start(
            config_.bindAddress,
            static_cast<uint16_t>(config_.httpPort));
        if (!s.isOk()) {
            stop();
            return s;
        }
    }
    return Status::ok();
}

uint16_t
DjinnServer::httpPort() const
{
    return http_ ? http_->port() : 0;
}

void
DjinnServer::stop()
{
    // Flag the drain before tearing the sampler down so the last
    // health ticks (and any concurrent /healthz evaluation) know
    // the stall they may observe is intentional. The store and
    // monitor themselves survive stop() for post-mortem queries;
    // start() replaces them.
    if (health_)
        health_->setDraining(true);
    http_.reset();
    sampler_.reset();
    if (!listener_.stop())
        return;
    // Graceful drain: wait (bounded) for in-flight requests to
    // finish and flush their responses before cutting connections.
    // Workers observe the stopped listener and reject any request
    // that arrives during the drain with an Overloaded response;
    // they increment inflight_ BEFORE re-checking it, so a request
    // whose frame was read just as it stopped is either counted
    // here (and drained) or rejected — never silently dropped
    // mid-execution.
    if (config_.drainTimeoutSeconds > 0.0) {
        draining_.store(true);
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(
                                config_.drainTimeoutSeconds));
        while (inflight_.load() > 0 &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        draining_.store(false);
    }
    // The acceptor has exited, and it registered every accepted
    // connection before starting its worker (dropping late accepts
    // itself), so this pass reaches every live connection: no
    // worker can stay parked in read(). A worker closes its fd only
    // under the same lock, so every fd still set here is open.
    std::list<Connection> connections;
    {
        std::lock_guard<std::mutex> lock(connectionsMutex_);
        for (Connection &conn : connections_) {
            if (conn.fd >= 0)
                ::shutdown(conn.fd, SHUT_RDWR);
        }
        connections.swap(connections_);
    }
    for (Connection &conn : connections)
        conn.thread.join();
}

size_t
DjinnServer::workerCount() const
{
    std::lock_guard<std::mutex> lock(connectionsMutex_);
    return connections_.size();
}

void
DjinnServer::acceptConnection(int fd)
{
    accepted_.fetch_add(1, std::memory_order_relaxed);
    metrics_.counter(connectionsTotalName).inc();
    std::lock_guard<std::mutex> lock(connectionsMutex_);
    // Reap finished workers before adding one: the list stays
    // proportional to live connections instead of growing by one
    // joinable-but-dead thread per connection ever accepted
    // (unbounded under connection churn). A worker's last act is
    // closing its fd under this lock, so the join returns at once.
    connections_.remove_if([](Connection &conn) {
        if (conn.fd >= 0)
            return false;
        conn.thread.join();
        return true;
    });
    // Registered before the worker runs, so a concurrent stop()
    // always finds it.
    Connection &conn = connections_.emplace_back();
    conn.fd = fd;
    conn.thread = std::thread([this, &conn]() { serveConnection(conn); });
}

void
DjinnServer::serveConnection(Connection &conn)
{
    const int fd = conn.fd;
    common::setCurrentThreadName(
        strprintf("worker-%d", fd).c_str());
    FrameIo io(fd);
    if (config_.ioTimeoutSeconds > 0.0)
        io.setTimeout(config_.ioTimeoutSeconds);
    io.setFaults(faultMask_);
    while (listener_.running()) {
        auto frame = io.readFrame();
        if (!frame.isOk()) {
            // Classify before dropping the connection: a stalled
            // or trickling peer shows up in djinn_io_timeouts_total,
            // a truncated or oversized frame in
            // djinn_protocol_errors; a clean close stays quiet.
            StatusCode code = frame.status().code();
            if (code == StatusCode::DeadlineExceeded) {
                metrics_.counter(ioTimeoutsName, {{"op", "read"}})
                    .inc();
            } else if (code == StatusCode::ProtocolError) {
                metrics_
                    .counter(protocolErrorsName,
                             {{"reason",
                               protocolFaultName(protocolFaultOf(
                                   frame.status()))}})
                    .inc();
            }
            break;
        }

        // Drain/shutdown admission: count the request in-flight
        // BEFORE re-checking the listener. stop() stops it and
        // then waits for inflight_ to reach zero, so a frame read
        // concurrently with stop() is either rejected here with
        // Overloaded (safe for the client to retry elsewhere) or
        // drained to a full response — never abandoned mid-way.
        inflight_.fetch_add(1, std::memory_order_acq_rel);
        if (!listener_.running()) {
            Response rejected;
            rejected.status = WireStatus::Overloaded;
            rejected.message = "server draining";
            metrics_
                .counter(errorsTotalName,
                         {{"reason",
                           errorReason(rejected.status)}})
                .inc();
            io.writeFrame(encodeResponse(rejected));
            inflight_.fetch_sub(1, std::memory_order_acq_rel);
            break;
        }

        // The request span for cycle accounting runs from here
        // (frame in hand, before decode) to just after encode; the
        // per-phase deltas below are its constituents. Its start
        // also anchors the deadline budget, so queueing and decode
        // spend from the same budget the client measures against.
        auto request_begin = telemetry::threadCounterSet().snapshot();

        telemetry::FlightRecord record;
        telemetry::RequestWork work;
        // Frame-ingest time (first byte to complete frame): a
        // trickling peer inflates this and nothing else, so the
        // flight recorder can finger it as a tail contributor.
        record.readSeconds = io.lastReadSeconds();
        // Each phase's seconds are its counter scope's wall span.
        telemetry::CounterScope decode_scope;
        auto request = decodeRequest(frame.value());
        work.decode = decode_scope.stop();
        record.decodeSeconds = work.decode.wallNs * 1e-9;

        // Inference requests are recorded; control verbs
        // (ping/list/stats/...) are not load and would only add
        // label noise.
        telemetry::RequestLog *log = nullptr;
        if (request.isOk() &&
            request.value().type == RequestType::Inference) {
            log = &requestLog(request.value().model);
            log->begin();
        }

        // Wire-propagated trace context: a sampled inference
        // request gets a server-side span tree on this worker's
        // track (derived from its record by the log's finish()),
        // which the executor's batch spans hang off.
        uint64_t server_span = 0;
        if (config_.tracing && log && request.value().trace.valid() &&
            request.value().trace.sampled())
            server_span = tracer_.nextSpanId();

        Response response;
        if (!request.isOk()) {
            response.status = WireStatus::BadRequest;
            response.message = request.status().toString();
            metrics_
                .counter(protocolErrorsName,
                         {{"reason", protocolFaultName(protocolFaultOf(
                               request.status()))}})
                .inc();
        } else if (log) {
            // A zero budget means no deadline.
            auto deadline = BatchingExecutor::noDeadline();
            if (request.value().deadlineMs > 0) {
                deadline = request_begin.wall +
                           std::chrono::milliseconds(
                               request.value().deadlineMs);
            }
            response = handleInference(request.value(), server_span,
                                       deadline, record, work);
        } else {
            response = handleRequest(request.value());
        }
        if (response.status != WireStatus::Ok) {
            metrics_
                .counter(errorsTotalName,
                         {{"reason", errorReason(response.status)}})
                .inc();
        }

        telemetry::CounterScope encode_scope;
        std::vector<uint8_t> wire = encodeResponse(response);
        work.encode = encode_scope.stop();
        record.encodeSeconds = work.encode.wallNs * 1e-9;
        if (log) {
            // Complete the record with what handleInference could
            // not see (the end-to-end total, the outcome) and write
            // the request once, before its response frame.
            work.request = telemetry::CounterSet::delta(
                request_begin, telemetry::threadCounterSet().snapshot());
            record.traceId = request.value().trace.traceId;
            record.timestampUs = telemetry::traceNowUs();
            record.totalSeconds =
                record.readSeconds + work.request.wallNs * 1e-9;
            record.outcome = flightOutcomeOf(response.status);
            log->finish(record, work, server_span,
                        request.value().trace.spanId);
        }
        Status s = io.writeFrame(wire);
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
        if (!s.isOk()) {
            if (s.code() == StatusCode::DeadlineExceeded) {
                metrics_.counter(ioTimeoutsName, {{"op", "write"}})
                    .inc();
            }
            break;
        }
    }
    std::lock_guard<std::mutex> lock(connectionsMutex_);
    ::close(fd);
    conn.fd = -1;
}

Response
DjinnServer::handleRequest(const Request &request)
{
    Response response;
    switch (request.type) {
      case RequestType::Ping:
        response.message = "pong";
        return response;
      case RequestType::ListModels:
        response.message = join(registry_.modelNames(), ",");
        return response;
      case RequestType::Describe:
        {
            auto network = registry_.find(request.model);
            if (!network) {
                response.status = WireStatus::UnknownModel;
                response.message =
                    "unknown model '" + request.model + "'";
                return response;
            }
            const nn::Shape &in = network->inputShape();
            response.message = strprintf(
                "input=%lldx%lldx%lld output=%lld precision=%s",
                static_cast<long long>(in.c()),
                static_cast<long long>(in.h()),
                static_cast<long long>(in.w()),
                static_cast<long long>(
                    network->outputShape().sampleElems()),
                nn::precisionName(network->precision()));
            return response;
        }
      case RequestType::Stats:
        {
            std::string lines;
            for (const ModelStats &s : stats()) {
                double mean_ms = s.requests
                    ? s.serviceSeconds / s.requests * 1e3
                    : 0.0;
                lines += strprintf("%s,%llu,%llu,%.3f\n",
                                   s.model.c_str(),
                                   static_cast<unsigned long long>(
                                       s.requests),
                                   static_cast<unsigned long long>(
                                       s.rows),
                                   mean_ms);
            }
            response.message = lines;
            return response;
        }
      case RequestType::Metrics:
        // The model field names the debug view ("verb:arg:...").
        return debugRoutes().wire(request.model);
      case RequestType::Inference:
        break; // served by handleInference
    }
    response.status = WireStatus::BadRequest;
    response.message = "unknown request type";
    return response;
}

telemetry::RequestLog &
DjinnServer::requestLog(const std::string &model)
{
    auto it = requestLogs_.find(model);
    if (it != requestLogs_.end())
        return *it->second;
    // Names the registry does not hold share one series set, so a
    // client cannot grow the metric registry by naming models.
    if (!registry_.find(model))
        return unknownLog_;
    std::lock_guard<std::mutex> lock(addedMutex_);
    std::unique_ptr<telemetry::RequestLog> &log = addedLogs_[model];
    if (!log) {
        log = std::make_unique<telemetry::RequestLog>(
            metrics_, flightRecorder_, model, config_.batching,
            config_.sloTargetSeconds, spanTracer());
    }
    return *log;
}

std::map<std::string, const telemetry::RequestLog *>
DjinnServer::modelLogs() const
{
    std::map<std::string, const telemetry::RequestLog *> logs;
    for (const auto &[model, log] : requestLogs_)
        logs.emplace(model, log.get());
    std::lock_guard<std::mutex> lock(addedMutex_);
    for (const auto &[model, log] : addedLogs_)
        logs.emplace(model, log.get());
    return logs;
}

DebugRoutes
DjinnServer::debugRoutes()
{
    return DebugRoutes({.metrics = &metrics_,
                        .tracer = &tracer_,
                        .flight = &flightRecorder_,
                        .timeseries = timeseries_.get(),
                        .health = health_.get(),
                        .scheduler = scheduler_.get(),
                        .startTraceSeconds = startTraceSeconds_});
}

uint64_t
DjinnServer::requestsServed() const
{
    uint64_t total = 0;
    for (const auto &[model, log] : modelLogs())
        total += log->requests();
    return total;
}

std::vector<DjinnServer::ModelStats>
DjinnServer::stats() const
{
    std::vector<ModelStats> out;
    for (const auto &[model, log] : modelLogs()) {
        ModelStats s;
        s.requests = log->requests();
        const telemetry::LogHistogram *service = log->serviceSeconds();
        if (s.requests == 0 || !service)
            continue; // never served successfully
        s.model = model;
        s.rows = log->rows();
        telemetry::HistogramSnapshot h = service->snapshot();
        s.serviceSeconds = h.sum;
        s.p50ServiceMs = h.quantile(0.5) * 1e3;
        s.p95ServiceMs = h.quantile(0.95) * 1e3;
        s.p99ServiceMs = h.quantile(0.99) * 1e3;
        out.push_back(std::move(s));
    }
    return out;
}

Response
DjinnServer::handleInference(Request &request, uint64_t server_span,
                             BatchingExecutor::Deadline deadline,
                             telemetry::FlightRecord &record,
                             telemetry::RequestWork &work)
{
    Response response;
    record.rows = static_cast<int32_t>(request.rows);
    // The executor checks the model and the payload shape; only
    // the per-request row cap is the server's own policy.
    int64_t rows = request.rows;
    if (rows > kMaxRowsPerRequest) {
        response.status = WireStatus::BadRequest;
        response.message = strprintf(
            "%lld rows exceed the per-request cap of %lld",
            static_cast<long long>(rows),
            static_cast<long long>(kMaxRowsPerRequest));
        return response;
    }

    auto start = std::chrono::steady_clock::now();
    InferenceResult result;
    if (config_.batching) {
        // The executor records the (per-pass) forward phase itself,
        // and emits the batch and per-layer spans for traced
        // requests. A query for an idle model runs inside submit()
        // on this thread; otherwise it waits for the dispatcher.
        // Cycle accounting: the pass's forward cycles are recorded
        // per batch by the thread that ran it, and the worker's
        // blocked span (after submit, to resolution) is this
        // request's queue_wait work — near zero cycles while
        // parked, honestly reflecting that waiting burns no CPU.
        if (scheduler_)
            scheduler_->observeArrival(request.model, 1);
        std::future<InferenceResult> pending =
            batcher_.submit(request.model, rows,
                            std::move(request.payload), request.trace,
                            server_span, deadline);
        telemetry::CounterScope wait_scope;
        result = pending.get();
        work.queueWait = wait_scope.stop();
    } else {
        // A batch of one on this worker thread: the same execute
        // step, with no queue and no dispatcher hop.
        result = batcher_.run(request.model, rows,
                              std::move(request.payload),
                              request.trace, server_span, deadline);
    }
    record.serviceSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    record.queueWaitSeconds = result.queueWaitSeconds;
    record.forwardSeconds = result.forwardSeconds;
    record.batchQueries = static_cast<int32_t>(result.batchQueries);
    record.batchRows = static_cast<int32_t>(result.batchRows);
    record.batchPosition = static_cast<int32_t>(result.batchPosition);
    record.admitQueueDepth =
        static_cast<int32_t>(result.admitQueueDepth);
    response.status = wireStatusOf(result.status.code());
    response.message = result.status.message();
    response.payload = std::move(result.output);
    return response;
}

} // namespace core
} // namespace djinn
