#include "core/djinn_client.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/strings.hh"
#include "telemetry/tracer.hh"

namespace djinn {
namespace core {

DjinnClient::~DjinnClient()
{
    disconnect();
}

Status
DjinnClient::connect(const std::string &host, uint16_t port)
{
    if (fd_ >= 0)
        return Status::invalidArgument("already connected");
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return Status::ioError(std::string("socket: ") +
                               std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return Status::invalidArgument("bad host address '" + host +
                                       "'");
    }
    // Connect non-blocking and poll for the handshake (bounded by
    // the connect timeout when one is set), then restore blocking
    // mode for FrameIo.
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    int err = 0;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0)
        err = errno;
    if (err == EINPROGRESS) {
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLOUT;
        int timeout_ms = -1;
        if (connectTimeoutSeconds_ > 0.0)
            timeout_ms = static_cast<int>(
                std::ceil(connectTimeoutSeconds_ * 1e3));
        int ready;
        do {
            ready = ::poll(&pfd, 1, timeout_ms);
        } while (ready < 0 && errno == EINTR);
        if (ready == 0) {
            ::close(fd);
            return Status::deadlineExceeded("connect timed out");
        }
        socklen_t err_len = sizeof(err);
        if (ready < 0 ||
            ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) < 0)
            err = errno;
    }
    if (err != 0) {
        ::close(fd);
        return Status::ioError(std::string("connect: ") +
                               std::strerror(err));
    }
    ::fcntl(fd, F_SETFL, flags);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fd_ = fd;
    host_ = host;
    port_ = port;
    return Status::ok();
}

void
DjinnClient::disconnect()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Result<Response>
DjinnClient::roundTrip(const Request &request, FailureStage *stage)
{
    if (stage)
        *stage = FailureStage::Connect;
    if (fd_ < 0)
        return Status::unavailable("not connected");
    FrameIo io(fd_);
    if (requestTimeoutSeconds_ > 0.0) {
        io.setTimeout(requestTimeoutSeconds_);
        // The client's idle wait IS the request round trip, so the
        // same budget bounds the response's first byte.
        io.setIdleTimeout(requestTimeoutSeconds_);
    }
    io.setFaults(faults_);
    if (stage)
        *stage = FailureStage::Send;
    Status s = io.writeFrame(encodeRequest(request));
    if (!s.isOk())
        return s;
    if (stage)
        *stage = FailureStage::Receive;
    auto frame = io.readFrame();
    if (!frame.isOk())
        return frame.status();
    auto response = decodeResponse(frame.value());
    if (!response.isOk())
        return response.status();
    Status status = statusOf(response.value());
    if (!status.isOk())
        return status;
    return response;
}

Result<std::vector<float>>
DjinnClient::infer(const std::string &model, int64_t rows,
                   const std::vector<float> &data)
{
    Request request;
    request.type = RequestType::Inference;
    request.model = model;
    request.rows = static_cast<uint32_t>(rows);
    request.payload = data;
    request.deadlineMs = deadlineMs_;

    for (int attempt = 0;; ++attempt) {
        if (tracing_) {
            // A fresh context per attempt: each try is its own
            // server-side span tree.
            request.trace = telemetry::makeTraceContext();
            lastTrace_ = request.trace;
        }
        FailureStage stage = FailureStage::Connect;
        auto result = inferOnce(request, &stage);
        if (result.isOk() ||
            !retryableFailure(result.status(), stage) ||
            attempt + 1 >= retryPolicy_.maxAttempts) {
            return result;
        }
        ++retries_;
        double backoff =
            retryBackoffSeconds(retryPolicy_, attempt, retryRng_);
        if (backoff > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(backoff)));
        }
        // A connect/send failure leaves the connection unusable;
        // reconnect to the remembered address before the retry. A
        // failed reconnect falls through to the next attempt's
        // "not connected" (Unavailable at Connect stage), which
        // keeps retrying until the attempt budget runs out.
        if (fd_ < 0 || stage != FailureStage::Receive) {
            disconnect();
            if (!host_.empty())
                connect(host_, port_);
        }
    }
}

Result<std::vector<float>>
DjinnClient::inferOnce(const Request &request, FailureStage *stage)
{
    int64_t start_us =
        tracing_ && tracer_ ? telemetry::traceNowUs() : 0;
    auto response = roundTrip(request, stage);
    if (tracing_ && tracer_) {
        telemetry::TraceEvent e;
        e.name = "infer " + request.model;
        e.category = "client";
        e.track = "client";
        e.traceId = request.trace.traceId;
        e.spanId = request.trace.spanId;
        e.startUs = start_us;
        e.durationUs = telemetry::traceNowUs() - start_us;
        e.args.emplace_back("model", request.model);
        tracer_->record(std::move(e));
    }
    if (!response.isOk())
        return response.status();
    return std::move(response.value().payload);
}

Result<std::string>
DjinnClient::control(RequestType type, const std::string &model)
{
    Request request;
    request.type = type;
    request.model = model;
    auto response = roundTrip(request);
    if (!response.isOk())
        return response.status();
    return std::move(response.value().message);
}

Result<std::vector<std::string>>
DjinnClient::listModels()
{
    auto reply = control(RequestType::ListModels);
    if (!reply.isOk())
        return reply.status();
    if (reply.value().empty())
        return std::vector<std::string>{};
    return split(reply.value(), ',');
}

Result<DjinnClient::ModelInfo>
DjinnClient::describeModel(const std::string &model)
{
    auto reply = control(RequestType::Describe, model);
    if (!reply.isOk())
        return reply.status();
    // Parse "input=CxHxW output=N [precision=P]"; the precision
    // field is absent from pre-quantization servers.
    ModelInfo info;
    char precision[16];
    int fields = std::sscanf(
        reply.value().c_str(),
        "input=%" SCNd64 "x%" SCNd64 "x%" SCNd64
        " output=%" SCNd64 " precision=%15s",
        &info.channels, &info.height, &info.width, &info.outputs,
        precision);
    if (fields < 4) {
        return Status::protocolError("malformed describe reply '" +
                                     reply.value() + "'");
    }
    if (fields == 5)
        info.precision = precision;
    return info;
}

Result<std::vector<DjinnClient::ModelStats>>
DjinnClient::serverStats()
{
    auto reply = control(RequestType::Stats);
    if (!reply.isOk())
        return reply.status();
    std::vector<ModelStats> out;
    for (const std::string &line : split(reply.value(), '\n')) {
        if (line.empty())
            continue;
        auto fields = split(line, ',');
        if (fields.size() != 4) {
            return Status::protocolError(
                "malformed stats line '" + line + "'");
        }
        ModelStats s;
        s.model = fields[0];
        int64_t requests, rows;
        double mean;
        if (!parseInt(fields[1], requests) ||
            !parseInt(fields[2], rows) ||
            !parseDouble(fields[3], mean)) {
            return Status::protocolError(
                "malformed stats line '" + line + "'");
        }
        s.requests = static_cast<uint64_t>(requests);
        s.rows = static_cast<uint64_t>(rows);
        s.meanServiceMs = mean;
        out.push_back(std::move(s));
    }
    return out;
}

Result<std::string>
DjinnClient::metricsExposition(const std::string &format)
{
    return control(RequestType::Metrics, format);
}

Status
DjinnClient::ping()
{
    auto reply = control(RequestType::Ping);
    if (!reply.isOk())
        return reply.status();
    if (reply.value() != "pong")
        return Status::protocolError("unexpected ping reply");
    return Status::ok();
}

} // namespace core
} // namespace djinn
