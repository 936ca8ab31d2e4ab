#include "core/protocol.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "core/fault.hh"
#include "telemetry/metrics.hh"

namespace djinn {
namespace core {

namespace {

constexpr uint32_t requestMagic = 0x444a4e52;  // 'DJNR'
constexpr uint32_t responseMagic = 0x444a4e41; // 'DJNA'

void
putU16(std::vector<uint8_t> &out, uint16_t v)
{
    out.push_back(static_cast<uint8_t>(v & 0xff));
    out.push_back(static_cast<uint8_t>(v >> 8));
}

void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
}

void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
}

void
putBytes(std::vector<uint8_t> &out, const void *data, size_t len)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    out.insert(out.end(), p, p + len);
}

/** Bounds-checked little-endian reader over a byte buffer. */
class Reader
{
  public:
    explicit Reader(const std::vector<uint8_t> &data) : data_(data) {}

    bool
    u8(uint8_t &v)
    {
        if (pos_ + 1 > data_.size())
            return false;
        v = data_[pos_];
        pos_ += 1;
        return true;
    }

    bool
    u16(uint16_t &v)
    {
        if (pos_ + 2 > data_.size())
            return false;
        v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
        pos_ += 2;
        return true;
    }

    bool
    u32(uint32_t &v)
    {
        if (pos_ + 4 > data_.size())
            return false;
        v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 4;
        return true;
    }

    bool
    u64(uint64_t &v)
    {
        if (pos_ + 8 > data_.size())
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 8;
        return true;
    }

    bool
    str(std::string &out, size_t len)
    {
        if (pos_ + len > data_.size())
            return false;
        out.assign(reinterpret_cast<const char *>(&data_[pos_]), len);
        pos_ += len;
        return true;
    }

    bool
    floats(std::vector<float> &out, size_t count)
    {
        size_t bytes = count * sizeof(float);
        if (pos_ + bytes > data_.size())
            return false;
        out.resize(count);
        if (count)
            std::memcpy(out.data(), &data_[pos_], bytes);
        pos_ += bytes;
        return true;
    }

    bool atEnd() const { return pos_ == data_.size(); }

  private:
    const std::vector<uint8_t> &data_;
    size_t pos_ = 0;
};

/** A ProtocolError carrying @p fault. */
Status
faultStatus(ProtocolFault fault, const char *message)
{
    return Status::protocolError(message, static_cast<int>(fault));
}

} // namespace

const char *
protocolFaultName(ProtocolFault fault)
{
    switch (fault) {
      case ProtocolFault::Truncated:
        return "truncated";
      case ProtocolFault::Oversize:
        return "oversize";
      case ProtocolFault::TrailingBytes:
        return "trailing_bytes";
      case ProtocolFault::Malformed:
        break;
    }
    return "malformed";
}

ProtocolFault
protocolFaultOf(const Status &status)
{
    const int fault = status.detail();
    if (status.code() != StatusCode::ProtocolError || fault < 0 ||
        fault > static_cast<int>(ProtocolFault::TrailingBytes))
        return ProtocolFault::Malformed;
    return static_cast<ProtocolFault>(fault);
}

std::vector<uint8_t>
encodeRequest(const Request &request)
{
    std::vector<uint8_t> out;
    bool traced = request.trace.valid();
    bool deadlined = request.deadlineMs > 0;
    uint16_t version = deadlined ? protocolVersionDeadline
                       : traced  ? protocolVersionTraced
                                 : protocolVersion;
    out.reserve(45 + request.model.size() +
                request.payload.size() * sizeof(float));
    putU32(out, requestMagic);
    putU16(out, version);
    putU16(out, static_cast<uint16_t>(request.type));
    putU32(out, static_cast<uint32_t>(request.model.size()));
    putBytes(out, request.model.data(), request.model.size());
    putU32(out, request.rows);
    putU64(out, request.payload.size());
    putBytes(out, request.payload.data(),
             request.payload.size() * sizeof(float));
    if (traced || deadlined) {
        // The v3 frame always carries the trace block (all-zero
        // when untraced) so the deadline block sits at a fixed
        // offset from the payload.
        putU64(out, request.trace.traceId);
        putU64(out, request.trace.spanId);
        out.push_back(request.trace.flags);
    }
    if (deadlined)
        putU32(out, request.deadlineMs);
    return out;
}

std::vector<uint8_t>
encodeResponse(const Response &response)
{
    std::vector<uint8_t> out;
    out.reserve(20 + response.message.size() +
                response.payload.size() * sizeof(float));
    putU32(out, responseMagic);
    putU16(out, protocolVersion);
    putU16(out, static_cast<uint16_t>(response.status));
    putU32(out, static_cast<uint32_t>(response.message.size()));
    putBytes(out, response.message.data(), response.message.size());
    putU64(out, response.payload.size());
    putBytes(out, response.payload.data(),
             response.payload.size() * sizeof(float));
    return out;
}

Result<Request>
decodeRequest(const std::vector<uint8_t> &data)
{
    Reader r(data);
    uint32_t magic;
    uint16_t version, type;
    if (!r.u32(magic) || magic != requestMagic)
        return Status::protocolError("bad request magic");
    if (!r.u16(version) ||
        (version != protocolVersion &&
         version != protocolVersionTraced &&
         version != protocolVersionDeadline))
        return Status::protocolError("unsupported protocol version");
    if (!r.u16(type))
        return faultStatus(ProtocolFault::Truncated,
                           "truncated request header");
    Request request;
    switch (type) {
      case static_cast<uint16_t>(RequestType::Inference):
      case static_cast<uint16_t>(RequestType::ListModels):
      case static_cast<uint16_t>(RequestType::Ping):
      case static_cast<uint16_t>(RequestType::Describe):
      case static_cast<uint16_t>(RequestType::Stats):
      case static_cast<uint16_t>(RequestType::Metrics):
        request.type = static_cast<RequestType>(type);
        break;
      default:
        return Status::protocolError("unknown request type");
    }
    uint32_t name_len;
    if (!r.u32(name_len) || name_len > 4096)
        return Status::protocolError("bad model name length");
    if (!r.str(request.model, name_len))
        return faultStatus(ProtocolFault::Truncated,
                           "truncated model name");
    uint64_t count;
    if (!r.u32(request.rows) || !r.u64(count))
        return faultStatus(ProtocolFault::Truncated,
                           "truncated request payload header");
    if (!r.floats(request.payload, count))
        return faultStatus(ProtocolFault::Truncated,
                           "truncated request payload");
    if (version >= protocolVersionTraced) {
        if (!r.u64(request.trace.traceId) ||
            !r.u64(request.trace.spanId) ||
            !r.u8(request.trace.flags))
            return faultStatus(ProtocolFault::Truncated,
                               "truncated trace context");
    }
    if (version >= protocolVersionDeadline) {
        if (!r.u32(request.deadlineMs))
            return faultStatus(ProtocolFault::Truncated,
                               "truncated deadline block");
    }
    if (!r.atEnd())
        return faultStatus(ProtocolFault::TrailingBytes,
                           "trailing bytes after request");
    return request;
}

Result<Response>
decodeResponse(const std::vector<uint8_t> &data)
{
    Reader r(data);
    uint32_t magic;
    uint16_t version, status;
    if (!r.u32(magic) || magic != responseMagic)
        return Status::protocolError("bad response magic");
    if (!r.u16(version) || version != protocolVersion)
        return Status::protocolError("unsupported protocol version");
    if (!r.u16(status) ||
        status > static_cast<uint16_t>(WireStatus::DeadlineExceeded))
        return Status::protocolError("bad response status");
    Response response;
    response.status = static_cast<WireStatus>(status);
    uint32_t msg_len;
    if (!r.u32(msg_len) || msg_len > 1u << 20)
        return Status::protocolError("bad response message length");
    if (!r.str(response.message, msg_len))
        return faultStatus(ProtocolFault::Truncated,
                           "truncated response message");
    uint64_t count;
    if (!r.u64(count))
        return faultStatus(ProtocolFault::Truncated,
                           "truncated response payload header");
    if (!r.floats(response.payload, count))
        return faultStatus(ProtocolFault::Truncated,
                           "truncated response payload");
    if (!r.atEnd())
        return faultStatus(ProtocolFault::TrailingBytes,
                           "trailing bytes after response");
    return response;
}

namespace {

/** The one status mapping, read in both directions; any other code
 * answers ServerError, which reads back as Internal. */
constexpr std::pair<StatusCode, WireStatus> statusPairs[] = {
    {StatusCode::Ok, WireStatus::Ok},
    {StatusCode::NotFound, WireStatus::UnknownModel},
    {StatusCode::InvalidArgument, WireStatus::BadRequest},
    {StatusCode::Overloaded, WireStatus::Overloaded},
    {StatusCode::DeadlineExceeded, WireStatus::DeadlineExceeded},
};

} // namespace

WireStatus
wireStatusOf(StatusCode code)
{
    for (const auto &[status, wire] : statusPairs) {
        if (status == code)
            return wire;
    }
    return WireStatus::ServerError;
}

Status
statusOf(const Response &response)
{
    for (const auto &[status, wire] : statusPairs) {
        if (wire == response.status)
            return Status(status, response.message);
    }
    return Status::internal(response.message);
}

Status
TcpListener::start(const std::string &address, uint16_t port,
                   int backlog, telemetry::MetricRegistry &metrics,
                   Handler handler)
{
    if (running_.load())
        return Status::invalidArgument("listener already running");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1)
        return Status::invalidArgument("bad bind address '" + address +
                                       "'");
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return Status::ioError(std::string("socket: ") +
                               std::strerror(errno));
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    const char *failed = nullptr;
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0)
        failed = "bind: ";
    else if (::listen(fd, backlog) < 0)
        failed = "listen: ";
    if (failed) {
        Status s = Status::ioError(failed + std::string(
                                                std::strerror(errno)));
        ::close(fd);
        return s;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                      &len) == 0)
        port_ = ntohs(addr.sin_port);
    fd_ = fd;
    acceptErrors_ = &metrics.counter("djinn_accept_errors");
    handler_ = std::move(handler);
    running_.store(true);
    acceptor_ = std::thread([this]() { acceptLoop(); });
    return Status::ok();
}

bool
TcpListener::stop()
{
    if (!running_.exchange(false))
        return false;
    // Shutting the socket down unblocks accept(). The fd is closed
    // only after the acceptor has been joined: closing it first
    // would let the kernel reuse the number for a connection socket
    // while accept() may still reference it.
    ::shutdown(fd_, SHUT_RDWR);
    acceptor_.join();
    ::close(fd_);
    fd_ = -1;
    return true;
}

void
TcpListener::acceptLoop()
{
    while (running_.load()) {
        int fd = ::accept(fd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (!running_.load())
                break; // Socket shut down by stop().
            int err = errno;
            acceptErrors_->inc();
            // Transient resource exhaustion, or a connection that
            // died in the backlog.
            if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
                err == ENOMEM || err == ECONNABORTED || err == EAGAIN ||
                err == EWOULDBLOCK || err == EPROTO) {
                // Back off so a full fd table is not a busy loop.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                continue;
            }
            inform("accept: %s; acceptor exiting", std::strerror(err));
            break;
        }
        if (!running_.load()) {
            // Accepted in the window between stop() flipping
            // running_ and the shutdown taking effect: drop it here
            // instead of handing on a connection nobody will stop.
            ::shutdown(fd, SHUT_RDWR);
            ::close(fd);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        handler_(fd);
    }
}

namespace {

/**
 * Wait for @p events on @p fd for up to @p seconds (negative waits
 * indefinitely). DeadlineExceeded on expiry.
 */
Status
waitFd(int fd, short events, double seconds)
{
    for (;;) {
        struct pollfd p;
        p.fd = fd;
        p.events = events;
        p.revents = 0;
        int timeout_ms =
            seconds < 0.0
                ? -1
                : static_cast<int>(std::ceil(seconds * 1e3));
        int n = ::poll(&p, 1, timeout_ms);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return Status::ioError(std::string("poll: ") +
                                   std::strerror(errno));
        }
        if (n == 0)
            return Status::deadlineExceeded("I/O timeout");
        return Status::ok();
    }
}

} // namespace

Status
FrameIo::writeFrame(const std::vector<uint8_t> &frame)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    uint8_t header[4];
    uint32_t len = static_cast<uint32_t>(frame.size());
    for (int i = 0; i < 4; ++i)
        header[i] = static_cast<uint8_t>((len >> (8 * i)) & 0xff);

    // The transfer timeout bounds the whole frame write, armed at
    // call entry: a peer that stops draining its receive window
    // cannot park this thread past the budget.
    auto write_all = [&](const uint8_t *data,
                         size_t size) -> Status {
        size_t sent = 0;
        while (sent < size) {
            if (timeout_ > 0.0) {
                double remaining =
                    timeout_ - std::chrono::duration<double>(
                                   Clock::now() - start).count();
                if (remaining <= 0.0)
                    return Status::deadlineExceeded(
                        "frame write timed out");
                Status w = waitFd(fd_, POLLOUT, remaining);
                if (!w.isOk())
                    return w.code() == StatusCode::DeadlineExceeded
                               ? Status::deadlineExceeded(
                                     "frame write timed out")
                               : w;
            }
            // MSG_NOSIGNAL: a peer that hung up must surface as
            // EPIPE, not a process-killing SIGPIPE.
            ssize_t n = ::send(fd_, data + sent, size - sent,
                               MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return Status::ioError(
                    std::string("write: ") + std::strerror(errno));
            }
            sent += static_cast<size_t>(n);
        }
        return Status::ok();
    };

    Status s = write_all(header, sizeof(header));
    if (!s.isOk())
        return s;
    if (faults_ & FaultStallAfterHeader) {
        // Leave the peer parked mid-frame: the length prefix
        // promises a body that never comes.
        return Status::ok();
    }
    if (faults_ & FaultMidFrameClose) {
        (void)write_all(frame.data(), frame.size() / 2);
        ::shutdown(fd_, SHUT_RDWR);
        return Status::ioError("fault: closed mid-frame");
    }
    return write_all(frame.data(), frame.size());
}

Result<std::vector<uint8_t>>
FrameIo::readFrame(uint32_t max_bytes)
{
    using Clock = std::chrono::steady_clock;
    // The transfer timeout arms at the frame's first byte: an idle
    // connection is not stalled, but once a peer starts a frame it
    // must deliver the whole thing within the budget (defeats
    // slowloris trickling as well as outright stalls).
    Clock::time_point armed{};
    bool transfer_started = false;

    auto read_all = [&](uint8_t *data, size_t size) -> Status {
        size_t got = 0;
        while (got < size) {
            if (!transfer_started) {
                if (idleTimeout_ > 0.0) {
                    Status w = waitFd(fd_, POLLIN, idleTimeout_);
                    if (!w.isOk())
                        return w.code() ==
                                       StatusCode::DeadlineExceeded
                                   ? Status::deadlineExceeded(
                                         "idle read timed out")
                                   : w;
                }
            } else if (timeout_ > 0.0) {
                double remaining =
                    timeout_ - std::chrono::duration<double>(
                                   Clock::now() - armed).count();
                if (remaining <= 0.0)
                    return Status::deadlineExceeded(
                        "frame read timed out");
                Status w = waitFd(fd_, POLLIN, remaining);
                if (!w.isOk())
                    return w.code() == StatusCode::DeadlineExceeded
                               ? Status::deadlineExceeded(
                                     "frame read timed out")
                               : w;
            }
            size_t want = size - got;
            if (faults_ & FaultSlowRead) {
                want = 1;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            }
            ssize_t n = ::read(fd_, data + got, want);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return Status::ioError(
                    std::string("read: ") + std::strerror(errno));
            }
            if (n == 0) {
                // A close before any byte of the frame is a normal
                // end of stream; a close mid-frame is a truncation
                // the server should count as a protocol error.
                if (transfer_started)
                    return faultStatus(
                        ProtocolFault::Truncated,
                        "truncated frame: peer closed mid-frame");
                return Status::ioError("connection closed");
            }
            if (!transfer_started) {
                transfer_started = true;
                armed = Clock::now();
            }
            got += static_cast<size_t>(n);
        }
        return Status::ok();
    };

    uint8_t header[4];
    Status s = read_all(header, sizeof(header));
    if (!s.isOk())
        return s;
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= static_cast<uint32_t>(header[i]) << (8 * i);
    if (len > max_bytes)
        return faultStatus(ProtocolFault::Oversize, "frame too large");
    std::vector<uint8_t> frame(len);
    if (len) {
        s = read_all(frame.data(), len);
        if (!s.isOk())
            return s;
    }
    lastReadSeconds_ =
        transfer_started
            ? std::chrono::duration<double>(Clock::now() - armed)
                  .count()
            : 0.0;
    return frame;
}

} // namespace core
} // namespace djinn
