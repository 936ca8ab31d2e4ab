/**
 * @file
 * The DjiNN wire protocol: a custom framed format over TCP/IP
 * (paper Section 3.1, "Decoupled Architecture").
 *
 * Request frame (version 1):
 *   u32 magic 'DJNR' | u16 version | u16 type | u32 model name len |
 *   name bytes | u32 rows | u64 payload float count | f32 payload[]
 *
 * Request frame (version 2) appends a trace-context block after the
 * payload:
 *   ... f32 payload[] | u64 trace id | u64 span id | u8 trace flags
 *
 * Request frame (version 3) appends a deadline block after the
 * trace-context block:
 *   ... u8 trace flags | u32 deadline budget (milliseconds)
 *
 * Clients emit the lowest version that carries what the request
 * needs: version 2 only when a trace context is attached, version 3
 * only when a deadline budget is attached (the trace block is then
 * always present, all-zero when untraced). Untraced, undeadlined
 * traffic stays byte-identical to version 1 and old servers keep
 * working; servers accept all three versions.
 *
 * Response frame:
 *   u32 magic 'DJNA' | u16 version | u16 status | u32 message len |
 *   message bytes | u64 payload float count | f32 payload[]
 *
 * All integers are little-endian. Payloads are row-major float
 * matrices: `rows` inputs of the model's per-sample element count.
 */

#ifndef DJINN_CORE_PROTOCOL_HH
#define DJINN_CORE_PROTOCOL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hh"
#include "telemetry/trace_context.hh"

namespace djinn {
namespace telemetry {
class Counter;
class MetricRegistry;
} // namespace telemetry

namespace core {

/** Protocol version understood by this implementation. */
constexpr uint16_t protocolVersion = 1;

/** Protocol version carrying a trailing trace-context block. */
constexpr uint16_t protocolVersionTraced = 2;

/** Protocol version carrying trace-context and deadline blocks. */
constexpr uint16_t protocolVersionDeadline = 3;

/** Request frame types. */
enum class RequestType : uint16_t {
    Inference = 1,
    ListModels = 2,
    Ping = 3,
    /** Report a model's input geometry and output width. */
    Describe = 4,
    /** Report per-model service statistics. */
    Stats = 5,

    /**
     * Report the full telemetry exposition. The request's model
     * field selects the format: "" or "prometheus" for the text
     * exposition, "json" for JSON.
     */
    Metrics = 6,
};

/** Response status codes on the wire. */
enum class WireStatus : uint16_t {
    Ok = 0,
    UnknownModel = 1,
    BadRequest = 2,
    ServerError = 3,

    /** Load shed: admission refused (queue full or draining). The
     * request was NOT executed; retrying after backoff is safe. */
    Overloaded = 4,

    /** The request's deadline budget expired before the forward
     * pass ran; the request was shed without being executed. */
    DeadlineExceeded = 5,
};

/** A parsed request frame. */
struct Request {
    RequestType type = RequestType::Ping;

    /** Target model name (inference requests). */
    std::string model;

    /** Number of input rows in the payload. */
    uint32_t rows = 0;

    /** Flat row-major input data. */
    std::vector<float> payload;

    /**
     * Distributed trace context. When valid() the request encodes
     * as version 2 with a trailing trace block; otherwise the
     * frame is byte-identical to version 1.
     */
    telemetry::TraceContext trace;

    /**
     * Per-request deadline budget in milliseconds; 0 means no
     * deadline. Non-zero budgets encode as version 3. The budget is
     * relative (a duration, not a wall-clock instant) so client and
     * server clocks need not agree; the server anchors it at frame
     * arrival and sheds the request once the budget expires.
     */
    uint32_t deadlineMs = 0;
};

/** A parsed response frame. */
struct Response {
    WireStatus status = WireStatus::Ok;

    /** Error text or model listing. */
    std::string message;

    /** Flat row-major output data. */
    std::vector<float> payload;
};

/** Serialize a request into wire bytes. */
std::vector<uint8_t> encodeRequest(const Request &request);

/** Serialize a response into wire bytes. */
std::vector<uint8_t> encodeResponse(const Response &response);

/**
 * Why bytes off the wire failed to parse: the `reason` label of
 * djinn_protocol_errors. A ProtocolError from FrameIo::readFrame(),
 * decodeRequest() or decodeResponse() carries it as its
 * Status::detail().
 */
enum class ProtocolFault {
    Malformed,     ///< a field holds a value the protocol forbids
    Truncated,     ///< the bytes end inside the frame or a field
    Oversize,      ///< a length prefix over the reader's cap
    TrailingBytes, ///< bytes after a complete request or response
};

/** "malformed", "truncated", "oversize" or "trailing_bytes". */
const char *protocolFaultName(ProtocolFault fault);

/** The fault @p status carries; Malformed for a status the wire
 * codec did not make. */
ProtocolFault protocolFaultOf(const Status &status);

/**
 * Parse a request frame from a complete buffer.
 *
 * @param data frame bytes (exactly one frame).
 * @return the request, or a ProtocolError status carrying its
 *         ProtocolFault.
 */
Result<Request> decodeRequest(const std::vector<uint8_t> &data);

/** Parse a response frame from a complete buffer. */
Result<Response> decodeResponse(const std::vector<uint8_t> &data);

/**
 * The wire status an operation's @p code answers with. Admission
 * and deadline sheds keep their own statuses so clients
 * can tell "retry after backoff" (Overloaded — never executed) from
 * a genuine failure.
 */
WireStatus wireStatusOf(StatusCode code);

/** The inverse of wireStatusOf: the Status a client reports for
 * @p response (ok for WireStatus::Ok, the message otherwise). */
Status statusOf(const Response &response);

/**
 * A listening IPv4 TCP socket (SO_REUSEADDR) and its acceptor
 * thread: the one accept loop behind both the DjiNN port and the
 * HTTP scrape port. A transient accept() failure (fd exhaustion, a
 * connection that died in the backlog, memory pressure) is counted
 * and retried after a short backoff instead of ending the loop: a
 * dead acceptor would strand the backlog behind a port that looks
 * healthy but never answers again.
 */
class TcpListener
{
  public:
    /** Takes over one accepted fd (TCP_NODELAY set). Runs on the
     * acceptor thread. */
    using Handler = std::function<void(int fd)>;

    TcpListener() = default;
    ~TcpListener() { stop(); }
    TcpListener(const TcpListener &) = delete;
    TcpListener &operator=(const TcpListener &) = delete;

    /**
     * Bind @p address:@p port (0 picks an ephemeral port), listen,
     * and accept into @p handler; every failed accept() counts in
     * @p metrics' `djinn_accept_errors`, shared by a server's
     * listeners. @p metrics must outlive the listener.
     */
    Status start(const std::string &address, uint16_t port,
                 int backlog, telemetry::MetricRegistry &metrics,
                 Handler handler);

    /** Stop accepting: shut the socket down, join the acceptor,
     * then close the socket. Idempotent: true only for the call
     * that stopped a running listener. */
    bool stop();

    /** The bound TCP port (valid after start()). */
    uint16_t port() const { return port_; }

    /** True between start() and stop(). */
    bool running() const { return running_.load(); }

  private:
    void acceptLoop();

    Handler handler_;
    telemetry::Counter *acceptErrors_ = nullptr;
    int fd_ = -1;
    uint16_t port_ = 0;
    std::atomic<bool> running_{false};
    std::thread acceptor_;
};

/**
 * Blocking framed I/O over a connected stream socket. Frames on
 * the wire are preceded by a u32 byte length. Writes use
 * MSG_NOSIGNAL so a hung-up peer surfaces as an IoError instead of
 * SIGPIPE.
 *
 * Timeouts are enforced with poll() so a stalled peer can never
 * park the calling thread forever:
 *  - the transfer timeout bounds one whole frame transfer, armed
 *    at the first byte for reads (an idle connection that has sent
 *    nothing is not "stalled") and at call entry for writes;
 *  - the idle timeout additionally bounds the wait for a frame's
 *    first byte (clients use it as the request round-trip bound;
 *    servers leave it off so keep-alive connections may idle).
 * Expiry surfaces as StatusCode::DeadlineExceeded.
 */
class FrameIo
{
  public:
    /** @param fd an open, connected stream socket. */
    explicit FrameIo(int fd) : fd_(fd) {}

    /**
     * Bound one frame transfer (see class comment) to
     * @p seconds; <= 0 restores fully blocking behaviour.
     */
    void setTimeout(double seconds) { timeout_ = seconds; }

    /**
     * Bound the wait for a frame's first byte to @p seconds;
     * <= 0 (the default) waits indefinitely.
     */
    void setIdleTimeout(double seconds) { idleTimeout_ = seconds; }

    /** Inject faults on this stream (core/fault.hh bitmask). */
    void setFaults(uint32_t mask) { faults_ = mask; }

    /** Write one length-prefixed frame. */
    Status writeFrame(const std::vector<uint8_t> &frame);

    /**
     * Read one length-prefixed frame.
     *
     * @param max_bytes reject frames larger than this.
     *
     * On failure the status code distinguishes: ProtocolError for
     * an oversized or truncated frame (the peer closed mid-frame;
     * its ProtocolFault tells which),
     * DeadlineExceeded for a timeout, IoError for a clean close
     * before any byte of the frame or a socket error.
     */
    Result<std::vector<uint8_t>> readFrame(
        uint32_t max_bytes = 256u << 20);

    /**
     * Wall seconds the last successful readFrame() spent ingesting
     * its frame, measured from the first byte (the same instant
     * that arms the transfer timeout) to frame completion. Feeds
     * the flight recorder's `read` phase, where a trickling peer
     * (e.g. the slow-read fault) shows up as tail latency that no
     * server-side phase explains.
     */
    double lastReadSeconds() const { return lastReadSeconds_; }

  private:
    int fd_;
    double timeout_ = 0.0;
    double idleTimeout_ = 0.0;
    uint32_t faults_ = 0;
    double lastReadSeconds_ = 0.0;
};

} // namespace core
} // namespace djinn

#endif // DJINN_CORE_PROTOCOL_HH
