/**
 * @file
 * Lightweight Status / Result error-handling types for recoverable
 * errors on I/O and protocol boundaries. Internal invariants use
 * panic(); user configuration errors use fatal().
 */

#ifndef DJINN_COMMON_STATUS_HH
#define DJINN_COMMON_STATUS_HH

#include <string>
#include <utility>
#include <variant>

#include "common/logging.hh"

namespace djinn {

/** Machine-readable category of a Status. */
enum class StatusCode {
    Ok,
    InvalidArgument,
    NotFound,
    Unavailable,
    Internal,
    ProtocolError,
    IoError,

    /** Load was shed: queue full, admission refused, or draining. */
    Overloaded,

    /** A deadline or I/O timeout expired before completion. */
    DeadlineExceeded,
};

/** Printable name of a status code. */
const char *statusCodeName(StatusCode code);

/**
 * A success-or-error value. Cheap to copy on the success path (no
 * allocation when ok).
 */
class Status
{
  public:
    /** Construct an OK status. */
    Status() = default;

    /** Construct an error status with a message and a
     * code-specific @p detail (see detail()). */
    Status(StatusCode code, std::string message, int detail = 0)
        : code_(code), message_(std::move(message)), detail_(detail)
    {}

    /** Factory for an OK status. */
    static Status ok() { return Status(); }

    /** Factory for an InvalidArgument error. */
    static Status
    invalidArgument(std::string msg)
    {
        return Status(StatusCode::InvalidArgument, std::move(msg));
    }

    /** Factory for a NotFound error. */
    static Status
    notFound(std::string msg)
    {
        return Status(StatusCode::NotFound, std::move(msg));
    }

    /** Factory for an Unavailable error. */
    static Status
    unavailable(std::string msg)
    {
        return Status(StatusCode::Unavailable, std::move(msg));
    }

    /** Factory for an Internal error. */
    static Status
    internal(std::string msg)
    {
        return Status(StatusCode::Internal, std::move(msg));
    }

    /** Factory for a ProtocolError; @p detail as for detail(). */
    static Status
    protocolError(std::string msg, int detail = 0)
    {
        return Status(StatusCode::ProtocolError, std::move(msg),
                      detail);
    }

    /** Factory for an IoError. */
    static Status
    ioError(std::string msg)
    {
        return Status(StatusCode::IoError, std::move(msg));
    }

    /** Factory for an Overloaded error. */
    static Status
    overloaded(std::string msg)
    {
        return Status(StatusCode::Overloaded, std::move(msg));
    }

    /** Factory for a DeadlineExceeded error. */
    static Status
    deadlineExceeded(std::string msg)
    {
        return Status(StatusCode::DeadlineExceeded, std::move(msg));
    }

    /** True when this status represents success. */
    bool isOk() const { return code_ == StatusCode::Ok; }

    /** The status category. */
    StatusCode code() const { return code_; }

    /** Human-readable error message; empty when ok. */
    const std::string &message() const { return message_; }

    /** A machine-readable refinement of code() that its producer
     * defines (a wire ProtocolError's core::ProtocolFault, say);
     * 0 when none. */
    int detail() const { return detail_; }

    /** "OK" or "<Code>: <message>". */
    std::string toString() const;

  private:
    StatusCode code_ = StatusCode::Ok;
    std::string message_;
    int detail_ = 0;
};

/**
 * A value or an error Status. Use on fallible boundaries (parsing,
 * sockets) where throwing is inappropriate.
 */
template <typename T>
class Result
{
  public:
    /** Construct from a success value. */
    Result(T value) : data_(std::move(value)) {}

    /** Construct from an error status; must not be OK. */
    Result(Status status) : data_(std::move(status))
    {
        if (std::get<Status>(data_).isOk())
            panic("Result constructed from OK status");
    }

    /** True when a value is held. */
    bool isOk() const { return std::holds_alternative<T>(data_); }

    /** The error status, or OK when a value is held. */
    Status
    status() const
    {
        if (isOk())
            return Status::ok();
        return std::get<Status>(data_);
    }

    /** Access the value; panics if this holds an error. */
    const T &
    value() const
    {
        if (!isOk())
            panic("Result::value() on error: %s",
                  std::get<Status>(data_).toString().c_str());
        return std::get<T>(data_);
    }

    /** Mutable access to the value; panics if this holds an
     * error. */
    T &
    value()
    {
        if (!isOk())
            panic("Result::value() on error: %s",
                  std::get<Status>(data_).toString().c_str());
        return std::get<T>(data_);
    }

    /** Move the value out; panics if this holds an error. */
    T &&
    takeValue()
    {
        if (!isOk())
            panic("Result::takeValue() on error: %s",
                  std::get<Status>(data_).toString().c_str());
        return std::move(std::get<T>(data_));
    }

  private:
    std::variant<T, Status> data_;
};

} // namespace djinn

#endif // DJINN_COMMON_STATUS_HH
