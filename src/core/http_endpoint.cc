#include "core/http_endpoint.hh"

#include <sys/socket.h>
#include <unistd.h>

#include <sys/time.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "common/strings.hh"

namespace djinn {
namespace core {

namespace {

const char *const timeoutsName = "djinn_http_timeouts_total";

const char *
statusText(int code)
{
    switch (code) {
      case 200: return "OK";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 408: return "Request Timeout";
      case 503: return "Service Unavailable";
    }
    return "Internal Server Error";
}

/** The Accept header's value in a raw request head ("" if absent;
 * header names are case-insensitive). */
std::string
acceptHeader(const std::string &head)
{
    size_t at = toLower(head).find("\naccept:");
    if (at == std::string::npos)
        return std::string();
    at += std::strlen("\naccept:");
    return std::string(trim(head.substr(at, head.find('\n', at) - at)));
}

} // namespace

HttpEndpoint::HttpEndpoint(const DebugRoutes &routes)
    : routes_(routes)
{}

Status
HttpEndpoint::start(const std::string &bind_address, uint16_t port)
{
    // Scrapes are short and rare; serve them serially on the
    // acceptor so there is no connection-thread bookkeeping.
    Status s = listener_.start(
        bind_address, port, 16, *routes_.sources().metrics,
        [this](int fd) {
            serveConnection(fd);
            ::shutdown(fd, SHUT_RDWR);
            ::close(fd);
        });
    if (!s.isOk())
        return s;
    inform("HTTP scrape endpoint on %s:%u", bind_address.c_str(),
           listener_.port());
    return Status::ok();
}

int
HttpEndpoint::handle(const std::string &target,
                     std::string &content_type, std::string &body,
                     const std::string &accept) const
{
    DebugReply reply = routes_.http(target, accept);
    content_type = std::move(reply.contentType);
    body = std::move(reply.body);
    return reply.status;
}

void
HttpEndpoint::serveConnection(int fd)
{
    // The endpoint is single-threaded, so a scraper that trickles
    // or stalls its request would block every later scrape
    // (slowloris). Kernel socket timeouts bound each read and
    // write; expiry is answered with 408.
    if (ioTimeoutSeconds_ > 0.0) {
        timeval tv{};
        tv.tv_sec = static_cast<time_t>(ioTimeoutSeconds_);
        tv.tv_usec = static_cast<suseconds_t>(
            std::lround((ioTimeoutSeconds_ - tv.tv_sec) * 1e6));
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }

    // Read until the end of the request head; scrape requests have
    // no body.
    bool timed_out = false;
    std::string head;
    char buf[2048];
    while (head.find("\r\n\r\n") == std::string::npos &&
           head.size() < 64 * 1024) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                // SO_RCVTIMEO expired: the client stalled.
                timed_out = true;
                break;
            }
            return;
        }
        if (n == 0)
            break;
        head.append(buf, static_cast<size_t>(n));
    }
    int code;
    std::string content_type = "text/plain; charset=utf-8";
    std::string body;
    std::vector<std::string> parts =
        split(head.substr(0, head.find("\r\n")), ' ');
    if (timed_out) {
        routes_.sources().metrics->counter(timeoutsName).inc();
        code = 408;
        body = "request timed out\n";
    } else if (parts.size() < 2) {
        code = 400;
        body = "malformed request line\n";
    } else if (parts[0] != "GET") {
        code = 405;
        body = "only GET is supported\n";
    } else {
        code = handle(parts[1], content_type, body,
                      acceptHeader(head));
    }

    std::string response = strprintf(
        "HTTP/1.0 %d %s\r\n"
        "Content-Type: %s\r\n"
        "Content-Length: %zu\r\n"
        "Connection: close\r\n"
        "\r\n",
        code, statusText(code), content_type.c_str(), body.size());
    response += body;

    size_t sent = 0;
    while (sent < response.size()) {
        ssize_t n = ::send(fd, response.data() + sent,
                           response.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                // SO_SNDTIMEO expired: the client stopped reading
                // its response. Drop it rather than stall scrapes.
                routes_.sources().metrics->counter(timeoutsName).inc();
            }
            return;
        }
        sent += static_cast<size_t>(n);
    }
}

} // namespace core
} // namespace djinn
