/**
 * @file
 * A minimal embedded HTTP scrape endpoint so standard tooling can
 * observe a DjiNN server without speaking the wire protocol. Every
 * GET is dispatched through the debug-route table
 * (core/debug_routes.hh; the routes, their parameters, bounds and
 * error statuses are tabulated in DESIGN.md §15): /healthz,
 * /metrics, /trace, /profile, /debug/tail, /debug/flight and
 * /debug/timeseries.
 *
 * The endpoint serves one connection at a time with HTTP/1.0
 * close-after-response semantics, which is all scrapers and
 * `curl` need; it is not a general web server.
 */

#ifndef DJINN_CORE_HTTP_ENDPOINT_HH
#define DJINN_CORE_HTTP_ENDPOINT_HH

#include <cstdint>
#include <string>

#include "common/status.hh"
#include "core/debug_routes.hh"
#include "core/protocol.hh"

namespace djinn {
namespace core {

/** Embedded observability HTTP server (see file comment). */
class HttpEndpoint
{
  public:
    /**
     * @param routes the route table and the sources it renders
     *        from (copied; the sources must outlive the endpoint).
     *        The endpoint counts its own I/O timeouts in the
     *        sources' registry, as `djinn_http_timeouts_total`.
     */
    explicit HttpEndpoint(const DebugRoutes &routes);

    HttpEndpoint(const HttpEndpoint &) = delete;
    HttpEndpoint &operator=(const HttpEndpoint &) = delete;

    /**
     * Bind and start serving.
     *
     * @param bind_address IPv4 address to bind.
     * @param port TCP port; 0 picks an ephemeral port.
     */
    Status start(const std::string &bind_address, uint16_t port);

    /** Stop serving and join the acceptor thread. Idempotent;
     * destruction stops too. */
    void stop() { listener_.stop(); }

    /** The bound TCP port (valid after start()). */
    uint16_t port() const { return listener_.port(); }

    /** True while the endpoint is accepting connections. */
    bool running() const { return listener_.running(); }

    /**
     * Per-connection socket I/O timeout, seconds (SO_RCVTIMEO /
     * SO_SNDTIMEO on accepted fds). A scraper that stalls its
     * request gets 408 instead of parking the single-threaded
     * acceptor forever (slowloris). Call before start(); <= 0
     * disables. Default 5 seconds.
     */
    void setIoTimeout(double seconds)
    {
        ioTimeoutSeconds_ = seconds;
    }

    /**
     * Dispatch one already-parsed request; exposed for tests.
     *
     * @param target the request target, e.g. "/trace?last=10".
     * @param content_type out: the response content type.
     * @param body out: the response body.
     * @param accept the request's Accept header value (may be
     *        empty): `application/openmetrics-text` selects the
     *        exemplar-bearing OpenMetrics rendering of /metrics.
     * @return the HTTP status code.
     */
    int handle(const std::string &target, std::string &content_type,
               std::string &body,
               const std::string &accept = std::string()) const;

  private:
    /** Answer one accepted scrape connection. */
    void serveConnection(int fd);

    const DebugRoutes routes_;

    double ioTimeoutSeconds_ = 5.0;
    /** Last, so it stops before the routes it serves go away. */
    TcpListener listener_;
};

} // namespace core
} // namespace djinn

#endif // DJINN_CORE_HTTP_ENDPOINT_HH
