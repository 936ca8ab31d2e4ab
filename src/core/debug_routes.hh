/**
 * @file
 * The one table of debug views, served by both observability
 * surfaces: the embedded HTTP endpoint (GET path?query) and the
 * `Metrics` wire verb (format "verb:field:..."). A route declares
 * its wire verb and HTTP path (a view only one surface offers has
 * only that one), its parameters, and one renderer; a parameter
 * is declared once and one strict parser reads it for both
 * surfaces. Routes, bounds and error statuses are tabulated in
 * DESIGN.md §15 "Debug routes".
 */

#ifndef DJINN_CORE_DEBUG_ROUTES_HH
#define DJINN_CORE_DEBUG_ROUTES_HH

#include <string>
#include <vector>

#include "core/protocol.hh"
#include "serve/scheduler.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/health.hh"
#include "telemetry/metrics.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/tracer.hh"

namespace djinn {
namespace core {

/**
 * What the routes render from; all must outlive the routes.
 * metrics and tracer are required. A null optional source makes
 * its routes answer "missing subsystem" (HTTP 503, wire
 * ServerError).
 */
struct DebugSources {
    /** Non-const: the HTTP endpoint counts its I/O timeouts here. */
    telemetry::MetricRegistry *metrics = nullptr;
    const telemetry::Tracer *tracer = nullptr;
    const telemetry::FlightRecorder *flight = nullptr;
    /** Also the trace's counter tracks; null leaves it spans only. */
    const telemetry::TimeSeriesStore *timeseries = nullptr;
    const telemetry::HealthMonitor *health = nullptr;
    const serve::AdaptiveScheduler *scheduler = nullptr;
    /** Start on the trace clock, seconds; negative omits uptime. */
    double startTraceSeconds = -1.0;
};

/** One declared route parameter. */
struct DebugParam {
    enum class Kind {
        Text, ///< any string
        Int,  ///< decimal integer (parseInt)
        Real, ///< decimal number (parseDouble)
        Hex,  ///< 1-16 hex digits: no sign, prefix or space
    };

    const char *name = nullptr; ///< HTTP query key
    Kind kind = Kind::Text;
    double lo = 0.0;     ///< numeric bounds (Int, Real)
    double hi = 0.0;
    bool loOpen = false; ///< an open end excludes the bound itself
    bool hiOpen = false;
    double fallback = 0.0; ///< value when absent or empty
    bool required = false; ///< absence is a 400, not the fallback

    /** Takes a wire field; a route's wire params bind to the
     * ':'-fields in declaration order. */
    bool wire = false;
};

/** A request's parsed parameters, by name (debug_routes.cc). */
struct DebugArgs;

/** A route's answer in HTTP terms; a failure carries its message
 * in `error` instead of a body, and each surface formats it. */
struct DebugReply {
    int status = 200;
    std::string contentType;
    std::string body;
    std::string error;
};

/** One row of the table. */
struct DebugRoute {
    const char *verb; ///< Metrics wire verb (lower case); null: HTTP only
    const char *path; ///< HTTP path; null: wire only
    std::vector<DebugParam> params;
    DebugReply (*render)(const DebugSources &, const DebugArgs &);
};

/** The route table bound to the sources it renders from. */
class DebugRoutes
{
  public:
    explicit DebugRoutes(const DebugSources &sources)
        : sources_(sources)
    {}

    /** Every route, in documentation order. */
    static const std::vector<DebugRoute> &table();

    /** Serve an HTTP target; unknown paths answer 404, and every
     * error body is `{"error": ..., "status": N}`. */
    DebugReply http(const std::string &target,
                    const std::string &accept = std::string()) const;

    /**
     * Serve a wire format (verb case-insensitive, empty means
     * "prometheus"). Unknown verbs and surplus fields are
     * BadRequest; other failures map 400/404 -> BadRequest, else
     * ServerError, with the message as plain text.
     */
    Response wire(const std::string &format) const;

    const DebugSources &sources() const { return sources_; }

  private:
    DebugSources sources_;
};

} // namespace core
} // namespace djinn

#endif // DJINN_CORE_DEBUG_ROUTES_HH
