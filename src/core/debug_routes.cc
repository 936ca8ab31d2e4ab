#include "core/debug_routes.hh"

#include <charconv>
#include <cmath>
#include <limits>
#include <map>

#include "common/strings.hh"
#include "telemetry/attribution.hh"
#include "telemetry/dashboard.hh"
#include "telemetry/exposition.hh"
#include "telemetry/profiler.hh"

namespace djinn {
namespace core {

struct DebugArgs {
    struct Arg {
        bool given = false;
        std::string text;     ///< Text
        double number = 0.0;  ///< Int, Real
        uint64_t integer = 0; ///< Int (bounds are non-negative), Hex
    };
    std::map<std::string, Arg> values; ///< every declared param
    std::string accept; ///< HTTP Accept header (empty on the wire)

    const Arg &
    operator[](const std::string &name) const
    {
        return values.at(name);
    }
};

namespace {

using Kind = DebugParam::Kind;

const char *const textType = "text/plain; charset=utf-8";
const char *const jsonType = "application/json";

const char *const noFlight = "no flight recorder attached";
const char *const noStore =
    "time-series store disabled (tracing or sampler off)";

// Every parameter is declared once; routes that share one share
// its parser, bounds and default.
namespace param {
const DebugParam pct{.name = "pct", .kind = Kind::Real, .lo = 0,
                     .hi = 100, .loOpen = true, .hiOpen = true,
                     .fallback = 99, .wire = true};
const DebugParam model{.name = "model"};
// Large enough for any real ring, small enough that a hostile value
// cannot ask for an absurd reservation.
const DebugParam last{.name = "last", .kind = Kind::Int, .lo = 0,
                      .hi = 10 * 1000 * 1000};
const DebugParam seconds{.name = "seconds", .kind = Kind::Int,
                         .lo = 1, .hi = 60, .fallback = 1,
                         .wire = true};
const DebugParam window{.name = "window", .kind = Kind::Real,
                        .lo = 0, .hi = 86400, .loOpen = true,
                        .fallback = 60, .wire = true};
const DebugParam metric{.name = "metric", .required = true,
                        .wire = true};
const DebugParam step{.name = "step", .kind = Kind::Real, .lo = 0,
                      .hi = 86400};
const DebugParam record{.name = "record", .kind = Kind::Int, .lo = 0,
                        .hi = std::numeric_limits<double>::infinity()};
const DebugParam traceId{.name = "trace_id", .kind = Kind::Hex};
} // namespace param

DebugReply
ok(const char *type, std::string body, int status = 200)
{
    return {status, type, std::move(body), ""};
}

DebugReply
fail(int status, std::string message)
{
    return {status, "", "", std::move(message)};
}

/** Parse one present value; false when malformed or out of
 * bounds (NaN fails every comparison). */
bool
parseArg(const DebugParam &p, const std::string &raw,
         DebugArgs::Arg &arg)
{
    arg.given = true;
    switch (p.kind) {
      case Kind::Text:
        arg.text = raw;
        return true;
      case Kind::Hex: {
        // 1-16 hex digits: no sign, prefix, space or saturation.
        auto [end, ec] = std::from_chars(
            raw.data(), raw.data() + raw.size(), arg.integer, 16);
        return raw.size() <= 16 && ec == std::errc() &&
               end == raw.data() + raw.size();
      }
      case Kind::Int: {
        int64_t v = 0;
        if (!parseInt(raw, v))
            return false;
        arg.number = static_cast<double>(v);
        arg.integer = static_cast<uint64_t>(v);
        break;
      }
      case Kind::Real:
        if (!parseDouble(raw, arg.number))
            return false;
        break;
    }
    const double v = arg.number;
    return (p.loOpen ? v > p.lo : v >= p.lo) &&
           (p.hiOpen ? v < p.hi : v <= p.hi);
}

/**
 * Bind @p raw (one value per declared param; empty = absent, which
 * takes the default) and render. Both surfaces end here.
 */
DebugReply
serve(const DebugRoute &route, const DebugSources &sources,
      const std::vector<std::string> &raw, const std::string &accept)
{
    DebugArgs args;
    args.accept = accept;
    for (size_t i = 0; i < route.params.size(); ++i) {
        const DebugParam &p = route.params[i];
        DebugArgs::Arg &arg = args.values[p.name];
        arg.number = p.fallback;
        arg.integer = static_cast<uint64_t>(p.fallback);
        if (raw[i].empty() && p.required)
            return fail(400, strprintf("need '%s' parameter", p.name));
        if (raw[i].empty() || parseArg(p, raw[i], arg))
            continue;
        // Name what the parameter accepts.
        std::string want = "1-16 hex digits";
        if (p.kind != Kind::Hex) {
            want = strprintf("%s%.15g %s %s",
                             p.kind == Kind::Int ? "integer " : "",
                             p.lo, p.loOpen ? "<" : "<=", p.name);
            if (std::isfinite(p.hi))
                want += strprintf(" %s %.15g", p.hiOpen ? "<" : "<=",
                                  p.hi);
        }
        return fail(400, strprintf("bad '%s' parameter (want %s)",
                                   p.name, want.c_str()));
    }
    return route.render(sources, args);
}

/** The value of @p key in an &-joined query string ("" if
 * absent; the first occurrence wins). */
std::string
queryParam(const std::string &query, const std::string &key)
{
    for (const std::string &kv : split(query, '&')) {
        size_t eq = kv.find('=');
        if (eq != std::string::npos && kv.compare(0, eq, key) == 0)
            return kv.substr(eq + 1);
    }
    return std::string();
}

DebugReply
renderMetrics(const DebugSources &src, const DebugArgs &args)
{
    // Content negotiation: a scraper that asks for OpenMetrics gets
    // the exemplar-bearing rendering; everyone else (and the wire)
    // gets the plain Prometheus text unchanged, byte for byte.
    // Media types are case-insensitive (RFC 9110 §8.3.1).
    if (toLower(args.accept).find("application/openmetrics-text") !=
        std::string::npos) {
        return ok(telemetry::openMetricsContentType,
                  telemetry::renderOpenMetrics(src.metrics->snapshot()));
    }
    // The exposition content type Prometheus scrapers expect.
    return ok("text/plain; version=0.0.4; charset=utf-8",
              telemetry::renderPrometheus(src.metrics->snapshot()));
}

/** Tail attribution as text: the fleet's report, then each
 * model's. */
DebugReply
renderTailText(const DebugSources &src, const DebugArgs &args)
{
    if (!src.flight)
        return fail(503, noFlight);
    const double pct = args["pct"].number;
    auto records = src.flight->snapshot();
    std::string out = telemetry::renderTailReport(
        telemetry::attributeTail(records, pct));
    for (const telemetry::TailReport &report :
         telemetry::attributeTailByModel(records, pct))
        out += telemetry::renderTailReport(report);
    return ok(textType, std::move(out));
}

/** Tail attribution as JSON, optionally for one model. */
DebugReply
renderTailJson(const DebugSources &src, const DebugArgs &args)
{
    if (!src.flight)
        return fail(503, noFlight);
    const double pct = args["pct"].number;
    const std::string &model = args["model"].text;
    auto records = src.flight->snapshot();
    std::string body = "{\"fleet\": ";
    body += telemetry::renderTailReportJson(
        telemetry::attributeTail(records, pct, model));
    body += ", \"models\": [";
    bool first = true;
    for (const telemetry::TailReport &report :
         telemetry::attributeTailByModel(records, pct)) {
        if (!model.empty() && report.model != model)
            continue;
        if (!first)
            body += ", ";
        first = false;
        body += telemetry::renderTailReportJson(report);
    }
    body += "]}\n";
    return ok(jsonType, std::move(body));
}

/** One flight record by ring sequence or trace id. */
DebugReply
renderFlight(const DebugSources &src, const DebugArgs &args)
{
    if (!src.flight)
        return fail(503, noFlight);
    telemetry::FlightRecord record;
    bool found = false;
    if (args["record"].given)
        found = src.flight->find(args["record"].integer, record);
    else if (args["trace_id"].given)
        found = src.flight->findByTraceId(args["trace_id"].integer,
                                          record);
    else
        return fail(400, "need 'record' or 'trace_id' parameter");
    if (!found)
        return fail(404, "record not found (evicted or never recorded)");
    return ok(jsonType,
              telemetry::renderFlightRecordJson(record) + "\n");
}

/** The health verdict as JSON; with @p eject, an unhealthy verdict
 * answers 503 (degraded still answers 200: load balancers should
 * only eject a replica that is actually down). */
DebugReply
healthVerdict(const DebugSources &src, bool eject)
{
    const telemetry::HealthVerdict verdict = src.health->evaluateNow();
    double uptime = -1.0;
    if (src.startTraceSeconds >= 0)
        uptime = telemetry::traceNowUs() * 1e-6 - src.startTraceSeconds;
    eject = eject && verdict.level == telemetry::HealthLevel::Unhealthy;
    return ok(jsonType, telemetry::renderHealthJson(verdict, uptime),
              eject ? 503 : 200);
}

DebugReply
renderSeries(const DebugSources &src, const DebugArgs &args)
{
    if (!src.timeseries)
        return fail(503, noStore);
    telemetry::TimeSeriesStore::Window w;
    w.name = args["metric"].text;
    w.seconds = args["window"].number;
    if (src.timeseries->trackIds(w.name).empty())
        return fail(404, "unknown metric '" + w.name + "'");
    return ok(jsonType,
              telemetry::renderTimeSeriesJson(*src.timeseries, w,
                                              args["step"].number) +
                  "\n");
}

} // namespace

const std::vector<DebugRoute> &
DebugRoutes::table()
{
    // Short views render inline; the longer ones are named above.
    static const std::vector<DebugRoute> routes = {
        // verb, HTTP path, params (wire fields in order), render
        {"prometheus", "/metrics", {}, renderMetrics},
        {"json", nullptr, {},
         [](const auto &src, const auto &) {
             return ok(jsonType,
                       telemetry::renderJson(src.metrics->snapshot()));
         }},
        {"trace", "/trace", {param::last},
         [](const auto &src, const auto &args) {
             return ok(jsonType,
                       telemetry::renderChromeTrace(
                           src.tracer->events(args["last"].integer),
                           src.timeseries));
         }},
        {"requests", nullptr, {},
         [](const auto &src, const auto &) {
             if (!src.flight)
                 return fail(503, noFlight);
             return ok(textType, telemetry::renderRequestsCsv(
                                     src.flight->snapshot()));
         }},
        {"tail", nullptr, {param::pct}, renderTailText},
        {nullptr, "/debug/tail", {param::pct, param::model},
         renderTailJson},
        {nullptr, "/debug/flight", {param::record, param::traceId},
         renderFlight},
        {"profile", "/profile", {param::seconds},
         [](const auto &, const auto &args) {
             // Collapsed stacks (flamegraph.pl input).
             auto collapsed = telemetry::Profiler::instance().collect(
                 args["seconds"].number);
             if (!collapsed.isOk())
                 return fail(503, collapsed.status().toString());
             return ok(textType, collapsed.value());
         }},
        {"health", nullptr, {},
         [](const auto &src, const auto &) {
             if (!src.health)
                 return fail(503, "health monitor disabled (tracing "
                                  "or sampler off)");
             return healthVerdict(src, false);
         }},
        {nullptr, "/healthz", {},
         [](const auto &src, const auto &) {
             // No monitor (tracing off): the legacy liveness probe.
             if (!src.health)
                 return ok(textType, "ok\n");
             return healthVerdict(src, true);
         }},
        {"top", nullptr, {param::window},
         [](const auto &src, const auto &args) {
             if (!src.timeseries)
                 return fail(503, noStore);
             return ok(textType,
                       telemetry::renderTopDashboard(
                           *src.timeseries, src.health,
                           args["window"].number));
         }},
        {"sched", nullptr, {},
         [](const auto &src, const auto &) {
             if (!src.scheduler)
                 return fail(503, "adaptive scheduler disabled "
                                  "(--sched adaptive requires "
                                  "--batching)");
             return ok(jsonType, src.scheduler->renderJson());
         }},
        {"series", "/debug/timeseries",
         {param::metric, param::window, param::step}, renderSeries},
    };
    return routes;
}

DebugReply
DebugRoutes::http(const std::string &target,
                  const std::string &accept) const
{
    const size_t qpos = target.find('?');
    const std::string path = target.substr(0, qpos);
    const std::string query =
        qpos == std::string::npos ? "" : target.substr(qpos + 1);
    DebugReply out = fail(404, "not found: " + path);
    for (const DebugRoute &route : table()) {
        if (!route.path || path != route.path)
            continue;
        std::vector<std::string> raw;
        for (const DebugParam &p : route.params)
            raw.push_back(queryParam(query, p.name));
        out = serve(route, sources_, raw, accept);
        break;
    }
    if (!out.error.empty()) {
        // Every error answers the same JSON shape so scripted
        // clients need one parser.
        out.contentType = jsonType;
        out.body = "{\"error\": \"" + telemetry::jsonEscape(out.error) +
                   "\", \"status\": " + std::to_string(out.status) +
                   "}\n";
    }
    return out;
}

Response
DebugRoutes::wire(const std::string &format) const
{
    const std::vector<std::string> fields = split(format, ':');
    std::string verb = toLower(fields[0]);
    if (fields.size() == 1 && verb.empty())
        verb = "prometheus";
    DebugReply out = fail(400, "unknown metrics format '" + format + "'");
    for (const DebugRoute &route : table()) {
        if (!route.verb || verb != route.verb)
            continue;
        std::vector<std::string> raw(route.params.size());
        size_t next = 1;
        for (size_t i = 0; i < raw.size() && next < fields.size(); ++i) {
            if (route.params[i].wire)
                raw[i] = fields[next++];
        }
        if (next == fields.size()) // no surplus fields
            out = serve(route, sources_, raw, std::string());
        break;
    }
    // The one status mapping: a bad argument or unknown format is
    // the client's fault; a missing subsystem or failed profiler
    // is the server's.
    Response response;
    response.status = out.status == 200 ? WireStatus::Ok
        : out.status == 400 || out.status == 404
            ? WireStatus::BadRequest
            : WireStatus::ServerError;
    response.message = out.error.empty() ? std::move(out.body)
                                         : std::move(out.error);
    return response;
}

} // namespace core
} // namespace djinn
