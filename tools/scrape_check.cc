/**
 * @file
 * scrape_check - validate a DjiNN HTTP scrape endpoint.
 *
 * Usage:
 *   scrape_check HOST PORT [timeout_seconds]
 *
 * Polls GET /healthz until the endpoint answers 200 (or the
 * timeout elapses), then fetches /metrics and checks the body
 * parses as a Prometheus text exposition, fetches /trace?last=8
 * and checks it looks like a Chrome trace JSON document, and
 * fetches /profile?seconds=1 and checks the body is collapsed
 * stacks ("frame;frame;... count" lines — empty allowed on idle
 * servers, 503 allowed where profiling signals are restricted).
 * Then it exercises content negotiation: /metrics with `Accept:
 * application/openmetrics-text` must answer the OpenMetrics
 * content type, terminate with `# EOF`, carry only well-formed
 * `# {...} value` exemplar suffixes, and still parse; the plain
 * Prometheus rendering must stay free of exemplar/OpenMetrics
 * markers (byte-stable with exemplars off). /debug/tail must
 * answer attribution JSON, and a malformed numeric parameter
 * (`/debug/tail?pct=50x`, `/debug/flight?trace_id=-1`) must answer
 * 400 with the JSON error body. When the daemon runs a health
 * monitor, /healthz must carry the structured JSON verdict (status +
 * uptime); /debug/timeseries must serve windowed series JSON for a
 * known metric, 400 with a JSON error body when the metric
 * parameter is missing or the window is out of bounds, and 404 for
 * an unknown metric. Exits 0 when every check passes; prints the
 * first failure and exits 1 otherwise.
 *
 * Exists so `scripts/check_build.sh` can smoke-test the endpoint
 * without assuming curl is installed.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "telemetry/exposition.hh"

using namespace djinn;

namespace {

/**
 * One blocking HTTP/1.0 GET. Returns false on connect/io error.
 * @p accept, when non-empty, is sent as the Accept header;
 * @p content_type, when non-null, receives the response's
 * Content-Type value ("" if the header is missing).
 */
bool
httpGet(const std::string &host, uint16_t port,
        const std::string &path, int &code, std::string &body,
        const std::string &accept = std::string(),
        std::string *content_type = nullptr)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        return false;
    }

    std::string request = "GET " + path + " HTTP/1.0\r\n"
                          "Host: " + host + "\r\n";
    if (!accept.empty())
        request += "Accept: " + accept + "\r\n";
    request += "\r\n";
    size_t sent = 0;
    while (sent < request.size()) {
        ssize_t n = ::send(fd, request.data() + sent,
                           request.size() - sent, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            return false;
        }
        sent += static_cast<size_t>(n);
    }

    std::string response;
    char buf[4096];
    while (true) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            return false;
        }
        if (n == 0)
            break;
        response.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);

    // "HTTP/1.0 200 OK\r\n...\r\n\r\n<body>"
    if (std::sscanf(response.c_str(), "HTTP/%*d.%*d %d", &code) != 1)
        return false;
    size_t sep = response.find("\r\n\r\n");
    if (sep == std::string::npos)
        return false;
    if (content_type) {
        content_type->clear();
        std::string head = response.substr(0, sep);
        size_t at = head.find("Content-Type:");
        if (at != std::string::npos) {
            at += std::strlen("Content-Type:");
            size_t end = head.find("\r\n", at);
            while (at < end && head[at] == ' ')
                ++at;
            *content_type = head.substr(at, end - at);
        }
    }
    body = response.substr(sep + 4);
    return true;
}

/**
 * Check every exemplar suffix in an OpenMetrics body: a line
 * containing " # " must be a `_bucket` sample whose suffix is
 * `{label="value",...} <number>`. Returns the number of exemplars
 * seen, or -1 with a diagnostic on malformed syntax.
 */
long
checkExemplarSyntax(const std::string &body)
{
    long exemplars = 0;
    size_t pos = 0;
    while (pos < body.size()) {
        size_t eol = body.find('\n', pos);
        if (eol == std::string::npos)
            eol = body.size();
        std::string line = body.substr(pos, eol - pos);
        pos = eol + 1;
        size_t hash = line.find(" # ");
        if (hash == std::string::npos)
            continue;
        if (line.find("_bucket{") == std::string::npos) {
            std::fprintf(stderr,
                         "FAIL: exemplar on a non-bucket line: "
                         "'%s'\n", line.c_str());
            return -1;
        }
        std::string suffix = line.substr(hash + 3);
        size_t close = suffix.rfind('}');
        if (suffix.empty() || suffix[0] != '{' ||
            close == std::string::npos || close + 1 >= suffix.size() ||
            suffix[close + 1] != ' ') {
            std::fprintf(stderr,
                         "FAIL: malformed exemplar suffix: '%s'\n",
                         line.c_str());
            return -1;
        }
        char *end = nullptr;
        std::strtod(suffix.c_str() + close + 2, &end);
        if (end == suffix.c_str() + close + 2) {
            std::fprintf(stderr,
                         "FAIL: exemplar without a value: '%s'\n",
                         line.c_str());
            return -1;
        }
        ++exemplars;
    }
    return exemplars;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: scrape_check HOST PORT "
                     "[timeout_seconds]\n");
        return 2;
    }
    std::string host = argv[1];
    uint16_t port = static_cast<uint16_t>(std::atoi(argv[2]));
    double timeout = argc > 3 ? std::atof(argv[3]) : 10.0;

    // 1. /healthz with retry: the daemon may still be starting.
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(timeout));
    int code = 0;
    std::string body;
    bool healthy = false;
    while (std::chrono::steady_clock::now() < deadline) {
        if (httpGet(host, port, "/healthz", code, body) &&
            code == 200) {
            healthy = true;
            break;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(100));
    }
    if (!healthy) {
        std::fprintf(stderr,
                     "FAIL: /healthz did not answer 200 within "
                     "%.1fs\n", timeout);
        return 1;
    }
    // With a health monitor the body is the structured verdict;
    // without one it is the legacy plain "ok". Validate whichever
    // shape answered.
    if (!body.empty() && body[0] == '{') {
        if (body.find("\"status\"") == std::string::npos ||
            body.find("\"uptime_seconds\"") == std::string::npos ||
            body.find("\"reasons\"") == std::string::npos) {
            std::fprintf(stderr,
                         "FAIL: /healthz JSON lacks status/"
                         "uptime_seconds/reasons: '%s'\n",
                         body.c_str());
            return 1;
        }
        std::printf("ok: /healthz 200 (structured verdict)\n");
    } else {
        std::printf("ok: /healthz 200\n");
    }

    // 2. /metrics must parse as a Prometheus text exposition.
    if (!httpGet(host, port, "/metrics", code, body) ||
        code != 200) {
        std::fprintf(stderr, "FAIL: GET /metrics -> %d\n", code);
        return 1;
    }
    auto parsed = telemetry::parseExposition(body);
    if (!parsed.isOk()) {
        std::fprintf(stderr, "FAIL: /metrics body does not parse: "
                     "%s\n", parsed.status().toString().c_str());
        return 1;
    }
    std::printf("ok: /metrics parses (%zu samples)\n",
                parsed.value().size());

    // 3. /trace must answer Chrome trace-event JSON.
    if (!httpGet(host, port, "/trace?last=8", code, body) ||
        code != 200) {
        std::fprintf(stderr, "FAIL: GET /trace -> %d\n", code);
        return 1;
    }
    if (body.find("\"traceEvents\"") == std::string::npos) {
        std::fprintf(stderr,
                     "FAIL: /trace body is not a trace document\n");
        return 1;
    }
    std::printf("ok: /trace answers a trace document (%zu bytes)\n",
                body.size());

    // 4. /profile must answer collapsed stacks (or a clean 503
    // where the profiler cannot arm its timer). Every non-empty
    // line ends in " <count>"; an idle server may return nothing.
    if (!httpGet(host, port, "/profile?seconds=1", code, body)) {
        std::fprintf(stderr, "FAIL: GET /profile io error\n");
        return 1;
    }
    if (code == 503) {
        std::printf("ok: /profile 503 (profiler unavailable)\n");
    } else if (code != 200) {
        std::fprintf(stderr, "FAIL: GET /profile -> %d\n", code);
        return 1;
    } else {
        size_t stacks = 0;
        size_t pos = 0;
        while (pos < body.size()) {
            size_t eol = body.find('\n', pos);
            if (eol == std::string::npos)
                eol = body.size();
            std::string line = body.substr(pos, eol - pos);
            pos = eol + 1;
            if (line.empty())
                continue;
            size_t space = line.rfind(' ');
            if (space == std::string::npos ||
                std::atoll(line.c_str() + space + 1) <= 0) {
                std::fprintf(stderr,
                             "FAIL: /profile line not "
                             "collapsed-stack format: '%s'\n",
                             line.c_str());
                return 1;
            }
            ++stacks;
        }
        std::printf("ok: /profile answers %zu collapsed stacks\n",
                    stacks);
    }

    // 5. Content negotiation: Accept: application/openmetrics-text
    // must select the OpenMetrics rendering — right content type,
    // `# EOF` terminator, well-formed exemplar suffixes, and a body
    // the tolerant exposition parser still accepts.
    std::string content_type;
    if (!httpGet(host, port, "/metrics", code, body,
                 "application/openmetrics-text", &content_type) ||
        code != 200) {
        std::fprintf(stderr,
                     "FAIL: GET /metrics (openmetrics) -> %d\n",
                     code);
        return 1;
    }
    if (content_type.find("application/openmetrics-text") ==
        std::string::npos) {
        std::fprintf(stderr,
                     "FAIL: openmetrics negotiation answered "
                     "content type '%s'\n", content_type.c_str());
        return 1;
    }
    if (body.size() < 6 ||
        body.compare(body.size() - 6, 6, "# EOF\n") != 0) {
        std::fprintf(stderr,
                     "FAIL: openmetrics body lacks the # EOF "
                     "terminator\n");
        return 1;
    }
    long exemplars = checkExemplarSyntax(body);
    if (exemplars < 0)
        return 1;
    auto om_parsed = telemetry::parseExposition(body);
    if (!om_parsed.isOk()) {
        std::fprintf(stderr,
                     "FAIL: openmetrics body does not parse: %s\n",
                     om_parsed.status().toString().c_str());
        return 1;
    }
    std::printf("ok: /metrics openmetrics negotiation (%ld "
                "exemplars)\n", exemplars);

    // 6. The plain Prometheus rendering must be untouched by the
    // exemplar machinery: no exemplar markers, no OpenMetrics
    // terminator, and the plain content type.
    if (!httpGet(host, port, "/metrics", code, body, "text/plain",
                 &content_type) ||
        code != 200) {
        std::fprintf(stderr, "FAIL: GET /metrics (plain) -> %d\n",
                     code);
        return 1;
    }
    if (content_type.find("text/plain") == std::string::npos) {
        std::fprintf(stderr,
                     "FAIL: plain scrape answered content type "
                     "'%s'\n", content_type.c_str());
        return 1;
    }
    if (body.find(" # ") != std::string::npos ||
        body.find("# EOF") != std::string::npos) {
        std::fprintf(stderr,
                     "FAIL: plain Prometheus output carries "
                     "OpenMetrics markers\n");
        return 1;
    }
    std::printf("ok: /metrics plain output free of exemplar "
                "markers\n");

    // 7. /debug/tail must answer attribution JSON.
    if (!httpGet(host, port, "/debug/tail", code, body,
                 std::string(), &content_type) ||
        code != 200) {
        std::fprintf(stderr, "FAIL: GET /debug/tail -> %d\n", code);
        return 1;
    }
    if (body.find("\"fleet\"") == std::string::npos ||
        body.find("\"models\"") == std::string::npos) {
        std::fprintf(stderr,
                     "FAIL: /debug/tail body is not an attribution "
                     "document\n");
        return 1;
    }
    std::printf("ok: /debug/tail answers attribution JSON\n");

    // 7b. Numeric parameters parse strictly on every route: trailing
    // garbage and a signed trace id are 400s with the JSON error
    // body, never a silently truncated or wrapped value.
    for (const char *target :
         {"/debug/tail?pct=50x", "/debug/flight?trace_id=-1"}) {
        if (!httpGet(host, port, target, code, body) || code != 400 ||
            body.find("\"error\"") == std::string::npos ||
            body.find("\"status\": 400") == std::string::npos) {
            std::fprintf(stderr,
                         "FAIL: GET %s should 400 with a JSON error "
                         "(got %d '%s')\n",
                         target, code, body.c_str());
            return 1;
        }
    }
    std::printf("ok: malformed numeric parameters answer 400\n");

    // 8. /debug/timeseries: windowed series JSON for a metric the
    // server always has, JSON 400s for parameter errors, and a
    // JSON 404 for an unknown metric. Skipped (with a 503) when
    // the daemon runs without the time-series store.
    // The store adopts metrics on its first sampler tick, so right
    // after startup the known-metric query can briefly 404; retry
    // within the timeout budget.
    deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<
                   std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(timeout));
    while (true) {
        if (!httpGet(host, port,
                     "/debug/timeseries?metric=djinn_health"
                     "&window=60",
                     code, body, std::string(), &content_type)) {
            std::fprintf(stderr,
                         "FAIL: GET /debug/timeseries io error\n");
            return 1;
        }
        if (code != 404 ||
            std::chrono::steady_clock::now() >= deadline)
            break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(100));
    }
    if (code == 503) {
        std::printf("ok: /debug/timeseries 503 (store disabled)\n");
        return 0;
    }
    if (code != 200 ||
        body.find("\"series\"") == std::string::npos) {
        std::fprintf(stderr,
                     "FAIL: GET /debug/timeseries -> %d '%s'\n",
                     code, body.c_str());
        return 1;
    }
    if (content_type.find("application/json") ==
        std::string::npos) {
        std::fprintf(stderr,
                     "FAIL: /debug/timeseries content type '%s'\n",
                     content_type.c_str());
        return 1;
    }
    if (!httpGet(host, port, "/debug/timeseries", code, body) ||
        code != 400 ||
        body.find("\"error\"") == std::string::npos) {
        std::fprintf(stderr,
                     "FAIL: /debug/timeseries without metric "
                     "should 400 with a JSON error (got %d)\n",
                     code);
        return 1;
    }
    if (!httpGet(host, port,
                 "/debug/timeseries?metric=djinn_health"
                 "&window=999999999",
                 code, body) ||
        code != 400 ||
        body.find("\"error\"") == std::string::npos) {
        std::fprintf(stderr,
                     "FAIL: /debug/timeseries with out-of-bounds "
                     "window should 400 (got %d)\n", code);
        return 1;
    }
    if (!httpGet(host, port,
                 "/debug/timeseries?metric=no_such_metric", code,
                 body) ||
        code != 404 ||
        body.find("\"error\"") == std::string::npos) {
        std::fprintf(stderr,
                     "FAIL: /debug/timeseries with unknown metric "
                     "should 404 with a JSON error (got %d)\n",
                     code);
        return 1;
    }
    std::printf("ok: /debug/timeseries serves series JSON with "
                "JSON errors\n");
    return 0;
}
