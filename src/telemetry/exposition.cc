#include "telemetry/exposition.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/strings.hh"

namespace djinn {
namespace telemetry {

namespace {

/** Format a double compactly but loss-tolerantly for exposition. */
std::string
num(double v)
{
    if (v == static_cast<double>(static_cast<int64_t>(v)) &&
        std::abs(v) < 1e15) {
        return strprintf("%lld",
                         static_cast<long long>(v));
    }
    return strprintf("%.9g", v);
}

/** Render `name<suffix>{labels}` with one extra label appended. */
std::string
idWith(const MetricSample &sample, const std::string &suffix,
       const std::string &key, const std::string &value)
{
    LabelMap labels = sample.labels;
    labels[key] = value;
    return renderMetricId(sample.name + suffix, labels);
}

/** Render an exemplar suffix: ` # {trace_id="...",record="N"} v`.
 * The trace_id label is omitted for untraced requests; the record
 * ref always resolves through /debug/flight?record=N. */
std::string
exemplarSuffix(const Exemplar &ex)
{
    std::string labels;
    if (ex.traceId != 0)
        labels += strprintf("trace_id=\"%016llx\",",
                            static_cast<unsigned long long>(
                                ex.traceId));
    labels += strprintf("record=\"%llu\"",
                        static_cast<unsigned long long>(ex.ref));
    return " # {" + labels + "} " + num(ex.value);
}

/**
 * The text exposition both scrape formats share: a TYPE line per
 * family, then one line per counter or gauge. A histogram renders
 * summary-style (quantiles, _count, _sum, _min, _max) for plain
 * Prometheus, and for OpenMetrics as cumulative buckets carrying
 * their exemplars, then _count and _sum.
 */
std::string
renderText(const std::vector<MetricSample> &samples, bool openMetrics)
{
    std::string out;
    std::string last_family;
    for (const MetricSample &sample : samples) {
        if (sample.name != last_family) {
            last_family = sample.name;
            const char *type =
                sample.kind == MetricKind::Counter ? "counter" :
                sample.kind == MetricKind::Gauge ? "gauge" :
                openMetrics ? "histogram" : "summary";
            out += "# TYPE " + sample.name + " " + type + "\n";
        }
        auto line = [&](const std::string &suffix, double value) {
            out += renderMetricId(sample.name + suffix, sample.labels) +
                   " " + num(value) + "\n";
        };
        if (sample.kind != MetricKind::Histogram) {
            line("", sample.value);
            continue;
        }
        const HistogramSnapshot &h = sample.histogram;
        if (!openMetrics) {
            for (double q : exportedQuantiles) {
                out += idWith(sample, "", "quantile",
                              strprintf("%g", q)) +
                       " " + num(h.quantile(q)) + "\n";
            }
        } else {
            // Cumulative buckets; trailing all-zero finite buckets
            // collapse into the mandatory +Inf line.
            size_t last_used = 0;
            for (size_t i = 0; i < h.buckets.size(); ++i)
                if (h.buckets[i] != 0)
                    last_used = i;
            uint64_t cumulative = 0;
            for (size_t i = 0; i < h.buckets.size(); ++i) {
                cumulative += h.buckets[i];
                bool overflow = i + 1 == h.buckets.size();
                if (i > last_used && !overflow)
                    continue;
                std::string le =
                    overflow ? "+Inf"
                             : num(h.bucketUpperBound(
                                   static_cast<int>(i)));
                out += idWith(sample, "_bucket", "le", le) + " " +
                       num(static_cast<double>(cumulative));
                if (i < h.exemplars.size() && h.exemplars[i].valid)
                    out += exemplarSuffix(h.exemplars[i]);
                out += "\n";
            }
        }
        line("_count", static_cast<double>(h.count));
        line("_sum", h.sum);
        if (!openMetrics) {
            line("_min", h.min);
            line("_max", h.max);
        }
    }
    return out;
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

std::string
renderPrometheus(const std::vector<MetricSample> &samples)
{
    return renderText(samples, false);
}

std::string
renderOpenMetrics(const std::vector<MetricSample> &samples)
{
    return renderText(samples, true) + "# EOF\n";
}

std::string
renderJson(const std::vector<MetricSample> &samples)
{
    std::string out = "{\n  \"metrics\": [\n";
    for (size_t i = 0; i < samples.size(); ++i) {
        const MetricSample &sample = samples[i];
        out += "    {\"name\": \"" + jsonEscape(sample.name) + "\"";
        if (!sample.labels.empty()) {
            out += ", \"labels\": {";
            bool first = true;
            for (const auto &[k, v] : sample.labels) {
                if (!first)
                    out += ", ";
                first = false;
                out += "\"" + jsonEscape(k) + "\": \"" +
                       jsonEscape(v) + "\"";
            }
            out += "}";
        }
        switch (sample.kind) {
          case MetricKind::Counter:
            out += ", \"kind\": \"counter\", \"value\": " +
                   num(sample.value);
            break;
          case MetricKind::Gauge:
            out += ", \"kind\": \"gauge\", \"value\": " +
                   num(sample.value);
            break;
          case MetricKind::Histogram:
            {
                const HistogramSnapshot &h = sample.histogram;
                out += ", \"kind\": \"histogram\"";
                out += ", \"count\": " +
                       num(static_cast<double>(h.count));
                out += ", \"sum\": " + num(h.sum);
                out += ", \"min\": " + num(h.min);
                out += ", \"max\": " + num(h.max);
                out += ", \"mean\": " + num(h.mean());
                for (double q : exportedQuantiles) {
                    out += strprintf(", \"p%g\": ", q * 100) +
                           num(h.quantile(q));
                }
            }
            break;
        }
        out += i + 1 < samples.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";
    return out;
}

Result<std::vector<ExpositionSample>>
parseExposition(const std::string &text)
{
    std::vector<ExpositionSample> out;
    for (std::string_view raw : split(text, '\n')) {
        std::string_view line = trim(raw);
        if (line.empty() || line.front() == '#')
            continue;

        // OpenMetrics exemplar suffixes ride after " # "; the
        // sample itself is everything before it.
        size_t exemplar = line.find(" # ");
        if (exemplar != std::string_view::npos)
            line = trim(line.substr(0, exemplar));

        ExpositionSample sample;
        size_t space = line.rfind(' ');
        if (space == std::string_view::npos) {
            return Status::protocolError(
                "exposition line without value: '" +
                std::string(line) + "'");
        }
        if (!parseDouble(trim(line.substr(space + 1)),
                         sample.value)) {
            return Status::protocolError(
                "bad exposition value in '" + std::string(line) +
                "'");
        }
        std::string_view id = trim(line.substr(0, space));

        size_t brace = id.find('{');
        if (brace == std::string_view::npos) {
            sample.name = std::string(id);
        } else {
            if (id.back() != '}') {
                return Status::protocolError(
                    "unterminated label set in '" +
                    std::string(line) + "'");
            }
            sample.name = std::string(id.substr(0, brace));
            std::string_view body =
                id.substr(brace + 1, id.size() - brace - 2);
            for (std::string_view item : split(body, ',')) {
                if (trim(item).empty())
                    continue;
                size_t eq = item.find('=');
                if (eq == std::string_view::npos) {
                    return Status::protocolError(
                        "bad label in '" + std::string(line) + "'");
                }
                std::string_view key = trim(item.substr(0, eq));
                std::string_view val = trim(item.substr(eq + 1));
                if (val.size() < 2 || val.front() != '"' ||
                    val.back() != '"') {
                    return Status::protocolError(
                        "unquoted label value in '" +
                        std::string(line) + "'");
                }
                sample.labels[std::string(key)] =
                    std::string(val.substr(1, val.size() - 2));
            }
        }
        if (sample.name.empty()) {
            return Status::protocolError(
                "empty metric name in '" + std::string(line) + "'");
        }
        out.push_back(std::move(sample));
    }
    return out;
}

Result<double>
findSample(const std::vector<ExpositionSample> &samples,
           const std::string &name, const LabelMap &labels)
{
    for (const ExpositionSample &sample : samples) {
        if (sample.name == name && sample.labels == labels)
            return sample.value;
    }
    return Status::notFound("no sample '" +
                            renderMetricId(name, labels) + "'");
}

} // namespace telemetry
} // namespace djinn
