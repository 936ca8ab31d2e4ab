/**
 * @file
 * djinn_cli - command-line client for a running DjiNN server.
 *
 * Usage:
 *   djinn_cli [--timeout-ms N] [--retries N] [--deadline-ms N]
 *             HOST PORT ping
 *   djinn_cli ... HOST PORT list
 *   djinn_cli ... HOST PORT stats
 *   djinn_cli ... HOST PORT metrics [prometheus|json|requests]
 *   djinn_cli ... HOST PORT tail [PCT]
 *   djinn_cli ... HOST PORT sched
 *   djinn_cli ... HOST PORT top [WINDOW_SECONDS]
 *   djinn_cli ... HOST PORT trace OUT.json [last_n]
 *   djinn_cli ... HOST PORT profile [SECONDS] [OUT.txt]
 *   djinn_cli ... HOST PORT infer MODEL ROWS [payload.f32]
 *
 * --timeout-ms N bounds connection establishment and each request
 * round-trip (0, the default, blocks indefinitely). --retries N
 * allows up to N retries of an infer that failed safely — an
 * Overloaded shed or a transient connect/send failure — with
 * capped jittered exponential backoff; ambiguous mid-stream
 * failures are never retried. --deadline-ms N attaches a deadline
 * budget to infer requests (protocol v3): the server sheds the
 * request once the budget expires instead of computing a result
 * the caller stopped waiting for.
 *
 * `metrics` prints the server's full telemetry exposition:
 * per-model request counters and decode / queue-wait / forward /
 * encode latency histograms with p50/p95/p99. The `requests`
 * format prints the served-request table instead: one line per
 * flight-recorded request with its trace id, rows, the size of the
 * batch that served it, and its queue wait plus forward latency.
 *
 * `top` is the live operator dashboard: per-model QPS, windowed
 * p50/p99, shed rate, and batch occupancy with request-rate
 * sparklines, computed server-side from the continuous time-series
 * store and refreshed every --interval-ms (default 1000). On a tty
 * it clears the screen between frames and runs until interrupted;
 * piped, it prints --frames frames (default 1) of plain text, so
 * scripts and tests can grep it.
 *
 * `sched` dumps the adaptive scheduler's live state as JSON: each
 * model's current batch target, observed arrival rate, calibrated
 * per-query service time, SLO and burn rate, plus each tenant's
 * fair-share weight, deficit, and realised share of dispatch
 * capacity. Requires a server started with `--sched adaptive`
 * (DESIGN.md §16).
 *
 * `tail` asks the server's flight recorder where tail latency
 * comes from: it compares the pPCT-slowest requests (default p99)
 * against the p50-and-faster baseline and prints the per-phase
 * excess — queue wait vs forward vs read/decode/encode — fleet-wide
 * and per model. See DESIGN.md "Tail attribution & flight
 * recorder".
 *
 * `trace` downloads the server's span ring as Chrome trace-event
 * JSON; open the file in chrome://tracing or
 * https://ui.perfetto.dev to see the end-to-end timeline.
 *
 * `profile` samples the server's call stacks for SECONDS (default
 * 1) and prints collapsed stacks — `flamegraph.pl` input — to
 * stdout, or to OUT.txt when given. See README "Flamegraphs".
 *
 * For `infer`, the payload file holds raw little-endian float32
 * data (rows x model-input elements); without a file, a
 * deterministic random payload is generated. The top prediction of
 * every row is printed.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/strings.hh"
#include "core/djinn_client.hh"

using namespace djinn;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: djinn_cli [--timeout-ms N] [--retries N] "
                 "[--deadline-ms N] [--frames N] [--interval-ms N] "
                 "HOST PORT "
                 "ping|list|stats|metrics|tail|sched|top|trace|"
                 "profile|infer [MODEL ROWS [payload.f32]]\n"
                 "       metrics takes an optional format: "
                 "prometheus (default), json, or requests\n"
                 "       tail takes an optional percentile: "
                 "djinn_cli HOST PORT tail [PCT] (default 99)\n"
                 "       top takes an optional window: "
                 "djinn_cli HOST PORT top [WINDOW_SECONDS] "
                 "(default 60); --frames N stops after N frames "
                 "(0 = until interrupted), --interval-ms sets the "
                 "refresh period\n"
                 "       trace takes an output file: "
                 "djinn_cli HOST PORT trace out.json\n"
                 "       profile takes an optional window and "
                 "output file: djinn_cli HOST PORT profile "
                 "[SECONDS] [out.txt]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    double timeout_ms = 0.0;
    int retries = 0;
    uint32_t deadline_ms = 0;
    int frames = -1;
    int interval_ms = 1000;
    int argi = 1;
    while (argi < argc && argv[argi][0] == '-') {
        std::string arg = argv[argi];
        if (argi + 1 >= argc)
            return usage();
        if (arg == "--timeout-ms") {
            timeout_ms = std::atof(argv[++argi]);
        } else if (arg == "--retries") {
            retries = std::atoi(argv[++argi]);
        } else if (arg == "--deadline-ms") {
            deadline_ms =
                static_cast<uint32_t>(std::atoi(argv[++argi]));
        } else if (arg == "--frames") {
            frames = std::atoi(argv[++argi]);
        } else if (arg == "--interval-ms") {
            interval_ms = std::atoi(argv[++argi]);
            if (interval_ms <= 0)
                return usage();
        } else {
            return usage();
        }
        ++argi;
    }
    if (argc - argi < 3)
        return usage();
    std::string host = argv[argi];
    uint16_t port = static_cast<uint16_t>(std::atoi(argv[argi + 1]));
    std::string command = argv[argi + 2];
    argv += argi - 1; // re-base so argv[4] is the first operand
    argc -= argi - 1;

    core::DjinnClient client;
    if (timeout_ms > 0.0) {
        client.setConnectTimeout(timeout_ms * 1e-3);
        client.setRequestTimeout(timeout_ms * 1e-3);
    }
    if (retries > 0) {
        core::RetryPolicy policy;
        policy.maxAttempts = retries + 1;
        client.setRetryPolicy(policy);
    }
    client.setDeadlineMs(deadline_ms);
    Status connected = client.connect(host, port);
    if (!connected.isOk()) {
        std::fprintf(stderr, "connect failed: %s\n",
                     connected.toString().c_str());
        return 1;
    }

    if (command == "ping") {
        Status s = client.ping();
        std::printf("%s\n", s.isOk() ? "pong" :
                            s.toString().c_str());
        return s.isOk() ? 0 : 1;
    }
    if (command == "list") {
        auto models = client.listModels();
        if (!models.isOk()) {
            std::fprintf(stderr, "%s\n",
                         models.status().toString().c_str());
            return 1;
        }
        for (const auto &name : models.value())
            std::printf("%s\n", name.c_str());
        return 0;
    }
    if (command == "stats") {
        auto stats = client.serverStats();
        if (!stats.isOk()) {
            std::fprintf(stderr, "%s\n",
                         stats.status().toString().c_str());
            return 1;
        }
        std::printf("%-16s %10s %12s %12s\n", "model", "requests",
                    "rows", "mean(ms)");
        for (const auto &s : stats.value()) {
            std::printf("%-16s %10llu %12llu %12.3f\n",
                        s.model.c_str(),
                        static_cast<unsigned long long>(s.requests),
                        static_cast<unsigned long long>(s.rows),
                        s.meanServiceMs);
        }
        return 0;
    }
    if (command == "metrics") {
        std::string format = argc > 4 ? argv[4] : "";
        auto exposition = client.metricsExposition(format);
        if (!exposition.isOk()) {
            std::fprintf(stderr, "%s\n",
                         exposition.status().toString().c_str());
            return 1;
        }
        if (format != "requests") {
            std::fputs(exposition.value().c_str(), stdout);
            return 0;
        }
        // Render the request CSV as a human table with trace-id
        // and batch-size columns.
        std::printf("%-16s %-16s %6s %10s %12s\n", "trace_id",
                    "model", "rows", "batch_rows", "service(ms)");
        std::istringstream lines(exposition.value());
        std::string line;
        std::getline(lines, line); // skip the CSV header
        while (std::getline(lines, line)) {
            if (line.empty())
                continue;
            auto fields = split(line, ',');
            if (fields.size() != 5) {
                std::fprintf(stderr, "malformed line '%s'\n",
                             line.c_str());
                return 1;
            }
            std::printf("%-16s %-16s %6s %10s %12s\n",
                        fields[0].c_str(), fields[1].c_str(),
                        fields[2].c_str(), fields[3].c_str(),
                        fields[4].c_str());
        }
        return 0;
    }
    if (command == "tail") {
        // The Metrics verb's "tail:PCT" format runs the server-side
        // tail attribution over the flight recorder.
        double pct = 99.0;
        if (argc > 4) {
            pct = std::atof(argv[4]);
            if (!(pct > 0.0 && pct < 100.0)) {
                std::fprintf(stderr, "PCT must be in (0, 100)\n");
                return 2;
            }
        }
        auto report =
            client.metricsExposition(strprintf("tail:%g", pct));
        if (!report.isOk()) {
            std::fprintf(stderr, "%s\n",
                         report.status().toString().c_str());
            return 1;
        }
        std::fputs(report.value().c_str(), stdout);
        return 0;
    }
    if (command == "sched") {
        // The Metrics verb's "sched" format dumps the adaptive
        // scheduler's per-model targets and tenant fair shares.
        auto state = client.metricsExposition("sched");
        if (!state.isOk()) {
            std::fprintf(stderr, "%s\n",
                         state.status().toString().c_str());
            return 1;
        }
        std::fputs(state.value().c_str(), stdout);
        return 0;
    }
    if (command == "top") {
        double window = 60.0;
        if (argc > 4) {
            window = std::atof(argv[4]);
            if (!(window > 0.0)) {
                std::fprintf(stderr,
                             "WINDOW_SECONDS must be positive\n");
                return 2;
            }
        }
        const bool tty = isatty(fileno(stdout)) != 0;
        // Interactive default: refresh forever. Piped default: one
        // frame, so `djinn_cli ... top | grep` terminates.
        if (frames < 0)
            frames = tty ? 0 : 1;
        for (int frame = 0; frames == 0 || frame < frames;
             ++frame) {
            if (frame > 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(interval_ms));
            }
            auto dashboard = client.metricsExposition(
                strprintf("top:%g", window));
            if (!dashboard.isOk()) {
                std::fprintf(stderr, "%s\n",
                             dashboard.status().toString().c_str());
                return 1;
            }
            if (tty) {
                // Home the cursor and clear before each frame.
                std::fputs("\x1b[H\x1b[2J", stdout);
            }
            std::fputs(dashboard.value().c_str(), stdout);
            std::fflush(stdout);
        }
        return 0;
    }
    if (command == "profile") {
        // The Metrics verb's "profile:N" format runs an N-second
        // sampling window server-side and returns collapsed stacks.
        int seconds = 1;
        if (argc > 4) {
            seconds = std::atoi(argv[4]);
            if (seconds <= 0 || seconds > 60) {
                std::fprintf(stderr,
                             "SECONDS must be in 1..60\n");
                return 2;
            }
        }
        auto collapsed = client.metricsExposition(
            strprintf("profile:%d", seconds));
        if (!collapsed.isOk()) {
            std::fprintf(stderr, "%s\n",
                         collapsed.status().toString().c_str());
            return 1;
        }
        if (argc > 5) {
            std::ofstream os(argv[5], std::ios::binary);
            if (!os) {
                std::fprintf(stderr, "cannot write %s\n", argv[5]);
                return 1;
            }
            os << collapsed.value();
            std::printf("wrote %zu bytes of collapsed stacks to "
                        "%s\nrender with: flamegraph.pl %s > "
                        "profile.svg\n",
                        collapsed.value().size(), argv[5], argv[5]);
        } else {
            std::fputs(collapsed.value().c_str(), stdout);
        }
        return 0;
    }
    if (command == "trace") {
        if (argc < 5)
            return usage();
        auto trace = client.traceJson();
        if (!trace.isOk()) {
            std::fprintf(stderr, "%s\n",
                         trace.status().toString().c_str());
            return 1;
        }
        std::ofstream os(argv[4], std::ios::binary);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n", argv[4]);
            return 1;
        }
        os << trace.value();
        std::printf("wrote %zu bytes of Chrome trace JSON to %s\n"
                    "open in chrome://tracing or "
                    "https://ui.perfetto.dev\n",
                    trace.value().size(), argv[4]);
        return 0;
    }
    if (command != "infer" || argc < 6)
        return usage();

    std::string model = argv[4];
    int64_t rows = std::atoll(argv[5]);
    if (rows <= 0) {
        std::fprintf(stderr, "rows must be positive\n");
        return 2;
    }

    std::vector<float> payload;
    if (argc > 6) {
        std::ifstream is(argv[6], std::ios::binary);
        if (!is) {
            std::fprintf(stderr, "cannot open %s\n", argv[6]);
            return 1;
        }
        std::vector<char> raw((std::istreambuf_iterator<char>(is)),
                              std::istreambuf_iterator<char>());
        payload.resize(raw.size() / sizeof(float));
        std::memcpy(payload.data(), raw.data(),
                    payload.size() * sizeof(float));
    } else {
        auto info = client.describeModel(model);
        if (!info.isOk()) {
            std::fprintf(stderr, "describe failed: %s\n",
                         info.status().toString().c_str());
            return 1;
        }
        int64_t elems = info.value().inputElems();
        Rng rng(7);
        payload.resize(static_cast<size_t>(rows * elems));
        for (auto &v : payload)
            v = static_cast<float>(rng.gaussian(0.0, 1.0));
        std::printf("generated random payload: %lld rows x %lld "
                    "floats\n", static_cast<long long>(rows),
                    static_cast<long long>(elems));
    }

    // Attach a wire trace context so the server records spans for
    // this request; the id is printed for correlation with
    // `metrics requests` and `trace` output.
    client.setTracing(true);
    auto result = client.infer(model, rows, payload);
    if (!result.isOk()) {
        std::fprintf(stderr, "infer failed: %s\n",
                     result.status().toString().c_str());
        return 1;
    }
    std::printf("trace id %s\n",
                telemetry::traceIdToHex(
                    client.lastTrace().traceId).c_str());
    const auto &output = result.value();
    int64_t out_elems = static_cast<int64_t>(output.size()) / rows;
    for (int64_t r = 0; r < rows; ++r) {
        const float *base = output.data() + r * out_elems;
        int64_t best = std::max_element(base, base + out_elems) -
                       base;
        std::printf("row %lld: class %lld (score %.4f of %lld "
                    "outputs)\n", static_cast<long long>(r),
                    static_cast<long long>(best), base[best],
                    static_cast<long long>(out_elems));
    }
    return 0;
}
