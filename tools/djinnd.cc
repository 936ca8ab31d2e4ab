/**
 * @file
 * djinnd - the standalone DjiNN service daemon.
 *
 * Loads a set of models into memory once, then serves inference
 * requests over TCP until interrupted (paper Section 3.1).
 *
 * Usage:
 *   djinnd [--port N] [--models m1,m2,...|all] [--batching]
 *          [--batch-size N] [--seed N]
 *          [--precision m=int8|bf16|f32[,m=...]]
 *          [--max-queue-depth N] [--io-timeout-ms N]
 *          [--drain-timeout-ms N] [--fault SPEC]
 *          [--compute-threads N]
 *          [--metrics-dump] [--metrics-dump-json]
 *          [--http-port N] [--no-tracing]
 *          [--slo-ms X] [--sched adaptive|static]
 *          [--tenant NAME=MODEL[:WEIGHT]]...
 *          [--netdef FILE --weights FILE]...
 *
 * --metrics-dump prints the full telemetry exposition (Prometheus
 * text; --metrics-dump-json for JSON) to stdout at shutdown. A
 * running daemon serves the same exposition to clients via the
 * Metrics wire verb (`djinn_cli HOST PORT metrics`).
 *
 * --precision lowers named zoo models for serving (DESIGN.md §14):
 * a comma list of model=precision pairs, e.g.
 * `--precision mnist=int8,senna_pos=bf16`. int8 models are
 * post-training quantized against the committed calibration batch;
 * unlisted models serve f32. Each model's serving precision is
 * visible in the Describe response and the `djinn_model_precision`
 * gauge.
 *
 * --compute-threads N sizes the shared intra-layer compute pool
 * (threaded GEMM and layer partitioning, DESIGN.md §8). Unset, the
 * DJINN_COMPUTE_THREADS environment variable applies, then the
 * hardware concurrency. Inference output bits are identical at
 * every setting.
 *
 * --http-port N starts the embedded HTTP scrape endpoint on port N
 * (0 picks an ephemeral port): GET /healthz (structured JSON
 * health verdict with uptime), GET /metrics (Prometheus text),
 * GET /trace?last=N (Chrome trace-event JSON, loadable in
 * chrome://tracing or https://ui.perfetto.dev),
 * GET /profile?seconds=N (collapsed stacks for flamegraph.pl), and
 * GET /debug/timeseries?metric=M&window=W (windowed series from
 * the continuous time-series store — the same data `djinn_cli
 * HOST PORT top` renders as a live dashboard). --no-tracing
 * disables span recording for sampled requests (and with it the
 * store, the health watchdog, and the dashboard).
 *
 * The store keeps 600 sampler-period slots (2.5 minutes at the
 * 0.25 s period). /profile samples at 97 Hz for its window only.
 *
 * --slo-ms X sets the per-model latency SLO target driving the
 * djinn_slo_* good/bad counters and burn-rate gauges (default
 * 50 ms; 0 disables SLO tracking).
 *
 * --sched adaptive enables the SLO-driven adaptive batch scheduler
 * (DESIGN.md §16): each model's dispatch batch is sized from its
 * observed arrival rate and calibrated batch service time so
 * predicted latency stays inside the --slo-ms target, shrinking
 * under burn-rate pressure (requires --batching). --tenant
 * NAME=MODEL[:WEIGHT] (repeatable) registers a tenant-visible
 * instance of MODEL named NAME that shares MODEL's weight tensors
 * (no duplicate resident bytes) and receives a WEIGHT-proportional
 * share of batch dispatch capacity via deficit round-robin
 * (default weight 1). Inspect live state with
 * `djinn_cli HOST PORT sched`.
 *
 * Overload & failure handling (DESIGN.md §10): --max-queue-depth N
 * caps each model's batch queue (0 derives 4 x batch size; excess
 * submits are rejected with an Overloaded response the client may
 * retry). --io-timeout-ms N bounds each connection's frame
 * transfers (default 10000; 0 disables). --drain-timeout-ms N
 * bounds the graceful drain at shutdown (default 5000). --fault
 * SPEC (or the DJINN_FAULT environment variable) injects protocol
 * faults for robustness drills: a comma list of slow-read,
 * stall-after-header, mid-frame-close.
 *
 * Zoo model names: alexnet mnist deepface kaldi_asr senna_pos
 * senna_chk senna_ner. Custom models load from a netdef text file
 * plus an optional .djw weight file.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/strings.hh"
#include "common/thread_pool.hh"
#include "core/djinn_server.hh"
#include "telemetry/exposition.hh"
#include "tonic/apps.hh"

using namespace djinn;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: djinnd [--port N] [--models m1,m2|all]\n"
                 "              [--precision m=int8|bf16|f32[,...]]\n"
                 "              [--batching] [--batch-size N]\n"
                 "              [--max-queue-depth N] "
                 "[--io-timeout-ms N]\n"
                 "              [--drain-timeout-ms N] "
                 "[--fault SPEC]\n"
                 "              [--compute-threads N]\n"
                 "              [--seed N] [--metrics-dump] "
                 "[--metrics-dump-json]\n"
                 "              [--http-port N] [--no-tracing]\n"
                 "              [--slo-ms X] [--sched adaptive|static]\n"
                 "              [--tenant NAME=MODEL[:WEIGHT]]...\n"
                 "              [--netdef F --weights F]...\n");
}

} // namespace

int
main(int argc, char **argv)
{
    core::ServerConfig config;
    config.port = 5555; // the historical DjiNN default port
    std::vector<std::string> model_names{"mnist", "senna_pos"};
    std::vector<std::pair<std::string, std::string>> custom;
    std::vector<std::pair<std::string, std::string>> tenants;
    uint64_t seed = 42;
    bool metrics_dump = false;
    bool metrics_json = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", what);
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--port") {
            config.port =
                static_cast<uint16_t>(std::atoi(next("--port")));
        } else if (arg == "--models") {
            std::string list = next("--models");
            if (list == "all") {
                model_names.clear();
                for (auto model : nn::zoo::allModels())
                    model_names.push_back(nn::zoo::modelName(model));
            } else {
                model_names = split(list, ',');
            }
        } else if (arg == "--batching") {
            config.batching = true;
        } else if (arg == "--batch-size") {
            config.batchOptions.maxQueries =
                std::atoll(next("--batch-size"));
        } else if (arg == "--max-queue-depth") {
            config.batchOptions.maxQueueDepth =
                std::atoll(next("--max-queue-depth"));
        } else if (arg == "--io-timeout-ms") {
            config.ioTimeoutSeconds =
                std::atof(next("--io-timeout-ms")) * 1e-3;
        } else if (arg == "--drain-timeout-ms") {
            config.drainTimeoutSeconds =
                std::atof(next("--drain-timeout-ms")) * 1e-3;
        } else if (arg == "--fault") {
            config.faultSpec = next("--fault");
        } else if (arg == "--precision") {
            for (const std::string &pair :
                 split(next("--precision"), ',')) {
                size_t eq = pair.find('=');
                if (eq == std::string::npos || eq == 0) {
                    std::fprintf(stderr,
                                 "--precision wants model=prec "
                                 "pairs, got '%s'\n", pair.c_str());
                    return 2;
                }
                try {
                    config.modelPrecisions[pair.substr(0, eq)] =
                        nn::precisionFromName(pair.substr(eq + 1));
                } catch (const FatalError &e) {
                    std::fprintf(stderr, "%s\n", e.what());
                    return 2;
                }
            }
        } else if (arg == "--seed") {
            seed = std::strtoull(next("--seed"), nullptr, 10);
        } else if (arg == "--compute-threads") {
            config.computeThreads =
                std::atoi(next("--compute-threads"));
        } else if (arg == "--http-port") {
            config.httpPort = std::atoi(next("--http-port"));
        } else if (arg == "--no-tracing") {
            config.tracing = false;
        } else if (arg == "--slo-ms") {
            config.sloTargetSeconds =
                std::atof(next("--slo-ms")) * 1e-3;
        } else if (arg == "--sched") {
            std::string mode = next("--sched");
            if (mode == "adaptive") {
                config.adaptiveScheduling = true;
            } else if (mode == "static") {
                config.adaptiveScheduling = false;
            } else {
                std::fprintf(stderr,
                             "--sched wants adaptive|static, "
                             "got '%s'\n", mode.c_str());
                return 2;
            }
        } else if (arg == "--tenant") {
            std::string spec = next("--tenant");
            size_t eq = spec.find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 >= spec.size()) {
                std::fprintf(stderr,
                             "--tenant wants NAME=MODEL[:WEIGHT], "
                             "got '%s'\n", spec.c_str());
                return 2;
            }
            std::string name = spec.substr(0, eq);
            std::string model = spec.substr(eq + 1);
            double weight = 1.0;
            size_t colon = model.find(':');
            if (colon != std::string::npos) {
                weight = std::atof(model.c_str() + colon + 1);
                model = model.substr(0, colon);
            }
            if (model.empty() || weight <= 0.0) {
                std::fprintf(stderr,
                             "--tenant wants NAME=MODEL[:WEIGHT] "
                             "with WEIGHT > 0, got '%s'\n",
                             spec.c_str());
                return 2;
            }
            tenants.emplace_back(name, model);
            config.tenantWeights[name] = weight;
            config.tenantModels[name] = name;
        } else if (arg == "--metrics-dump") {
            metrics_dump = true;
        } else if (arg == "--metrics-dump-json") {
            metrics_dump = true;
            metrics_json = true;
        } else if (arg == "--netdef") {
            custom.emplace_back(next("--netdef"), "");
        } else if (arg == "--weights") {
            if (custom.empty()) {
                std::fprintf(stderr,
                             "--weights needs a prior --netdef\n");
                return 2;
            }
            custom.back().second = next("--weights");
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n",
                         arg.c_str());
            usage();
            return 2;
        }
    }

    // The DJINN_FAULT environment variable seeds the fault spec so
    // drills can misconfigure a stock deployment without editing
    // its command line; an explicit --fault wins.
    if (config.faultSpec.empty()) {
        const char *env_fault = std::getenv("DJINN_FAULT");
        if (env_fault)
            config.faultSpec = env_fault;
    }

    core::ModelRegistry registry;
    for (const std::string &name : model_names) {
        try {
            nn::zoo::Model model = nn::zoo::modelFromName(name);
            nn::Precision precision = nn::Precision::F32;
            auto it = config.modelPrecisions.find(name);
            if (it != config.modelPrecisions.end())
                precision = it->second;
            std::printf("loading zoo model %s (%s)...\n",
                        name.c_str(), nn::precisionName(precision));
            Status s = registry.addZooModel(model, seed, precision);
            if (!s.isOk()) {
                std::fprintf(stderr, "cannot load '%s': %s\n",
                             name.c_str(), s.toString().c_str());
                return 1;
            }
        } catch (const FatalError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
    }
    for (const auto &[netdef, weights] : custom) {
        std::printf("loading custom model from %s...\n",
                    netdef.c_str());
        Status s = registry.loadFromFiles(netdef, weights);
        if (!s.isOk()) {
            std::fprintf(stderr, "cannot load '%s': %s\n",
                         netdef.c_str(), s.toString().c_str());
            return 1;
        }
    }
    for (const auto &[name, base] : tenants) {
        Status s = registry.addInstance(name, base);
        if (!s.isOk()) {
            std::fprintf(stderr,
                         "cannot register tenant '%s' on '%s': "
                         "%s\n", name.c_str(), base.c_str(),
                         s.toString().c_str());
            return 1;
        }
        std::printf("tenant %s serves %s (weight %.3g, shared "
                    "weights)\n", name.c_str(), base.c_str(),
                    config.tenantWeights[name]);
    }
    if (config.adaptiveScheduling && !config.batching) {
        std::fprintf(stderr,
                     "--sched adaptive requires --batching\n");
        return 2;
    }
    std::printf("%zu models resident (%.0f MiB, shared read-only)\n",
                registry.size(),
                registry.totalWeightBytes() / (1024.0 * 1024.0));

    core::DjinnServer server(registry, config);
    Status started = server.start();
    if (!started.isOk()) {
        std::fprintf(stderr, "cannot start: %s\n",
                     started.toString().c_str());
        return 1;
    }
    std::printf("djinnd listening on %s:%u (batching %s, "
                "%d compute threads)\n",
                config.bindAddress.c_str(), server.port(),
                config.batching ? "on" : "off",
                common::computeThreads());
    if (config.httpPort >= 0) {
        std::printf("http endpoint on %s:%u "
                    "(/healthz /metrics /trace /profile "
                    "/debug/timeseries)\n",
                    config.bindAddress.c_str(), server.httpPort());
        std::printf("live dashboard: djinn_cli %s %u top\n",
                    config.bindAddress.c_str(), server.port());
    }

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (!g_stop)
        ::pause();

    std::printf("shutting down after %lu requests\n",
                static_cast<unsigned long>(server.requestsServed()));
    server.stop();
    if (metrics_dump) {
        auto samples = server.metrics().snapshot();
        std::fputs(metrics_json
                       ? telemetry::renderJson(samples).c_str()
                       : telemetry::renderPrometheus(samples)
                             .c_str(),
                   stdout);
    }
    return 0;
}
