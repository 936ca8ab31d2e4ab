/**
 * @file
 * cluster_sim - drive the cluster-scale serving simulator from the
 * command line.
 *
 * Usage:
 *   cluster_sim [--nodes N] [--gpus-per-node N] [--policy P]
 *               [--workload poisson|diurnal|mmpp] [--rate QPS]
 *               [--duration SECONDS] [--requests N] [--batch N]
 *               [--queue-depth N]
 *               [--slo-ms MS] [--retries N] [--seed N]
 *               [--sched static|adaptive|fair|hybrid]
 *               [--tenant APP=WEIGHT[,APP=WEIGHT...]]
 *               [--apps IMC,ASR,...] [--sample-ms MS] [--json]
 *
 * Generates a synthetic open-loop trace over the Tonic mix (all
 * seven apps by default), replays it through N simulated DjiNN
 * servers behind the chosen routing policy, and prints a summary
 * table, or — with --json — the full djinn_cluster_* metric
 * snapshot (including the sampled time series) as the registry's
 * JSON exposition. Fully deterministic: the same flags and seed print
 * byte-identical output, which scripts/check_build.sh relies on.
 *
 * Policies: rr (round-robin), jsq (join-shortest-queue), po2
 * (power of two choices), jsq-d / po2-d (deadline-aware variants;
 * they shed requests whose SLO no node can meet). Deadline-aware
 * policies need --slo-ms.
 *
 * --sched selects the node-local dispatch policy (DESIGN.md §16):
 * static (tuned batches, round-robin — the default), adaptive
 * (SLO-driven batch sizing), fair (weighted fair sharing across
 * tenants from --tenant), or hybrid (both). --tenant APP=WEIGHT
 * gives APP its own tenant at that fair-share weight; unlisted
 * apps share the default tenant at weight 1.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/simulator.hh"
#include "cluster/telemetry.hh"
#include "cluster/workload.hh"
#include "common/logging.hh"
#include "common/strings.hh"
#include "serve/app.hh"
#include "telemetry/attribution.hh"
#include "telemetry/exposition.hh"

using namespace djinn;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: cluster_sim [--nodes N] [--gpus-per-node N]\n"
        "    [--policy rr|jsq|po2|jsq-d|po2-d]\n"
        "    [--workload poisson|diurnal|mmpp] [--rate QPS]\n"
        "    [--duration SECONDS] [--requests N] [--batch N]\n"
        "    [--queue-depth N]\n"
        "    [--slo-ms MS] [--retries N] [--seed N]\n"
        "    [--sched static|adaptive|fair|hybrid]\n"
        "    [--tenant APP=WEIGHT[,APP=WEIGHT...]]\n"
        "    [--apps IMC,ASR,...] [--sample-ms MS] [--json]\n");
    return 2;
}

double
parseDouble(const char *flag, const char *value)
{
    char *end = nullptr;
    double parsed = std::strtod(value, &end);
    if (end == value || *end != '\0')
        fatal("%s: not a number: '%s'", flag, value);
    return parsed;
}

long
parseLong(const char *flag, const char *value)
{
    char *end = nullptr;
    long parsed = std::strtol(value, &end, 10);
    if (end == value || *end != '\0')
        fatal("%s: not an integer: '%s'", flag, value);
    return parsed;
}

} // namespace

int
main(int argc, char **argv)
{
    cluster::WorkloadSpec workload;
    cluster::ClusterConfig config;
    bool json = false;

    workload.apps = serve::allApps();
    workload.durationSeconds = 10.0;
    workload.meanRate = 2000.0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--nodes") {
            config.nodeCount = static_cast<int>(
                parseLong("--nodes", value()));
        } else if (arg == "--gpus-per-node") {
            config.node.gpus = static_cast<int>(
                parseLong("--gpus-per-node", value()));
        } else if (arg == "--policy") {
            config.policy = cluster::routePolicyFromName(value());
        } else if (arg == "--workload") {
            workload.process =
                cluster::arrivalProcessFromName(value());
        } else if (arg == "--rate") {
            workload.meanRate = parseDouble("--rate", value());
        } else if (arg == "--duration") {
            workload.durationSeconds =
                parseDouble("--duration", value());
        } else if (arg == "--requests") {
            workload.maxRequests = static_cast<uint64_t>(
                parseLong("--requests", value()));
        } else if (arg == "--batch") {
            config.node.maxBatch = parseLong("--batch", value());
        } else if (arg == "--queue-depth") {
            config.node.queueLimit =
                parseLong("--queue-depth", value());
        } else if (arg == "--slo-ms") {
            config.deadlineSeconds =
                1e-3 * parseDouble("--slo-ms", value());
            config.node.sloSeconds = config.deadlineSeconds;
        } else if (arg == "--sched") {
            std::string mode = value();
            if (mode == "static") {
                config.node.adaptiveBatch = false;
                config.node.fairShare = false;
            } else if (mode == "adaptive") {
                config.node.adaptiveBatch = true;
            } else if (mode == "fair") {
                config.node.fairShare = true;
            } else if (mode == "hybrid") {
                config.node.adaptiveBatch = true;
                config.node.fairShare = true;
            } else {
                fatal("--sched wants static|adaptive|fair|hybrid, "
                      "got '%s'", mode.c_str());
            }
        } else if (arg == "--tenant") {
            for (const std::string &pair : split(value(), ',')) {
                size_t eq = pair.find('=');
                if (eq == std::string::npos || eq == 0)
                    fatal("--tenant wants APP=WEIGHT pairs, got "
                          "'%s'", pair.c_str());
                double weight =
                    parseDouble("--tenant", pair.c_str() + eq + 1);
                if (weight <= 0.0)
                    fatal("--tenant weight must be positive");
                // Validate the app name eagerly for a clear error.
                serve::App app =
                    serve::appFromName(pair.substr(0, eq));
                config.node.tenantWeights[serve::appName(app)] =
                    weight;
            }
        } else if (arg == "--retries") {
            config.retry.maxAttempts = 1 + static_cast<int>(
                parseLong("--retries", value()));
        } else if (arg == "--seed") {
            workload.seed = static_cast<uint64_t>(
                parseLong("--seed", value()));
            config.seed = workload.seed;
        } else if (arg == "--apps") {
            workload.apps.clear();
            for (const std::string &name : split(value(), ','))
                workload.apps.push_back(serve::appFromName(name));
        } else if (arg == "--sample-ms") {
            config.sampleInterval =
                1e-3 * parseDouble("--sample-ms", value());
        } else if (arg == "--json") {
            json = true;
        } else {
            return usage();
        }
    }

    cluster::ClusterTrace trace =
        cluster::generateTrace(workload);
    cluster::ClusterResult result =
        cluster::runClusterSim(config, trace);

    char scenario[128];
    std::snprintf(scenario, sizeof(scenario),
                  "nodes=%d,gpus=%d,workload=%s,rate=%g",
                  config.nodeCount, config.node.gpus,
                  cluster::arrivalProcessName(workload.process),
                  workload.meanRate);

    if (json) {
        telemetry::MetricRegistry registry;
        cluster::recordClusterResult(registry, scenario, config,
                                     result,
                                     /*includeSeries=*/true);
        std::fputs(
            telemetry::renderJson(registry.snapshot()).c_str(),
            stdout);
        return 0;
    }

    std::printf("cluster_sim: %s policy=%s\n", scenario,
                cluster::routePolicyName(config.policy));
    std::printf("  offered      %llu requests (%.1f qps over "
                "%.2fs)\n",
                static_cast<unsigned long long>(result.offered),
                result.offeredQps, result.traceDuration);
    std::printf("  completed    %llu (%.1f qps, drained at "
                "%.2fs)\n",
                static_cast<unsigned long long>(result.completed),
                result.throughputQps, result.duration);
    std::printf("  shed         %llu overload, %llu deadline; "
                "%llu retries; %llu lost (%.2f%%)\n",
                static_cast<unsigned long long>(
                    result.shedOverload),
                static_cast<unsigned long long>(
                    result.shedDeadline),
                static_cast<unsigned long long>(result.retries),
                static_cast<unsigned long long>(result.lost),
                100.0 * result.lostFraction());
    std::printf("  latency      mean %.2fms  p50 %.2fms  "
                "p95 %.2fms  p99 %.2fms  p99.9 %.2fms\n",
                1e3 * result.latency.mean, 1e3 * result.latency.p50,
                1e3 * result.latency.p95, 1e3 * result.latency.p99,
                1e3 * result.latency.p999);
    std::printf("  batching     %llu batches, %.2f queries/batch; "
                "occupancy %.2f\n",
                static_cast<unsigned long long>(result.batches),
                result.meanBatchQueries, result.occupancy);
    std::printf("  queue depth  mean %.1f, max on one node %lld\n",
                result.meanQueueDepth,
                static_cast<long long>(result.maxNodeQueueDepth));
    std::printf("  events       %llu fired, trace hash "
                "%016llx\n",
                static_cast<unsigned long long>(result.eventsFired),
                static_cast<unsigned long long>(result.traceHash));

    std::printf("\n  %-6s %10s %10s %12s %12s\n", "app", "offered",
                "served", "p50 ms", "p99 ms");
    for (const cluster::AppClusterStats &app : result.apps) {
        std::printf("  %-6s %10llu %10llu %12.2f %12.2f\n",
                    serve::appName(app.app),
                    static_cast<unsigned long long>(app.offered),
                    static_cast<unsigned long long>(app.completed),
                    1e3 * app.latency.p50, 1e3 * app.latency.p99);
    }

    // Why is the p99 what it is? Same attribution engine as the
    // live server's /debug/tail, over this run's flight records.
    std::printf("\n%s",
                telemetry::renderTailReport(telemetry::attributeTail(
                                                result.flightRecords,
                                                99.0))
                    .c_str());
    return 0;
}
