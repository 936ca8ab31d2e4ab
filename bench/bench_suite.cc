/**
 * @file
 * bench_suite - the unified perf-regression runner (DESIGN.md §15).
 *
 * Executes the five measurement stages the BENCH_*.json
 * trajectories track, with fixed seeds, and emits one
 * schema-versioned JSON document:
 *
 *   1. GEMM kernels at DNN-relevant shapes, per precision
 *      (f32/bf16/int8; the served Kaldi utterance shape at f32 and
 *      int8 only; AlexNet fc6 at batch 16 and at batch 1, the two
 *      sides of the int8 AMX crossover) and compute-thread count,
 *      through the
 *      raw-operand entry points and through gemm_packed with the
 *      weights packed outside the timed region, as served
 *        -> djinn_bench_gemm_gflops{shape,precision,threads}
 *           djinn_bench_gemm_gflops{entry="packed",...}
 *      followed by a stderr report of the packed rates against the
 *      ROADMAP bars (int8 >= f32; 4-thread >= 2.5x 1-thread)
 *   2. A live loopback batching server (tiny model, real TCP) at
 *      batch sizes 1/16/64, quantiled from the same
 *      djinn_request_seconds histogram production scrapes read
 *        -> djinn_bench_service_seconds{batch,stat=p50|p99}
 *   3. Deterministic cluster-simulator experiments per routing
 *      policy (flat service model, fixed trace seed) — bit-exact
 *      across runs, so compare uses a zero-noise threshold
 *        -> djinn_bench_cluster_latency_seconds{policy,stat}
 *           djinn_bench_cluster_shed_fraction{policy}
 *           djinn_bench_cluster_throughput_qps{policy}
 *   4. The ASR front end (log-mel filterbank over the radix-2 FFT,
 *      then context splicing) on a Table 3 utterance, best of N
 *        -> djinn_bench_tonic_seconds{stage="asr_features",frames}
 *   5. Whole forwards of every zoo model at its Table 3 batch
 *      (queries per pass times rows per query), and AlexNet's five
 *      conv layers at batch 1, f32 and int8 at 1 and 2 compute
 *      threads, best of N forwards each, timed per layer by a
 *      VectorProfileSink
 *        -> djinn_bench_nn_seconds{model,part="forward",
 *                                  precision,threads}
 *           djinn_bench_nn_seconds{model="alexnet",part="conv",
 *                                  precision,threads}
 *      followed by a stderr report of the conv GFLOPS per core
 *      against the ROADMAP bars (f32 >= 60; int8 >= f32)
 *
 * Usage:
 *   bench_suite [--quick] [--seed N] [--out FILE]
 *
 * --quick shrinks shapes, repetitions, and client counts so CI can
 * afford two back-to-back runs, and times the forwards of senna_pos
 * and mnist only; the emitted schema is identical.
 * Output is `{"bench_schema": 1, "quick": ..., "seed": ...,
 * "int8_kernel": ..., "samples": [{"id": ..., "value": ...}, ...]}`
 * with samples in a fixed stage order; int8_kernel names the fastest
 * int8 kernel the process could run (amx, vnni or scalar), which
 * every int8 product from the AMX crossover up ran on (DESIGN.md
 * §14). Feed two outputs to bench_compare to gate
 * regressions.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cluster/simulator.hh"
#include "cluster/telemetry.hh"
#include "cluster/workload.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/djinn_client.hh"
#include "core/djinn_server.hh"
#include "nn/gemm.hh"
#include "nn/gemm_internal.hh"
#include "nn/init.hh"
#include "nn/net_def.hh"
#include "nn/profile.hh"
#include "nn/quant.hh"
#include "nn/zoo.hh"
#include "serve/app.hh"
#include "telemetry/exposition.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/metrics.hh"
#include "tonic/audio.hh"

using namespace djinn;

namespace {

struct SuiteSample {
    std::string id;
    double value = 0.0;
};

struct SuiteConfig {
    bool quick = false;
    uint64_t seed = 42;
    std::string outPath; // empty = stdout
};

void
emitSample(std::vector<SuiteSample> &out, const char *name,
           const telemetry::LabelMap &labels, double value)
{
    out.push_back({telemetry::renderMetricId(name, labels), value});
}

std::vector<float>
randomVec(int64_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> out(static_cast<size_t>(n));
    for (auto &v : out)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return out;
}

/** Best-of-@p reps wall seconds for one invocation of @p fn. */
template <typename Fn>
double
bestSeconds(int reps, Fn &&fn)
{
    using Clock = std::chrono::steady_clock;
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        fn();
        double s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (s < best)
            best = s;
    }
    return best;
}

// ---------------------------------------------------------------
// Stage 1: GEMM kernel rates.

struct GemmShape {
    const char *name;
    int64_t m, n, k;
    bool bf16 = true; ///< also measure bf16
};

/** Packed-entry GFLOP/s by (shape, precision, threads). */
using RateTable =
    std::map<std::tuple<std::string, std::string, int>, double>;

/**
 * Print the packed rates against the ROADMAP's serving-shape GEMM
 * bars: int8 at least f32 at one thread, and 4 threads at least
 * 2.5x one thread at kaldi_hidden and alexnet_fc6. Measured and
 * reported, not asserted: the rates depend on the host.
 */
void
reportGemmBars(const std::vector<GemmShape> &shapes,
               const std::vector<int> &threadCounts,
               const RateTable &rate)
{
    auto at = [&](const char *shape, const char *precision,
                  int threads) {
        auto it = rate.find({shape, precision, threads});
        return it == rate.end() ? 0.0 : it->second;
    };
    std::fprintf(stderr, "bench_suite: packed GEMM vs ROADMAP bars\n");
    for (const GemmShape &shape : shapes) {
        double f32 = at(shape.name, "f32", 1);
        double int8 = at(shape.name, "int8", 1);
        std::fprintf(stderr,
                     "  %-13s int8/f32 at 1 thread: %6.1f / %6.1f "
                     "GF = %.2fx (bar >= 1.00x)\n",
                     shape.name, int8, f32, f32 > 0 ? int8 / f32 : 0.0);
    }
    int most = threadCounts.back();
    for (const GemmShape &shape : shapes) {
        std::string name = shape.name;
        if (name != "kaldi_hidden" && name != "alexnet_fc6")
            continue;
        for (const char *precision : {"f32", "bf16", "int8"}) {
            double one = at(shape.name, precision, 1);
            double four = at(shape.name, precision, 4);
            std::fprintf(stderr,
                         "  %-13s %-4s 1->4 threads: %6.1f -> %6.1f "
                         "GF = %.2fx (bar >= 2.50x; pool max %d)\n",
                         shape.name, precision, one, four,
                         one > 0 ? four / one : 0.0, most);
        }
    }
}

void
runGemmStage(const SuiteConfig &config,
             std::vector<SuiteSample> &out)
{
    RateTable packedRate;
    const std::vector<GemmShape> shapes =
        config.quick
            ? std::vector<GemmShape>{{"senna_fc1", 28, 600, 250},
                                     {"square512", 512, 512, 512}}
            : std::vector<GemmShape>{{"senna_fc1", 28, 600, 250},
                                     {"kaldi_hidden", 64, 2048,
                                      2048},
                                     {"alexnet_fc6", 16, 4096,
                                      9216},
                                     {"alexnet_fc6_b1", 1, 4096,
                                      9216},
                                     {"square512", 512, 512, 512},
                                     {"kaldi_utt", 198, 2048, 2048,
                                      false}};
    const std::vector<int> threadCounts =
        config.quick ? std::vector<int>{1, 4}
                     : std::vector<int>{1, 2, 4, 8};
    const int reps = config.quick ? 3 : 5;

    for (const GemmShape &shape : shapes) {
        auto a = randomVec(shape.m * shape.k, config.seed + 11);
        auto b = randomVec(shape.k * shape.n, config.seed + 12);
        std::vector<float> c(
            static_cast<size_t>(shape.m * shape.n));
        const double flops =
            2.0 * shape.m * shape.n * static_cast<double>(shape.k);

        // int8 operands: weights pre-quantized per output column,
        // activations quantized inside the timed call — the serving
        // cost split (DESIGN.md §14).
        std::vector<int8_t> b8(b.size());
        std::vector<float> b_scales(static_cast<size_t>(shape.n));
        for (int64_t j = 0; j < shape.n; ++j) {
            float col_max = 0.0f;
            for (int64_t p = 0; p < shape.k; ++p)
                col_max = std::max(col_max,
                                   std::fabs(b[p * shape.n + j]));
            nn::QuantParams wq =
                nn::QuantParams::symmetricS8(col_max);
            b_scales[static_cast<size_t>(j)] = wq.scale;
            for (int64_t p = 0; p < shape.k; ++p)
                b8[p * shape.n + j] = static_cast<int8_t>(
                    wq.quantize(b[p * shape.n + j]));
        }
        float a_lo, a_hi;
        nn::minMax(a.data(), static_cast<int64_t>(a.size()), &a_lo,
                   &a_hi);
        nn::QuantParams aq = nn::QuantParams::affineU8(a_lo, a_hi);

        // The served layout: weights packed once, outside the timed
        // region, in the fully connected orientation.
        nn::PackedWeights packedF32, packedBf16, packedInt8;
        packedF32.pack(nn::Precision::F32, nn::Trans::No, shape.k,
                       shape.n, b.data(), shape.n);
        packedBf16.pack(nn::Precision::Bf16, nn::Trans::No, shape.k,
                        shape.n, b.data(), shape.n);
        packedInt8.pack(nn::Precision::Int8, nn::Trans::No, shape.k,
                        shape.n, b.data(), shape.n, b_scales.data());
        auto packedRun = [&](const nn::PackedWeights &w) {
            return [&]() {
                nn::gemm_packed(nn::Trans::No, shape.m, 1.0f, a.data(),
                                shape.k, w, 0.0f, c.data(), shape.n,
                                aq);
            };
        };

        struct PrecisionRun {
            const char *name;
            const char *entry; ///< null for the raw-operand entry
            std::function<void()> run;
        };
        const PrecisionRun runs[] = {
            {"f32", nullptr,
             [&]() {
                 nn::sgemm(shape.m, shape.n, shape.k, a.data(),
                           b.data(), c.data());
             }},
            {"bf16", nullptr,
             [&]() {
                 nn::gemm_bf16(nn::Trans::No, nn::Trans::No,
                               shape.m, shape.n, shape.k, 1.0f,
                               a.data(), shape.k, b.data(), shape.n,
                               0.0f, c.data(), shape.n);
             }},
            {"int8", nullptr,
             [&]() {
                 nn::gemm_s8(nn::Trans::No, nn::Trans::No, shape.m,
                             shape.n, shape.k, 1.0f, a.data(),
                             shape.k, aq, b8.data(), shape.n,
                             b_scales.data(), 0.0f, c.data(),
                             shape.n);
             }},
            {"f32", "packed", packedRun(packedF32)},
            {"bf16", "packed", packedRun(packedBf16)},
            {"int8", "packed", packedRun(packedInt8)},
        };
        for (const PrecisionRun &pr : runs) {
            if (!shape.bf16 && std::strcmp(pr.name, "bf16") == 0)
                continue;
            for (int threads : threadCounts) {
                common::setComputeThreads(threads);
                pr.run(); // warm the pool and pack buffers
                double secs = bestSeconds(reps, pr.run);
                telemetry::LabelMap labels = {
                    {"precision", pr.name},
                    {"shape", shape.name},
                    {"threads", std::to_string(threads)}};
                if (pr.entry) {
                    labels.emplace("entry", pr.entry);
                    packedRate[{shape.name, pr.name, threads}] =
                        flops / secs / 1e9;
                }
                emitSample(out, "djinn_bench_gemm_gflops", labels,
                           flops / secs / 1e9);
            }
            common::setComputeThreads(0);
        }
    }
    reportGemmBars(shapes, threadCounts, packedRate);
}

// ---------------------------------------------------------------
// Stage 2: live loopback service latency per batch size.

void
runServiceStage(const SuiteConfig &config,
                std::vector<SuiteSample> &out)
{
    const int threads = config.quick ? 2 : 4;
    const int perThread = config.quick ? 32 : 64;

    for (int64_t batch : {int64_t{1}, int64_t{16}, int64_t{64}}) {
        core::ModelRegistry registry;
        auto net = nn::parseNetDefOrDie(
            "name tiny\ninput 1 4 4\nlayer fc fc out 8\n");
        nn::initializeWeights(*net, config.seed);
        (void)registry.add(std::move(net));

        core::ServerConfig server_config;
        server_config.batching = true;
        server_config.batchOptions.maxQueries = batch;
        core::DjinnServer server(registry, server_config);
        if (!server.start().isOk()) {
            std::fprintf(stderr,
                         "bench_suite: cannot start loopback "
                         "server (batch %lld)\n",
                         static_cast<long long>(batch));
            continue;
        }

        std::vector<std::thread> clients;
        for (int t = 0; t < threads; ++t) {
            clients.emplace_back([&server, perThread]() {
                core::DjinnClient client;
                if (!client.connect("127.0.0.1", server.port())
                         .isOk())
                    return;
                std::vector<float> payload(16, 0.5f);
                for (int i = 0; i < perThread; ++i)
                    (void)client.infer("tiny", 1, payload);
            });
        }
        for (auto &c : clients)
            c.join();
        server.stop();

        for (const telemetry::MetricSample &sample :
             server.metrics().snapshot()) {
            if (sample.name != telemetry::requestSecondsMetricName)
                continue;
            if (sample.kind != telemetry::MetricKind::Histogram)
                continue;
            telemetry::LabelMap labels{
                {"batch", std::to_string(batch)}};
            labels["stat"] = "p50";
            emitSample(out, "djinn_bench_service_seconds", labels,
                       sample.histogram.quantile(0.50));
            labels["stat"] = "p99";
            emitSample(out, "djinn_bench_service_seconds", labels,
                       sample.histogram.quantile(0.99));
            break;
        }
    }
}

// ---------------------------------------------------------------
// Stage 3: deterministic cluster-simulator ablations.

void
runClusterStage(const SuiteConfig &config,
                std::vector<SuiteSample> &out)
{
    cluster::WorkloadSpec spec;
    spec.apps = {serve::App::IMC, serve::App::DIG, serve::App::ASR};
    spec.process = cluster::ArrivalProcess::Poisson;
    spec.meanRate = config.quick ? 2000.0 : 4000.0;
    spec.durationSeconds = config.quick ? 3.0 : 6.0;
    spec.seed = config.seed;
    cluster::ClusterTrace trace = cluster::generateTrace(spec);

    for (cluster::RoutePolicy policy :
         {cluster::RoutePolicy::RoundRobin,
          cluster::RoutePolicy::JoinShortestQueue,
          cluster::RoutePolicy::DeadlineJsq}) {
        cluster::ClusterConfig cc;
        cc.nodeCount = 4;
        cc.node.gpus = 1;
        cc.node.maxBatch = 4;
        cc.policy = policy;
        cc.sampleInterval = 0.1;
        cc.deadlineSeconds =
            policy == cluster::RoutePolicy::DeadlineJsq ? 0.05
                                                        : 0.0;
        // Flat 1 ms/query service model: no calibration tables in
        // the loop, so the whole stage is pure virtual time and
        // bit-identical across runs and hosts.
        cc.serviceModel = [](serve::App, int64_t queries) {
            return static_cast<double>(queries) * 1e-3;
        };
        cc.seed = config.seed;
        cluster::ClusterResult result =
            cluster::runClusterSim(cc, trace);

        const telemetry::LabelMap base{
            {"policy", cluster::routePolicyName(policy)}};
        telemetry::LabelMap labels = base;
        labels["stat"] = "p50";
        emitSample(out, "djinn_bench_cluster_latency_seconds",
                   labels, result.latency.p50);
        labels["stat"] = "p99";
        emitSample(out, "djinn_bench_cluster_latency_seconds",
                   labels, result.latency.p99);
        emitSample(out, "djinn_bench_cluster_shed_fraction", base,
                   result.offered
                       ? static_cast<double>(result.shedOverload +
                                             result.shedDeadline) /
                             static_cast<double>(result.offered)
                       : 0.0);
        emitSample(out, "djinn_bench_cluster_throughput_qps", base,
                   result.throughputQps);
    }

    // The hybrid node-local dispatch policy (DESIGN.md §16):
    // SLO-driven adaptive batch sizing plus weighted fair sharing
    // across tenants, replayed over the same trace. Pure virtual
    // time like the stages above, so bench_compare guards these
    // numbers at zero noise.
    {
        cluster::ClusterConfig cc;
        cc.nodeCount = 4;
        cc.node.gpus = 1;
        cc.node.maxBatch = 4;
        cc.policy = cluster::RoutePolicy::JoinShortestQueue;
        cc.sampleInterval = 0.1;
        cc.deadlineSeconds = 0.05;
        cc.node.sloSeconds = cc.deadlineSeconds;
        cc.node.adaptiveBatch = true;
        cc.node.fairShare = true;
        cc.node.tenantWeights["IMC"] = 2.0;
        cc.serviceModel = [](serve::App, int64_t queries) {
            return static_cast<double>(queries) * 1e-3;
        };
        cc.seed = config.seed;
        cluster::ClusterResult result =
            cluster::runClusterSim(cc, trace);

        const telemetry::LabelMap base{{"policy", "hybrid"}};
        telemetry::LabelMap labels = base;
        labels["stat"] = "p50";
        emitSample(out, "djinn_bench_cluster_latency_seconds",
                   labels, result.latency.p50);
        labels["stat"] = "p99";
        emitSample(out, "djinn_bench_cluster_latency_seconds",
                   labels, result.latency.p99);
        emitSample(out, "djinn_bench_cluster_shed_fraction", base,
                   result.offered
                       ? static_cast<double>(result.shedOverload +
                                             result.shedDeadline) /
                             static_cast<double>(result.offered)
                       : 0.0);
        emitSample(out, "djinn_bench_cluster_throughput_qps", base,
                   result.throughputQps);
    }
}

// ---------------------------------------------------------------
// Stage 4: the ASR front end, the Tonic pre-processing that feeds
// the Kaldi acoustic model.

void
runTonicStage(const SuiteConfig &config,
              std::vector<SuiteSample> &out)
{
    // Table 3: one ASR query is 548 feature vectors, 5.5 s of audio
    // at the 10 ms shift.
    Rng rng(config.seed);
    const std::vector<float> samples =
        tonic::synthesizeUtterance(5.5, rng);
    const tonic::FeatureConfig features;
    int64_t frames = 0;
    double secs = bestSeconds(config.quick ? 3 : 10, [&]() {
        nn::Tensor spliced = tonic::spliceFrames(
            tonic::filterbankFeatures(samples, features),
            features.spliceContext);
        frames = spliced.shape().n();
    });
    emitSample(out, "djinn_bench_tonic_seconds",
               {{"stage", "asr_features"},
                {"frames", std::to_string(frames)}},
               secs);
}

// ---------------------------------------------------------------
// Stage 5: whole zoo forwards, and AlexNet's conv stack, the
// largest part of its batch-1 forward.

/** Best-of-N times of one network's profiled forwards. */
struct ForwardTimes {
    double forward = 1e300; ///< wall seconds of the whole forward
    double conv = 1e300;    ///< the conv layers' share
    double convFlops = 0.0;
};

/**
 * Best-of-@p reps times of @p net's forward over @p rows rows of
 * seeded inputs, each forward timed per layer by a VectorProfileSink.
 */
ForwardTimes
bestForwardTimes(const nn::Network &net, int64_t rows, int reps,
                 uint64_t seed)
{
    using Clock = std::chrono::steady_clock;
    nn::Tensor in(net.inputShape().withBatch(rows));
    std::vector<float> values = randomVec(in.elems(), seed);
    std::copy(values.begin(), values.end(), in.data());
    ForwardTimes best;
    for (int r = 0; r < reps; ++r) {
        nn::VectorProfileSink sink;
        auto t0 = Clock::now();
        net.forward(in, &sink);
        best.forward = std::min(
            best.forward,
            std::chrono::duration<double>(Clock::now() - t0).count());
        double secs = 0.0;
        best.convFlops = 0.0;
        for (const nn::LayerProfile &layer : sink.profiles()) {
            if (layer.kind != nn::LayerKind::Convolution)
                continue;
            secs += layer.seconds;
            best.convFlops += static_cast<double>(layer.flops);
        }
        best.conv = std::min(best.conv, secs);
    }
    return best;
}

void
runNnStage(const SuiteConfig &config, std::vector<SuiteSample> &out)
{
    const int reps = config.quick ? 3 : 8;
    const int threadCounts[] = {1, 2};
    auto labels = [](const char *model, const char *part,
                     nn::Precision precision, int threads) {
        return telemetry::LabelMap{
            {"model", model},
            {"part", part},
            {"precision", nn::precisionName(precision)},
            {"threads", std::to_string(threads)}};
    };
    std::map<std::pair<nn::Precision, int>, double> perCore;
    for (nn::Precision precision :
         {nn::Precision::F32, nn::Precision::Int8}) {
        // Each app's model at its Table 3 batch: one combined pass
        // of tunedBatch queries.
        for (serve::App app : serve::allApps()) {
            const serve::AppSpec &spec = serve::appSpec(app);
            if (config.quick && spec.model != nn::zoo::Model::SennaPos &&
                spec.model != nn::zoo::Model::Mnist)
                continue;
            nn::NetworkPtr net =
                nn::zoo::build(spec.model, precision, config.seed);
            for (int threads : threadCounts) {
                common::setComputeThreads(threads);
                ForwardTimes t = bestForwardTimes(
                    *net, spec.tunedBatch * spec.samplesPerQuery, reps,
                    config.seed + 21);
                emitSample(out, "djinn_bench_nn_seconds",
                           labels(nn::zoo::modelName(spec.model),
                                  "forward", precision, threads),
                           t.forward);
            }
        }

        nn::NetworkPtr alexnet = nn::zoo::build(
            nn::zoo::Model::AlexNet, precision, config.seed);
        for (int threads : threadCounts) {
            common::setComputeThreads(threads);
            ForwardTimes t =
                bestForwardTimes(*alexnet, 1, reps, config.seed + 21);
            perCore[{precision, threads}] =
                t.convFlops / t.conv / 1e9 / threads;
            emitSample(out, "djinn_bench_nn_seconds",
                       labels("alexnet", "conv", precision, threads),
                       t.conv);
        }
        common::setComputeThreads(0);
    }
    // Measured and reported, not asserted: rates depend on the host.
    std::fprintf(stderr,
                 "bench_suite: AlexNet conv vs ROADMAP bars\n");
    for (int threads : threadCounts) {
        double f32 = perCore[{nn::Precision::F32, threads}];
        double int8 = perCore[{nn::Precision::Int8, threads}];
        std::fprintf(stderr,
                     "  %d thread(s): f32 %6.1f GF/core (bar >= 60), "
                     "int8 %6.1f GF/core = %.2fx f32 (bar >= 1.00x)\n",
                     threads, f32, int8, f32 > 0 ? int8 / f32 : 0.0);
    }
}

std::string
renderSuiteJson(const SuiteConfig &config,
                const std::vector<SuiteSample> &samples)
{
    std::string out = "{\n  \"bench_schema\": 1,\n";
    out += config.quick ? "  \"quick\": true,\n"
                        : "  \"quick\": false,\n";
    out += "  \"seed\": " + std::to_string(config.seed) + ",\n";
    out += "  \"int8_kernel\": \"";
    out += nn::detail::s8KernelName(nn::detail::s8Kernels().back());
    out += "\",\n";
    out += "  \"samples\": [\n";
    for (size_t i = 0; i < samples.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.9g",
                      samples[i].value);
        out += "    {\"id\": \"" +
               telemetry::jsonEscape(samples[i].id) +
               "\", \"value\": " + value + "}";
        out += i + 1 < samples.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: bench_suite [--quick] [--seed N] [--out FILE]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    SuiteConfig config;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            config.quick = true;
        } else if (arg == "--seed" && i + 1 < argc) {
            config.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--out" && i + 1 < argc) {
            config.outPath = argv[++i];
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

    std::vector<SuiteSample> samples;
    std::fprintf(stderr, "bench_suite: gemm stage...\n");
    runGemmStage(config, samples);
    std::fprintf(stderr, "bench_suite: service stage...\n");
    runServiceStage(config, samples);
    std::fprintf(stderr, "bench_suite: cluster stage...\n");
    runClusterStage(config, samples);
    std::fprintf(stderr, "bench_suite: tonic stage...\n");
    runTonicStage(config, samples);
    std::fprintf(stderr, "bench_suite: nn stage...\n");
    runNnStage(config, samples);

    std::string json = renderSuiteJson(config, samples);
    if (config.outPath.empty()) {
        std::fputs(json.c_str(), stdout);
        return 0;
    }
    std::FILE *f = std::fopen(config.outPath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     config.outPath.c_str());
        return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "bench_suite: wrote %zu samples to %s\n",
                 samples.size(), config.outPath.c_str());
    return 0;
}
