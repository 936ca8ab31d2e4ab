/**
 * @file
 * bench_compare - diff two bench_suite JSON documents and exit
 * nonzero on a perf regression (DESIGN.md §15).
 *
 * Usage:
 *   bench_compare BASELINE.json CANDIDATE.json
 *   bench_compare --self-test
 *
 * Thresholds are direction- and noise-aware, keyed on the sample
 * id's metric family:
 *
 *   djinn_bench_gemm_gflops      higher is better; fail when the
 *                                candidate drops below 50% of the
 *                                baseline (thread scheduling and
 *                                turbo make tighter bounds flaky)
 *   djinn_bench_service_seconds  lower is better; fail when the
 *   djinn_bench_tonic_seconds    candidate exceeds 1.5x baseline
 *   djinn_bench_nn_seconds       plus a 5 ms absolute floor
 *   djinn_bench_cluster_*        virtual-time simulation, bit-
 *                                identical by contract; any
 *                                relative difference above 1e-9
 *                                fails
 *
 * A sample present in the baseline but missing from the candidate
 * is a failure (a silently dropped benchmark is a regression in
 * coverage); candidate-only samples are reported but pass. Exit
 * status: 0 = no regression, 1 = regression, 2 = usage or parse
 * error. --self-test runs built-in synthetic cases (identity must
 * pass; an injected regression per family must fail) and exits
 * nonzero if the comparator misclassifies any.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace {

struct BenchSample {
    std::string id;
    double value = 0.0;
};

/**
 * Minimal parser for the bench_suite document: scans for
 * `"id": "..."` / `"value": N` pairs, honoring backslash escapes
 * inside the id string (metric ids contain quoted label values).
 * Returns false on malformed input.
 */
bool
parseBenchJson(const std::string &text,
               std::vector<BenchSample> &out)
{
    if (text.find("\"bench_schema\": 1") == std::string::npos)
        return false;
    const std::string idKey = "\"id\": \"";
    const std::string valueKey = "\"value\": ";
    size_t pos = 0;
    while ((pos = text.find(idKey, pos)) != std::string::npos) {
        pos += idKey.size();
        std::string id;
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\' && pos + 1 < text.size())
                ++pos; // keep the escaped character
            id += text[pos++];
        }
        if (pos >= text.size())
            return false;
        size_t vpos = text.find(valueKey, pos);
        if (vpos == std::string::npos)
            return false;
        char *end = nullptr;
        double value =
            std::strtod(text.c_str() + vpos + valueKey.size(), &end);
        if (end == text.c_str() + vpos + valueKey.size())
            return false;
        out.push_back({id, value});
        pos = vpos;
    }
    return true;
}

bool
readFile(const char *path, std::string &out)
{
    std::FILE *f = std::fopen(path, "rb");
    if (!f)
        return false;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return true;
}

enum class Direction {
    HigherBetter, ///< gemm throughput
    LowerBetter,  ///< service latency, tonic and nn stage times
    Exact,        ///< deterministic simulation
};

Direction
directionFor(const std::string &id)
{
    if (id.find("djinn_bench_gemm_gflops") != std::string::npos)
        return Direction::HigherBetter;
    if (id.find("djinn_bench_cluster_latency_seconds") !=
            std::string::npos ||
        id.find("djinn_bench_cluster_shed_fraction") !=
            std::string::npos ||
        id.find("djinn_bench_cluster_throughput_qps") !=
            std::string::npos)
        return Direction::Exact;
    return Direction::LowerBetter;
}

/** True when (oldValue -> newValue) is a regression for @p id. */
bool
isRegression(const std::string &id, double oldValue,
             double newValue, std::string *why)
{
    char buf[256];
    switch (directionFor(id)) {
    case Direction::HigherBetter:
        if (oldValue > 0.0 && newValue < 0.5 * oldValue) {
            std::snprintf(buf, sizeof(buf),
                          "dropped %.3g -> %.3g (< 50%% of "
                          "baseline)",
                          oldValue, newValue);
            *why = buf;
            return true;
        }
        return false;
    case Direction::LowerBetter:
        if (newValue > 1.5 * oldValue + 5e-3) {
            std::snprintf(buf, sizeof(buf),
                          "grew %.3g -> %.3g (> 1.5x baseline "
                          "+ 5ms)",
                          oldValue, newValue);
            *why = buf;
            return true;
        }
        return false;
    case Direction::Exact: {
        double scale = std::fabs(oldValue) > 1.0
                           ? std::fabs(oldValue)
                           : 1.0;
        if (std::fabs(newValue - oldValue) > 1e-9 * scale) {
            std::snprintf(buf, sizeof(buf),
                          "deterministic value changed %.12g -> "
                          "%.12g",
                          oldValue, newValue);
            *why = buf;
            return true;
        }
        return false;
    }
    }
    return false;
}

/** Compare two parsed sample sets; returns the regression count. */
int
compareSamples(const std::vector<BenchSample> &baseline,
               const std::vector<BenchSample> &candidate,
               bool verbose)
{
    int regressions = 0;
    for (const BenchSample &oldSample : baseline) {
        const BenchSample *newSample = nullptr;
        for (const BenchSample &s : candidate) {
            if (s.id == oldSample.id) {
                newSample = &s;
                break;
            }
        }
        if (!newSample) {
            if (verbose)
                std::fprintf(stderr,
                             "REGRESSION %s: missing from "
                             "candidate\n",
                             oldSample.id.c_str());
            ++regressions;
            continue;
        }
        std::string why;
        if (isRegression(oldSample.id, oldSample.value,
                         newSample->value, &why)) {
            if (verbose)
                std::fprintf(stderr, "REGRESSION %s: %s\n",
                             oldSample.id.c_str(), why.c_str());
            ++regressions;
        }
    }
    if (verbose) {
        for (const BenchSample &s : candidate) {
            bool known = false;
            for (const BenchSample &oldSample : baseline)
                if (oldSample.id == s.id) {
                    known = true;
                    break;
                }
            if (!known)
                std::fprintf(stderr, "note: new sample %s\n",
                             s.id.c_str());
        }
    }
    return regressions;
}

/** Synthetic cases proving the comparator catches each regression
 * class and passes identity. Returns 0 when all behave. */
int
selfTest()
{
    const std::vector<BenchSample> baseline{
        {"djinn_bench_gemm_gflops{precision=\"f32\","
         "shape=\"square256\",threads=\"1\"}",
         40.0},
        {"djinn_bench_service_seconds{batch=\"16\",stat=\"p99\"}",
         0.002},
        {"djinn_bench_cluster_latency_seconds{policy=\"rr\","
         "stat=\"p99\"}",
         0.0123456789},
        {"djinn_bench_tonic_seconds{frames=\"548\","
         "stage=\"asr_features\"}",
         0.004},
        {"djinn_bench_nn_seconds{model=\"alexnet\",part=\"conv\","
         "precision=\"f32\",threads=\"1\"}",
         0.026},
    };
    int failures = 0;
    auto expect = [&](const char *what, bool got, bool want) {
        if (got != want) {
            std::fprintf(stderr, "self-test FAILED: %s\n", what);
            ++failures;
        }
    };

    // Identity must pass.
    expect("identity compare passes",
           compareSamples(baseline, baseline, false) == 0, true);

    // One injected regression per family must fail.
    auto mutate = [&](size_t i, double v) {
        std::vector<BenchSample> out = baseline;
        out[i].value = v;
        return out;
    };
    expect("gemm 70%% drop fails",
           compareSamples(baseline, mutate(0, 12.0), false) == 1,
           true);
    expect("gemm 20%% drop passes",
           compareSamples(baseline, mutate(0, 32.0), false) == 0,
           true);
    expect("service 10x latency fails",
           compareSamples(baseline, mutate(1, 0.02 + 5e-3), false)
               == 1,
           true);
    expect("service small jitter passes",
           compareSamples(baseline, mutate(1, 0.0025), false) == 0,
           true);
    expect("cluster drift fails",
           compareSamples(baseline, mutate(2, 0.0123457289), false)
               == 1,
           true);
    expect("tonic front end at O(N^2) again fails",
           compareSamples(baseline, mutate(3, 0.5), false) == 1,
           true);
    expect("conv stack at 2x fails",
           compareSamples(baseline, mutate(4, 0.052), false) == 1,
           true);
    expect("new sample passes",
           compareSamples({baseline.begin(), baseline.end() - 1},
                          baseline, false) == 0,
           true);
    expect("missing sample fails",
           compareSamples(baseline,
                          {baseline.begin(), baseline.end() - 1},
                          false) == 1,
           true);
    if (failures == 0)
        std::fprintf(stderr, "bench_compare self-test: ok\n");
    return failures;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0)
        return selfTest() == 0 ? 0 : 1;
    if (argc != 3) {
        std::fprintf(stderr,
                     "usage: bench_compare BASELINE.json "
                     "CANDIDATE.json\n"
                     "       bench_compare --self-test\n");
        return 2;
    }

    std::string oldText, newText;
    if (!readFile(argv[1], oldText)) {
        std::fprintf(stderr, "cannot read %s\n", argv[1]);
        return 2;
    }
    if (!readFile(argv[2], newText)) {
        std::fprintf(stderr, "cannot read %s\n", argv[2]);
        return 2;
    }
    std::vector<BenchSample> baseline, candidate;
    if (!parseBenchJson(oldText, baseline) || baseline.empty()) {
        std::fprintf(stderr, "%s: not a bench_suite document\n",
                     argv[1]);
        return 2;
    }
    if (!parseBenchJson(newText, candidate) || candidate.empty()) {
        std::fprintf(stderr, "%s: not a bench_suite document\n",
                     argv[2]);
        return 2;
    }

    int regressions = compareSamples(baseline, candidate, true);
    if (regressions > 0) {
        std::fprintf(stderr, "bench_compare: %d regression(s)\n",
                     regressions);
        return 1;
    }
    std::fprintf(stderr,
                 "bench_compare: %zu samples, no regressions\n",
                 baseline.size());
    return 0;
}
