/**
 * @file
 * Property-based tests on inference-library invariants: pooling
 * against a naive reference over a geometry sweep, convolution
 * linearity, batch-order independence, batch-composition
 * independence of each row's bits (in the network and through the
 * live batcher), and softmax invariances.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/batcher.hh"
#include "core/model_registry.hh"
#include "nn/init.hh"
#include "nn/layers/pooling.hh"
#include "nn/layers/convolution.hh"
#include "nn/layers/softmax.hh"
#include "nn/net_def.hh"
#include "nn/zoo.hh"
#include "telemetry/metrics.hh"

namespace djinn {
namespace nn {
namespace {

Tensor
randomTensor(const Shape &shape, uint64_t seed)
{
    Rng rng(seed);
    Tensor t(shape);
    for (int64_t i = 0; i < t.elems(); ++i)
        t[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
    return t;
}

// Pooling vs naive reference over a geometry sweep ------------------

struct PoolCase {
    int64_t size, kernel, stride, pad;
    bool max_pool;
};

// Names each case by its fields; without it gtest prints the raw
// bytes, padding included, so the test names change run to run.
void
PrintTo(const PoolCase &p, std::ostream *os)
{
    *os << (p.max_pool ? "max" : "avg") << "_size" << p.size
        << "_kernel" << p.kernel << "_stride" << p.stride << "_pad"
        << p.pad;
}

class PoolingProperty : public ::testing::TestWithParam<PoolCase>
{};

TEST_P(PoolingProperty, MatchesNaiveReference)
{
    PoolCase p = GetParam();
    PoolingLayer pool("pool",
                      p.max_pool ? LayerKind::MaxPool
                                 : LayerKind::AvgPool,
                      p.kernel, p.stride, p.pad);
    pool.setup(Shape(1, 2, p.size, p.size));
    Tensor in = randomTensor(Shape(2, 2, p.size, p.size),
                             p.size * 131 + p.kernel);
    Tensor out;
    pool.forward(in, out);

    const Shape &os = pool.outputShape();
    for (int64_t n = 0; n < 2; ++n) {
        for (int64_t c = 0; c < 2; ++c) {
            for (int64_t oh = 0; oh < os.h(); ++oh) {
                for (int64_t ow = 0; ow < os.w(); ++ow) {
                    double best = p.max_pool ? -1e30 : 0.0;
                    int64_t count = 0;
                    for (int64_t kh = 0; kh < p.kernel; ++kh) {
                        for (int64_t kw = 0; kw < p.kernel; ++kw) {
                            int64_t ih = oh * p.stride - p.pad + kh;
                            int64_t iw = ow * p.stride - p.pad + kw;
                            if (ih < 0 || ih >= p.size || iw < 0 ||
                                iw >= p.size) {
                                continue;
                            }
                            double v = in.at(n, c, ih, iw);
                            if (p.max_pool)
                                best = std::max(best, v);
                            else
                                best += v;
                            ++count;
                        }
                    }
                    if (!p.max_pool && count > 0)
                        best /= count;
                    ASSERT_NEAR(out.at(n, c, oh, ow), best, 1e-5)
                        << "at " << n << "," << c << "," << oh
                        << "," << ow;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PoolingProperty,
    ::testing::Values(PoolCase{8, 2, 2, 0, true},
                      PoolCase{8, 2, 2, 0, false},
                      PoolCase{9, 3, 2, 0, true},
                      PoolCase{9, 3, 2, 0, false},
                      PoolCase{7, 3, 3, 1, true},
                      PoolCase{7, 3, 3, 1, false},
                      PoolCase{13, 3, 2, 0, true},
                      PoolCase{5, 5, 1, 2, false},
                      PoolCase{6, 1, 1, 0, true}));

// Convolution linearity ----------------------------------------------

TEST(ConvProperty, LinearInInputWithoutBias)
{
    ConvolutionLayer conv("c", 4, 3, 1, 1, 1, false);
    conv.setup(Shape(1, 3, 8, 8));
    Rng rng(5);
    for (Tensor *param : conv.params()) {
        for (int64_t i = 0; i < param->elems(); ++i)
            (*param)[i] = static_cast<float>(rng.uniform(-1, 1));
    }
    Tensor x = randomTensor(Shape(1, 3, 8, 8), 6);
    Tensor scaled = x;
    for (int64_t i = 0; i < scaled.elems(); ++i)
        scaled[i] *= 3.0f;
    Tensor y1, y2;
    conv.forward(x, y1);
    conv.forward(scaled, y2);
    for (int64_t i = 0; i < y1.elems(); ++i)
        ASSERT_NEAR(y2[i], 3.0f * y1[i], 1e-3);
}

TEST(ConvProperty, AdditiveInInputWithoutBias)
{
    ConvolutionLayer conv("c", 2, 3, 1, 0, 1, false);
    conv.setup(Shape(1, 2, 6, 6));
    Rng rng(8);
    for (Tensor *param : conv.params()) {
        for (int64_t i = 0; i < param->elems(); ++i)
            (*param)[i] = static_cast<float>(rng.uniform(-1, 1));
    }
    Tensor a = randomTensor(Shape(1, 2, 6, 6), 10);
    Tensor b = randomTensor(Shape(1, 2, 6, 6), 11);
    Tensor sum(Shape(1, 2, 6, 6));
    for (int64_t i = 0; i < sum.elems(); ++i)
        sum[i] = a[i] + b[i];
    Tensor ya, yb, ys;
    conv.forward(a, ya);
    conv.forward(b, yb);
    conv.forward(sum, ys);
    for (int64_t i = 0; i < ys.elems(); ++i)
        ASSERT_NEAR(ys[i], ya[i] + yb[i], 1e-3);
}

// Batch-order independence -------------------------------------------

class BatchOrderProperty : public ::testing::TestWithParam<int>
{};

TEST_P(BatchOrderProperty, NetworkOutputIndependentOfRowOrder)
{
    auto net = parseNetDefOrDie(
        "name p\ninput 2 6 6\n"
        "layer c conv out 4 kernel 3 pad 1\n"
        "layer r relu\n"
        "layer p maxpool kernel 2 stride 2\n"
        "layer f fc out 5\n"
        "layer s softmax\n");
    initializeWeights(*net, 33);

    int batch = GetParam();
    Tensor in = randomTensor(Shape(batch, 2, 6, 6), 100 + batch);
    Tensor out = net->forward(in);

    // Reverse the batch and verify outputs reverse with it.
    Tensor reversed(in.shape());
    for (int64_t n = 0; n < batch; ++n) {
        std::copy(in.sample(n),
                  in.sample(n) + in.shape().sampleElems(),
                  reversed.sample(batch - 1 - n));
    }
    Tensor out_rev = net->forward(reversed);
    size_t row_bytes =
        static_cast<size_t>(out.shape().sampleElems()) * sizeof(float);
    for (int64_t n = 0; n < batch; ++n) {
        ASSERT_EQ(std::memcmp(out.sample(n),
                              out_rev.sample(batch - 1 - n), row_bytes),
                  0)
            << "row " << n;
    }
}

INSTANTIATE_TEST_SUITE_P(Batches, BatchOrderProperty,
                         ::testing::Values(1, 2, 3, 7, 16));

// Batch composition cannot change a row's bits -----------------------

/** AlexNet's fc6-fc8 shapes, standing alone. */
const char *const kAlexNetFcDef = "name alexnet_fc\ninput 256 6 6\n"
                                  "layer fc6 fc out 4096\n"
                                  "layer relu6 relu\n"
                                  "layer fc7 fc out 4096\n"
                                  "layer relu7 relu\n"
                                  "layer fc8 fc out 1000\n";

/**
 * AlexNet's conv front end in miniature: conv -> relu -> lrn ->
 * pool -> grouped conv, with a 15x15 first map (four row blocks of
 * the transposed product, the last a short edge) and a 300-deep
 * grouped patch (two f32 k slices).
 */
const char *const kAlexNetConvDef =
    "name alexnet_conv\ninput 3 67 67\n"
    "layer conv1 conv out 24 kernel 11 stride 4\n"
    "layer relu1 relu\n"
    "layer norm1 lrn size 5\n"
    "layer pool1 maxpool kernel 3 stride 2\n"
    "layer conv2 conv out 32 kernel 5 pad 2 group 2\n";

struct CompositionCase {
    const char *model; ///< a zoo model name, or a def above
    Precision precision;
};

std::ostream &
operator<<(std::ostream &os, const CompositionCase &c)
{
    return os << c.model << "/" << precisionName(c.precision);
}

class BatchCompositionProperty
    : public ::testing::TestWithParam<CompositionCase>
{};

/**
 * A query's answer must not depend on which other queries share
 * its batch: each row served alone (a batch of one, the live-row
 * kernel) must produce the same output bytes at every position of
 * a 9-row batch (one full MR = 8 row panel plus an edge row), at
 * every thread count.
 */
TEST_P(BatchCompositionProperty, RowBitsIndependentOfBatchPosition)
{
    struct PoolSizeGuard {
        ~PoolSizeGuard() { common::setComputeThreads(0); }
    } guard;
    const CompositionCase cs = GetParam();
    NetworkPtr net;
    std::string model = cs.model;
    if (model == "alexnet_fc" || model == "alexnet_conv") {
        net = parseNetDefOrDie(model == "alexnet_fc" ? kAlexNetFcDef
                                                     : kAlexNetConvDef);
        initializeWeights(*net, 42);
        if (cs.precision != Precision::F32)
            net->quantize(cs.precision, zoo::calibrationBatch(*net));
    } else {
        net = zoo::build(zoo::modelFromName(cs.model), cs.precision,
                         42);
    }
    constexpr int64_t kRows = 9;
    Tensor rows = randomTensor(net->inputShape().withBatch(kRows), 9);
    int64_t in_elems = net->inputShape().sampleElems();
    for (int threads : {1, 2, 4}) {
        common::setComputeThreads(threads);
        std::vector<Tensor> alone;
        for (int64_t r = 0; r < kRows; ++r) {
            Tensor one(net->inputShape().withBatch(1));
            std::copy(rows.sample(r), rows.sample(r) + in_elems,
                      one.data());
            alone.push_back(net->forward(one));
        }
        size_t row_bytes = static_cast<size_t>(
                               alone[0].shape().sampleElems()) *
                           sizeof(float);
        // Rotation s puts row r at position (r + s) % kRows, so
        // every row visits every position once.
        for (int64_t s = 0; s < kRows; ++s) {
            Tensor batch(net->inputShape().withBatch(kRows));
            for (int64_t r = 0; r < kRows; ++r) {
                std::copy(rows.sample(r), rows.sample(r) + in_elems,
                          batch.sample((r + s) % kRows));
            }
            Tensor out = net->forward(batch);
            for (int64_t r = 0; r < kRows; ++r) {
                ASSERT_EQ(std::memcmp(out.sample((r + s) % kRows),
                                      alone[static_cast<size_t>(r)]
                                          .data(),
                                      row_bytes),
                          0)
                    << cs.model << "/" << precisionName(cs.precision)
                    << " threads " << threads << " row " << r
                    << " at position " << (r + s) % kRows;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ServedModels, BatchCompositionProperty,
    ::testing::Values(
        CompositionCase{"senna_pos", Precision::F32},
        CompositionCase{"senna_pos", Precision::Bf16},
        CompositionCase{"senna_pos", Precision::Int8},
        CompositionCase{"kaldi_asr", Precision::F32},
        CompositionCase{"kaldi_asr", Precision::Bf16},
        CompositionCase{"kaldi_asr", Precision::Int8},
        CompositionCase{"alexnet_fc", Precision::F32},
        CompositionCase{"alexnet_fc", Precision::Bf16},
        CompositionCase{"alexnet_fc", Precision::Int8},
        CompositionCase{"mnist", Precision::F32},
        CompositionCase{"mnist", Precision::Bf16},
        CompositionCase{"mnist", Precision::Int8},
        CompositionCase{"alexnet_conv", Precision::F32},
        CompositionCase{"alexnet_conv", Precision::Bf16},
        CompositionCase{"alexnet_conv", Precision::Int8}),
    [](const ::testing::TestParamInfo<CompositionCase> &info) {
        return std::string(info.param.model) + "_" +
               precisionName(info.param.precision);
    });

class LiveBatchCompositionProperty
    : public ::testing::TestWithParam<CompositionCase>
{};

/**
 * The same property through the serving path: queries submit()ted
 * to the BatchingExecutor and combined by its dispatcher must each
 * get the bytes run() gives them alone, whichever peers share their
 * batch and at whatever position. A parked dispatch gate holds each
 * round's queries in the queue so they form exactly one batch.
 */
TEST_P(LiveBatchCompositionProperty, SubmitBitsMatchRun)
{
    struct PoolSizeGuard {
        ~PoolSizeGuard() { common::setComputeThreads(0); }
    } guard;
    const CompositionCase cs = GetParam();
    core::ModelRegistry registry;
    ASSERT_TRUE(registry
                    .addZooModel(zoo::modelFromName(cs.model), 42,
                                 cs.precision)
                    .isOk());
    const std::string model = cs.model;
    auto net = registry.find(model);
    ASSERT_NE(net, nullptr);

    constexpr int64_t kRows = 9;
    core::BatchOptions options;
    options.maxQueries = kRows;
    telemetry::MetricRegistry metrics;
    core::BatchingExecutor executor(registry, options, metrics);
    std::atomic<bool> open{false};
    executor.setDispatchGate(
        [&open](const std::string &) { return open.load(); });

    Tensor rows = randomTensor(net->inputShape().withBatch(kRows), 9);
    const int64_t in_elems = net->inputShape().sampleElems();
    auto row = [&](int64_t r) {
        return std::vector<float>(rows.sample(r),
                                  rows.sample(r) + in_elems);
    };
    for (int threads : {1, 2}) {
        common::setComputeThreads(threads);
        std::vector<std::vector<float>> alone;
        for (int64_t r = 0; r < kRows; ++r) {
            core::InferenceResult one = executor.run(model, 1, row(r));
            ASSERT_TRUE(one.status.isOk()) << one.status.toString();
            alone.push_back(std::move(one.output));
        }
        // Round s batches s + 1 queries, rows s, s + 2, s + 4, ...
        // (mod kRows), so sizes, peers and positions all vary.
        for (int64_t s = 0; s < kRows; ++s) {
            open.store(false);
            std::vector<int64_t> members;
            std::vector<std::future<core::InferenceResult>> futures;
            for (int64_t j = 0; j <= s; ++j) {
                members.push_back((s + 2 * j) % kRows);
                futures.push_back(
                    executor.submit(model, 1, row(members.back())));
            }
            open.store(true);
            for (size_t j = 0; j < futures.size(); ++j) {
                core::InferenceResult got = futures[j].get();
                ASSERT_TRUE(got.status.isOk())
                    << got.status.toString();
                EXPECT_EQ(got.batchQueries, s + 1);
                const std::vector<float> &want =
                    alone[static_cast<size_t>(members[j])];
                ASSERT_EQ(got.output.size(), want.size());
                ASSERT_EQ(std::memcmp(got.output.data(), want.data(),
                                      want.size() * sizeof(float)),
                          0)
                    << cs << " threads " << threads << " row "
                    << members[j] << " at position " << j << " of "
                    << s + 1;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ServedModels, LiveBatchCompositionProperty,
    ::testing::Values(
        CompositionCase{"senna_pos", Precision::F32},
        CompositionCase{"senna_pos", Precision::Bf16},
        CompositionCase{"senna_pos", Precision::Int8},
        CompositionCase{"kaldi_asr", Precision::F32},
        CompositionCase{"kaldi_asr", Precision::Bf16},
        CompositionCase{"kaldi_asr", Precision::Int8},
        CompositionCase{"mnist", Precision::F32},
        CompositionCase{"mnist", Precision::Bf16},
        CompositionCase{"mnist", Precision::Int8}),
    [](const ::testing::TestParamInfo<CompositionCase> &info) {
        return std::string(info.param.model) + "_" +
               precisionName(info.param.precision);
    });

// Softmax invariances ---------------------------------------------------

class SoftmaxProperty : public ::testing::TestWithParam<int>
{};

TEST_P(SoftmaxProperty, ShiftInvariant)
{
    int dim = GetParam();
    SoftmaxLayer sm("s");
    sm.setup(Shape(1, dim));
    Tensor x = randomTensor(Shape(1, dim), 7 * dim);
    Tensor shifted = x;
    for (int64_t i = 0; i < dim; ++i)
        shifted[i] += 42.0f;
    Tensor y1, y2;
    sm.forward(x, y1);
    sm.forward(shifted, y2);
    for (int64_t i = 0; i < dim; ++i)
        ASSERT_NEAR(y1[i], y2[i], 1e-5);
}

TEST_P(SoftmaxProperty, OutputsAreAProbability)
{
    int dim = GetParam();
    SoftmaxLayer sm("s");
    sm.setup(Shape(1, dim));
    Tensor x = randomTensor(Shape(3, dim), 13 * dim);
    Tensor y;
    sm.forward(x, y);
    for (int64_t n = 0; n < 3; ++n) {
        double sum = 0;
        for (int64_t i = 0; i < dim; ++i) {
            ASSERT_GE(y.sample(n)[i], 0.0f);
            ASSERT_LE(y.sample(n)[i], 1.0f);
            sum += y.sample(n)[i];
        }
        ASSERT_NEAR(sum, 1.0, 1e-5);
    }
}

INSTANTIATE_TEST_SUITE_P(Dims, SoftmaxProperty,
                         ::testing::Values(2, 10, 45, 1000));

} // namespace
} // namespace nn
} // namespace djinn
