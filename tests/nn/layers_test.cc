#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "nn/gemm.hh"
#include "nn/layers/activation.hh"
#include "nn/layers/convolution.hh"
#include "nn/layers/inner_product.hh"
#include "nn/layers/locally_connected.hh"
#include "nn/layers/lrn.hh"
#include "nn/layers/pooling.hh"
#include "nn/layers/softmax.hh"

namespace djinn {
namespace nn {
namespace {

Tensor
randomTensor(const Shape &shape, uint64_t seed)
{
    Rng rng(seed);
    Tensor t(shape);
    for (int64_t i = 0; i < t.elems(); ++i)
        t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    return t;
}

void
fillParams(Layer &layer, uint64_t seed)
{
    Rng rng(seed);
    for (Tensor *param : layer.params()) {
        for (int64_t i = 0; i < param->elems(); ++i)
            (*param)[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
    }
}

// InnerProduct -----------------------------------------------------

TEST(InnerProduct, ShapesAndParams)
{
    InnerProductLayer fc("fc", 10);
    fc.setup(Shape(1, 4, 2, 3));
    EXPECT_EQ(fc.inputs(), 24);
    EXPECT_EQ(fc.outputShape(), Shape(1, 10));
    EXPECT_EQ(fc.paramCount(), 24u * 10 + 10);
}

TEST(InnerProduct, NoBiasParamCount)
{
    InnerProductLayer fc("fc", 5, false);
    fc.setup(Shape(1, 8));
    EXPECT_EQ(fc.paramCount(), 40u);
    EXPECT_EQ(fc.params().size(), 1u);
}

TEST(InnerProduct, ComputesAffineMap)
{
    InnerProductLayer fc("fc", 2);
    fc.setup(Shape(1, 3));
    auto params = fc.params();
    // W = [[1,2,3],[4,5,6]], b = [0.5, -1]
    float w[] = {1, 2, 3, 4, 5, 6};
    for (int i = 0; i < 6; ++i)
        (*params[0])[i] = w[i];
    (*params[1])[0] = 0.5f;
    (*params[1])[1] = -1.0f;

    Tensor in(Shape(2, 3));
    for (int i = 0; i < 6; ++i)
        in[i] = static_cast<float>(i + 1); // [1,2,3],[4,5,6]
    Tensor out;
    fc.forward(in, out);
    // Row 0: [1*1+2*2+3*3+0.5, 4+10+18-1] = [14.5, 31]
    EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 14.5f);
    EXPECT_FLOAT_EQ(out.at(0, 1, 0, 0), 31.0f);
    // Row 1: [4+10+18+0.5, 16+25+36-1] = [32.5, 76]
    EXPECT_FLOAT_EQ(out.at(1, 0, 0, 0), 32.5f);
    EXPECT_FLOAT_EQ(out.at(1, 1, 0, 0), 76.0f);
}

TEST(InnerProductDeathTest, SealedAfterFirstForward)
{
    // The first forward packs the weights once and seals the layer;
    // a later weight or precision write would bypass the pack.
    InnerProductLayer fc("fc", 37, false);
    fc.setup(Shape(1, 300));
    fillParams(fc, 21);
    Tensor in = randomTensor(Shape(3, 300), 5);
    Tensor out;
    fc.forward(in, out);
    EXPECT_EQ(std::as_const(fc).params().size(), 1u);
    EXPECT_DEATH(fc.params(), "weights are sealed after the first pack");
    EXPECT_DEATH(fc.setPrecision(Precision::Bf16),
                 "weights are sealed after the first pack");
}

TEST(InnerProduct, ConcurrentForwardsShareOnePack)
{
    // Forwards racing to pack a freshly filled layer must all read
    // the finished pack (check_build runs this under
    // ThreadSanitizer).
    InnerProductLayer ref("fc", 64, false);
    ref.setup(Shape(1, 200));
    fillParams(ref, 31);
    Tensor in = randomTensor(Shape(2, 200), 6);
    Tensor want;
    ref.forward(in, want);
    InnerProductLayer fc("fc", 64, false);
    fc.setup(Shape(1, 200));
    fillParams(fc, 31);
    std::vector<Tensor> outs(4);
    std::vector<std::thread> threads;
    for (Tensor &out : outs)
        threads.emplace_back([&fc, &in, &out] { fc.forward(in, out); });
    for (std::thread &t : threads)
        t.join();
    for (const Tensor &out : outs) {
        ASSERT_EQ(std::memcmp(out.data(), want.data(),
                              static_cast<size_t>(want.elems()) *
                                  sizeof(float)),
                  0);
    }
}

TEST(InnerProduct, RejectsWrongInputGeometry)
{
    InnerProductLayer fc("fc", 2);
    fc.setup(Shape(1, 3));
    Tensor in(Shape(1, 4));
    Tensor out;
    EXPECT_THROW(fc.forward(in, out), FatalError);
}

TEST(InnerProduct, RejectsNonPositiveOutputs)
{
    EXPECT_THROW(InnerProductLayer("fc", 0), FatalError);
}

// Convolution ------------------------------------------------------

/** Direct convolution reference (no im2col). */
Tensor
referenceConv(const Tensor &in, const ConvolutionLayer &conv,
              const Tensor &weights, const Tensor &bias)
{
    const Shape &is = conv.inputShape();
    const Shape &os = conv.outputShape();
    int64_t groups = conv.groups();
    int64_t in_per_group = is.c() / groups;
    int64_t out_per_group = os.c() / groups;
    Tensor out(os.withBatch(in.shape().n()));
    for (int64_t n = 0; n < in.shape().n(); ++n) {
        for (int64_t oc = 0; oc < os.c(); ++oc) {
            int64_t g = oc / out_per_group;
            for (int64_t oh = 0; oh < os.h(); ++oh) {
                for (int64_t ow = 0; ow < os.w(); ++ow) {
                    double acc = bias.empty() ? 0.0 : bias[oc];
                    for (int64_t ic = 0; ic < in_per_group; ++ic) {
                        for (int64_t kh = 0; kh < conv.kernel();
                             ++kh) {
                            for (int64_t kw = 0; kw < conv.kernel();
                                 ++kw) {
                                int64_t ih = oh * conv.stride() -
                                             conv.pad() + kh;
                                int64_t iw = ow * conv.stride() -
                                             conv.pad() + kw;
                                if (ih < 0 || ih >= is.h() ||
                                    iw < 0 || iw >= is.w()) {
                                    continue;
                                }
                                acc += in.at(n,
                                             g * in_per_group + ic,
                                             ih, iw) *
                                       weights.at(oc, ic, kh, kw);
                            }
                        }
                    }
                    out.at(n, oc, oh, ow) =
                        static_cast<float>(acc);
                }
            }
        }
    }
    return out;
}

struct ConvCase {
    int64_t in_c, in_h, out_c, kernel, stride, pad, groups, batch;
};

class ConvProperty : public ::testing::TestWithParam<ConvCase>
{};

TEST_P(ConvProperty, MatchesDirectConvolution)
{
    ConvCase p = GetParam();
    ConvolutionLayer conv("conv", p.out_c, p.kernel, p.stride, p.pad,
                          p.groups);
    conv.setup(Shape(1, p.in_c, p.in_h, p.in_h));
    fillParams(conv, 11);
    Tensor in = randomTensor(
        Shape(p.batch, p.in_c, p.in_h, p.in_h), 22);
    Tensor out;
    conv.forward(in, out);
    auto params = std::as_const(conv).params();
    Tensor expected = referenceConv(in, conv, *params[0],
                                    *params[1]);
    ASSERT_EQ(out.shape(), expected.shape());
    for (int64_t i = 0; i < out.elems(); ++i)
        ASSERT_NEAR(out[i], expected[i], 1e-3) << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvProperty,
    ::testing::Values(
        ConvCase{1, 8, 4, 3, 1, 0, 1, 1},
        ConvCase{3, 12, 8, 3, 1, 1, 1, 2},
        ConvCase{2, 9, 6, 3, 2, 0, 1, 1},
        ConvCase{4, 11, 8, 5, 2, 2, 2, 2},
        ConvCase{6, 7, 6, 1, 1, 0, 3, 1},
        ConvCase{3, 15, 4, 5, 3, 1, 1, 3},
        ConvCase{8, 6, 8, 3, 1, 1, 4, 2}));

TEST(Convolution, OutputGeometryAlexNetConv1)
{
    ConvolutionLayer conv("conv1", 96, 11, 4, 0);
    conv.setup(Shape(1, 3, 227, 227));
    EXPECT_EQ(conv.outputShape(), Shape(1, 96, 55, 55));
}

TEST(Convolution, GroupMismatchFatal)
{
    ConvolutionLayer conv("conv", 4, 3, 1, 0, 2);
    EXPECT_THROW(conv.setup(Shape(1, 3, 8, 8)), FatalError);
}

TEST(Convolution, OutputsNotDivisibleByGroupsFatal)
{
    EXPECT_THROW(ConvolutionLayer("conv", 5, 3, 1, 0, 2),
                 FatalError);
}

TEST(Convolution, WindowLargerThanInputFatal)
{
    ConvolutionLayer conv("conv", 4, 9);
    EXPECT_THROW(conv.setup(Shape(1, 1, 4, 4)), FatalError);
}

/**
 * The Caffe-style conv forward kept as the reference: im2col per
 * image and group, then the raw-operand GEMM with the filters on
 * the left (W_g x col), the bias added after the full sum. At int8
 * the reference is the exact integer sum of filter codes times
 * activation codes less the zero point, dequantized as s_w * s_act.
 */
Tensor
rawGemmConv(const Tensor &in, const ConvolutionLayer &conv)
{
    const Shape &is = conv.inputShape();
    const Shape &os = conv.outputShape();
    int64_t in_per_group = is.c() / conv.groups();
    int64_t out_per_group = os.c() / conv.groups();
    int64_t cols = os.h() * os.w();
    int64_t patch = in_per_group * conv.kernel() * conv.kernel();
    const LayerQuant &q = conv.quant();
    Tensor out(os.withBatch(in.shape().n()));
    std::vector<float> col(static_cast<size_t>(patch * cols));
    for (int64_t n = 0; n < in.shape().n(); ++n) {
        for (int64_t g = 0; g < conv.groups(); ++g) {
            im2col(in.sample(n) + g * in_per_group * is.h() * is.w(),
                   in_per_group, is.h(), is.w(), conv.kernel(),
                   conv.kernel(), conv.pad(), conv.stride(),
                   col.data());
            const float *w =
                conv.weights().data() + g * out_per_group * patch;
            float *dst = out.sample(n) + g * out_per_group * cols;
            if (conv.precision() == Precision::F32) {
                sgemm(Trans::No, Trans::No, out_per_group, cols,
                      patch, 1.0f, w, patch, col.data(), cols, 0.0f,
                      dst, cols);
                continue;
            }
            if (conv.precision() == Precision::Bf16) {
                gemm_bf16(Trans::No, Trans::No, out_per_group, cols,
                          patch, 1.0f, w, patch, col.data(), cols,
                          0.0f, dst, cols);
                continue;
            }
            for (int64_t o = 0; o < out_per_group; ++o) {
                QuantParams wq;
                wq.scale = q.weightScales[static_cast<size_t>(
                    g * out_per_group + o)];
                for (int64_t pos = 0; pos < cols; ++pos) {
                    int64_t acc = 0;
                    for (int64_t p = 0; p < patch; ++p) {
                        acc += int64_t{wq.quantize(w[o * patch + p])} *
                               (q.act.quantize(col[static_cast<size_t>(
                                    p * cols + pos)]) -
                                q.act.zeroPoint);
                    }
                    dst[o * cols + pos] =
                        0.0f + 1.0f * wq.scale * q.act.scale *
                                   static_cast<float>(acc);
                }
            }
        }
        const Tensor &bias = *std::as_const(conv).params()[1];
        float *dst = out.sample(n);
        for (int64_t c = 0; c < os.c(); ++c) {
            for (int64_t i = 0; i < cols; ++i)
                dst[c * cols + i] += bias[c];
        }
    }
    return out;
}

TEST(Convolution, PackedMatchesRawGemm)
{
    // The transposed product on the packed filters must reproduce
    // the filters-left raw GEMM byte for byte: the same products,
    // summed in the same KC slices, the bias added after the sum.
    struct PoolSizeGuard {
        ~PoolSizeGuard() { common::setComputeThreads(0); }
    } guard;
    struct Geometry {
        int64_t in_c, in_h, out_c, kernel, stride, pad;
    };
    const Geometry geometries[] = {
        {4, 19, 12, 5, 1, 2},  // 361 positions: row blocks + edge
        {24, 13, 40, 3, 1, 1}, // conv3-5's 13x13 map
        {6, 23, 8, 7, 3, 0},   // patch 294: two f32 k slices
        {32, 9, 34, 3, 2, 1},  // odd filters per group, stride 2
    };
    uint64_t seed = 0;
    for (const Geometry &geo : geometries) {
        for (int64_t groups : {1, 2}) {
            for (Precision precision :
                 {Precision::F32, Precision::Bf16, Precision::Int8}) {
                for (int64_t batch : {1, 3}) {
                    ++seed;
                    ConvolutionLayer conv("conv", geo.out_c,
                                          geo.kernel, geo.stride,
                                          geo.pad, groups);
                    conv.setup(
                        Shape(1, geo.in_c, geo.in_h, geo.in_h));
                    fillParams(conv, seed);
                    Tensor in = randomTensor(
                        Shape(batch, geo.in_c, geo.in_h, geo.in_h),
                        100 + seed);
                    conv.setPrecision(precision,
                                      precision == Precision::Int8
                                          ? conv.calibrate(in)
                                          : LayerQuant{});
                    Tensor want = rawGemmConv(in, conv);
                    for (int threads : {1, 2, 4}) {
                        common::setComputeThreads(threads);
                        Tensor got;
                        conv.forward(in, got);
                        ASSERT_EQ(got.shape(), want.shape());
                        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                              static_cast<size_t>(
                                                  want.elems()) *
                                                  sizeof(float)),
                                  0)
                            << "in_c " << geo.in_c << " groups "
                            << groups << " "
                            << precisionName(precision) << " batch "
                            << batch << " threads " << threads;
                    }
                }
            }
        }
    }
}

TEST(Convolution, ConcurrentForwardsShareOnePack)
{
    // Forwards racing to pack a freshly filled layer's per-group
    // filters must all read the finished packs (check_build runs
    // this under ThreadSanitizer).
    ConvolutionLayer ref("conv", 16, 3, 1, 1, 2);
    ref.setup(Shape(1, 8, 10, 10));
    fillParams(ref, 41);
    Tensor in = randomTensor(Shape(2, 8, 10, 10), 7);
    Tensor want;
    ref.forward(in, want);
    ConvolutionLayer conv("conv", 16, 3, 1, 1, 2);
    conv.setup(Shape(1, 8, 10, 10));
    fillParams(conv, 41);
    std::vector<Tensor> outs(4);
    std::vector<std::thread> threads;
    for (Tensor &out : outs) {
        threads.emplace_back(
            [&conv, &in, &out] { conv.forward(in, out); });
    }
    for (std::thread &t : threads)
        t.join();
    for (const Tensor &out : outs) {
        ASSERT_EQ(std::memcmp(out.data(), want.data(),
                              static_cast<size_t>(want.elems()) *
                                  sizeof(float)),
                  0);
    }
}

TEST(ConvolutionDeathTest, SealedAfterFirstForward)
{
    ConvolutionLayer conv("conv", 16, 3, 1, 1, 2);
    conv.setup(Shape(1, 8, 10, 10));
    fillParams(conv, 41);
    Tensor in = randomTensor(Shape(1, 8, 10, 10), 7);
    Tensor out;
    conv.forward(in, out);
    EXPECT_DEATH(conv.params(),
                 "weights are sealed after the first pack");
    EXPECT_DEATH(conv.setPrecision(Precision::Int8, conv.calibrate(in)),
                 "weights are sealed after the first pack");
}

TEST(Im2col, IdentityKernelCopiesPixels)
{
    // 1x1 kernel, stride 1: columns are just the flattened image.
    float data[] = {1, 2, 3, 4};
    float col[4];
    im2col(data, 1, 2, 2, 1, 1, 0, 1, col);
    for (int i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(col[i], data[i]);
}

TEST(Im2col, PadsWithZeros)
{
    float data[] = {5};
    float col[9];
    im2col(data, 1, 1, 1, 3, 3, 1, 1, col);
    // Center tap sees the pixel, all other taps padded zero.
    EXPECT_FLOAT_EQ(col[4], 5.0f);
    for (int i = 0; i < 9; ++i) {
        if (i != 4) {
            EXPECT_FLOAT_EQ(col[i], 0.0f);
        }
    }
}

// LocallyConnected --------------------------------------------------

TEST(LocallyConnected, ParamsScaleWithOutputMap)
{
    LocallyConnectedLayer lc("lc", 2, 3);
    lc.setup(Shape(1, 2, 5, 5));
    // out 2 x 3 x 3 positions, each with private 2x3x3 filter.
    EXPECT_EQ(lc.outputShape(), Shape(1, 2, 3, 3));
    EXPECT_EQ(lc.paramCount(),
              2u * 3 * 3 * (2 * 3 * 3) + 2u * 3 * 3);
}

TEST(LocallyConnected, UntiedWeightsDifferFromConvolution)
{
    // With all-ones inputs, a conv layer yields identical outputs at
    // all interior positions, while LC weights differ per position.
    LocallyConnectedLayer lc("lc", 1, 3);
    lc.setup(Shape(1, 1, 5, 5));
    fillParams(lc, 33);
    Tensor in(Shape(1, 1, 5, 5), 1.0f);
    Tensor out;
    lc.forward(in, out);
    EXPECT_NE(out.at(0, 0, 0, 0), out.at(0, 0, 1, 1));
}

TEST(LocallyConnected, MatchesManualDotProduct)
{
    LocallyConnectedLayer lc("lc", 1, 2, 1, 0, false);
    lc.setup(Shape(1, 1, 3, 3));
    auto params = lc.params();
    ASSERT_EQ(params.size(), 1u);
    // 2x2 output positions, each with a private 2x2 filter.
    for (int64_t i = 0; i < params[0]->elems(); ++i)
        (*params[0])[i] = static_cast<float>(i + 1);

    Tensor in(Shape(1, 1, 3, 3));
    for (int i = 0; i < 9; ++i)
        in[i] = static_cast<float>(i); // 0..8
    Tensor out;
    lc.forward(in, out);
    // Position (0,0): filter [1,2,3,4] . patch [0,1,3,4] = 27.
    EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 27.0f);
    // Position (0,1): filter [5,6,7,8] . patch [1,2,4,5] = 85.
    EXPECT_FLOAT_EQ(out.at(0, 0, 0, 1), 85.0f);
    // Position (1,0): filter [9,10,11,12] . patch [3,4,6,7] = 217.
    EXPECT_FLOAT_EQ(out.at(0, 0, 1, 0), 217.0f);
    // Position (1,1): filter [13,14,15,16] . patch [4,5,7,8] = 355.
    EXPECT_FLOAT_EQ(out.at(0, 0, 1, 1), 355.0f);
}

TEST(LocallyConnected, BatchIndependence)
{
    LocallyConnectedLayer lc("lc", 2, 3, 2, 1);
    lc.setup(Shape(1, 2, 6, 6));
    fillParams(lc, 44);
    Tensor a = randomTensor(Shape(1, 2, 6, 6), 1);
    Tensor b = randomTensor(Shape(1, 2, 6, 6), 2);
    Tensor batch(Shape(2, 2, 6, 6));
    std::copy(a.data(), a.data() + a.elems(), batch.sample(0));
    std::copy(b.data(), b.data() + b.elems(), batch.sample(1));
    Tensor out_a, out_b, out_batch;
    lc.forward(a, out_a);
    lc.forward(b, out_b);
    lc.forward(batch, out_batch);
    for (int64_t i = 0; i < out_a.elems(); ++i) {
        EXPECT_FLOAT_EQ(out_batch.sample(0)[i], out_a[i]);
        EXPECT_FLOAT_EQ(out_batch.sample(1)[i], out_b[i]);
    }
}

// Pooling -----------------------------------------------------------

TEST(Pooling, MaxPoolPicksMaximum)
{
    PoolingLayer pool("pool", LayerKind::MaxPool, 2, 2);
    pool.setup(Shape(1, 1, 4, 4));
    Tensor in(Shape(1, 1, 4, 4));
    for (int i = 0; i < 16; ++i)
        in[i] = static_cast<float>(i);
    Tensor out;
    pool.forward(in, out);
    EXPECT_EQ(out.shape(), Shape(1, 1, 2, 2));
    EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 5.0f);
    EXPECT_FLOAT_EQ(out.at(0, 0, 0, 1), 7.0f);
    EXPECT_FLOAT_EQ(out.at(0, 0, 1, 0), 13.0f);
    EXPECT_FLOAT_EQ(out.at(0, 0, 1, 1), 15.0f);
}

TEST(Pooling, AvgPoolAverages)
{
    PoolingLayer pool("pool", LayerKind::AvgPool, 2, 2);
    pool.setup(Shape(1, 1, 2, 2));
    Tensor in(Shape(1, 1, 2, 2));
    in[0] = 1;
    in[1] = 2;
    in[2] = 3;
    in[3] = 6;
    Tensor out;
    pool.forward(in, out);
    EXPECT_FLOAT_EQ(out[0], 3.0f);
}

TEST(Pooling, CeilModeMatchesAlexNetPyramid)
{
    // AlexNet: 55 -> 27 -> 13 -> 6 with kernel 3, stride 2.
    EXPECT_EQ(poolOutSize(55, 3, 0, 2), 27);
    EXPECT_EQ(poolOutSize(27, 3, 0, 2), 13);
    EXPECT_EQ(poolOutSize(13, 3, 0, 2), 6);
}

TEST(Pooling, AvgIgnoresOutOfBoundsInCount)
{
    // 3x3 input, kernel 2, stride 2, ceil mode -> 2x2 output; the
    // bottom-right window covers a single pixel.
    PoolingLayer pool("pool", LayerKind::AvgPool, 2, 2);
    pool.setup(Shape(1, 1, 3, 3));
    Tensor in(Shape(1, 1, 3, 3), 6.0f);
    Tensor out;
    pool.forward(in, out);
    EXPECT_EQ(out.shape(), Shape(1, 1, 2, 2));
    EXPECT_FLOAT_EQ(out.at(0, 0, 1, 1), 6.0f);
}

TEST(Pooling, NegativeInputsSurviveMax)
{
    PoolingLayer pool("pool", LayerKind::MaxPool, 2, 2);
    pool.setup(Shape(1, 1, 2, 2));
    Tensor in(Shape(1, 1, 2, 2), -4.0f);
    in[2] = -1.0f;
    Tensor out;
    pool.forward(in, out);
    EXPECT_FLOAT_EQ(out[0], -1.0f);
}

// Activations -------------------------------------------------------

TEST(Activation, ReluClampsNegative)
{
    ActivationLayer relu("relu", LayerKind::ReLU);
    relu.setup(Shape(1, 4));
    Tensor in(Shape(1, 4));
    in[0] = -2;
    in[1] = -0.5;
    in[2] = 0;
    in[3] = 3;
    Tensor out;
    relu.forward(in, out);
    EXPECT_FLOAT_EQ(out[0], 0);
    EXPECT_FLOAT_EQ(out[1], 0);
    EXPECT_FLOAT_EQ(out[2], 0);
    EXPECT_FLOAT_EQ(out[3], 3);
}

TEST(Activation, ReluKeepsTheSelectBits)
{
    // x > 0 ? x : 0 bit for bit, signed zero and NaN included, on a
    // tensor large enough to split across the pool.
    struct PoolSizeGuard {
        ~PoolSizeGuard() { common::setComputeThreads(0); }
    } guard;
    const float specials[] = {-0.0f, 0.0f, NAN, -NAN, INFINITY,
                              -INFINITY, 1e-45f, -1e-45f};
    Tensor in = randomTensor(Shape(1, 40000), 3);
    for (size_t i = 0; i < std::size(specials); ++i)
        in[static_cast<int64_t>(i) * 4999] = specials[i];
    ActivationLayer relu("relu", LayerKind::ReLU);
    relu.setup(Shape(1, 40000));
    for (int threads : {1, 3}) {
        common::setComputeThreads(threads);
        Tensor out;
        relu.forward(in, out);
        for (int64_t i = 0; i < in.elems(); ++i) {
            float want = in[i] > 0.0f ? in[i] : 0.0f;
            ASSERT_EQ(std::memcmp(&out[i], &want, sizeof(float)), 0)
                << "at " << i << " threads " << threads;
        }
    }
}

TEST(Activation, TanhMatchesStd)
{
    ActivationLayer tanh_layer("tanh", LayerKind::Tanh);
    tanh_layer.setup(Shape(1, 3));
    Tensor in(Shape(1, 3));
    in[0] = -1;
    in[1] = 0;
    in[2] = 2;
    Tensor out;
    tanh_layer.forward(in, out);
    EXPECT_FLOAT_EQ(out[0], std::tanh(-1.0f));
    EXPECT_FLOAT_EQ(out[1], 0.0f);
    EXPECT_FLOAT_EQ(out[2], std::tanh(2.0f));
}

TEST(Activation, SigmoidRangeAndMidpoint)
{
    ActivationLayer sig("sig", LayerKind::Sigmoid);
    sig.setup(Shape(1, 3));
    Tensor in(Shape(1, 3));
    in[0] = -50;
    in[1] = 0;
    in[2] = 50;
    Tensor out;
    sig.forward(in, out);
    EXPECT_NEAR(out[0], 0.0f, 1e-6);
    EXPECT_FLOAT_EQ(out[1], 0.5f);
    EXPECT_NEAR(out[2], 1.0f, 1e-6);
}

TEST(Activation, HardTanhClamps)
{
    ActivationLayer ht("ht", LayerKind::HardTanh);
    ht.setup(Shape(1, 4));
    Tensor in(Shape(1, 4));
    in[0] = -3;
    in[1] = -0.5;
    in[2] = 0.5;
    in[3] = 3;
    Tensor out;
    ht.forward(in, out);
    EXPECT_FLOAT_EQ(out[0], -1.0f);
    EXPECT_FLOAT_EQ(out[1], -0.5f);
    EXPECT_FLOAT_EQ(out[2], 0.5f);
    EXPECT_FLOAT_EQ(out[3], 1.0f);
}

// LRN ----------------------------------------------------------------

TEST(Lrn, PreservesShapeAndNormalizes)
{
    LrnLayer lrn("lrn", 5, 1e-4f);
    lrn.setup(Shape(1, 8, 2, 2));
    Tensor in = randomTensor(Shape(2, 8, 2, 2), 5);
    Tensor out;
    lrn.forward(in, out);
    EXPECT_EQ(out.shape(), in.shape());
    // With tiny alpha, output is close to input but slightly
    // attenuated.
    for (int64_t i = 0; i < in.elems(); ++i)
        EXPECT_NEAR(out[i], in[i], 0.01);
}

TEST(Lrn, StrongNormalizationShrinksLargeActivations)
{
    LrnLayer lrn("lrn", 3, 1.0f);
    lrn.setup(Shape(1, 3, 1, 1));
    Tensor in(Shape(1, 3, 1, 1), 3.0f);
    Tensor out;
    lrn.forward(in, out);
    // Denominator (1 + 1/3*sum(9*2 or 3 terms))^0.75 > 1.
    EXPECT_LT(out[0], in[0]);
}

TEST(Lrn, EvenWindowFatal)
{
    EXPECT_THROW(LrnLayer("lrn", 4), FatalError);
}

// Softmax / Dropout / Flatten ----------------------------------------

TEST(Softmax, RowsSumToOne)
{
    SoftmaxLayer sm("prob");
    sm.setup(Shape(1, 10));
    Tensor in = randomTensor(Shape(4, 10), 9);
    Tensor out;
    sm.forward(in, out);
    for (int64_t n = 0; n < 4; ++n) {
        double sum = 0.0;
        for (int64_t i = 0; i < 10; ++i)
            sum += out.sample(n)[i];
        EXPECT_NEAR(sum, 1.0, 1e-5);
    }
}

TEST(Softmax, LargeLogitsStayFinite)
{
    SoftmaxLayer sm("prob");
    sm.setup(Shape(1, 3));
    Tensor in(Shape(1, 3));
    in[0] = 1000.0f;
    in[1] = 999.0f;
    in[2] = -1000.0f;
    Tensor out;
    sm.forward(in, out);
    EXPECT_TRUE(std::isfinite(out[0]));
    EXPECT_GT(out[0], out[1]);
    EXPECT_NEAR(out[2], 0.0f, 1e-6);
}

TEST(Softmax, PreservesArgmax)
{
    SoftmaxLayer sm("prob");
    sm.setup(Shape(1, 5));
    Tensor in = randomTensor(Shape(3, 5), 77);
    Tensor out;
    sm.forward(in, out);
    for (int64_t n = 0; n < 3; ++n)
        EXPECT_EQ(in.argmaxSample(n), out.argmaxSample(n));
}

TEST(Dropout, IdentityAtInference)
{
    DropoutLayer drop("drop");
    drop.setup(Shape(1, 6));
    Tensor in = randomTensor(Shape(2, 6), 3);
    Tensor out;
    drop.forward(in, out);
    for (int64_t i = 0; i < in.elems(); ++i)
        EXPECT_FLOAT_EQ(out[i], in[i]);
}

TEST(Flatten, CollapsesGeometry)
{
    FlattenLayer flat("flat");
    flat.setup(Shape(1, 2, 3, 4));
    EXPECT_EQ(flat.outputShape(), Shape(1, 24));
    Tensor in = randomTensor(Shape(2, 2, 3, 4), 8);
    Tensor out;
    flat.forward(in, out);
    EXPECT_EQ(out.shape(), Shape(2, 24));
    for (int64_t i = 0; i < in.elems(); ++i)
        EXPECT_FLOAT_EQ(out[i], in[i]);
}

// Layer base ----------------------------------------------------------

TEST(Layer, KindNamesRoundTrip)
{
    for (LayerKind kind : {
             LayerKind::InnerProduct, LayerKind::Convolution,
             LayerKind::LocallyConnected, LayerKind::MaxPool,
             LayerKind::AvgPool, LayerKind::ReLU, LayerKind::Tanh,
             LayerKind::Sigmoid, LayerKind::HardTanh, LayerKind::LRN,
             LayerKind::Softmax, LayerKind::Dropout,
             LayerKind::Flatten}) {
        EXPECT_EQ(layerKindFromName(layerKindName(kind)), kind);
    }
}

TEST(Layer, UnknownKindNameFatal)
{
    EXPECT_THROW(layerKindFromName("warp"), FatalError);
}

TEST(Layer, DescribeMentionsNameAndShape)
{
    InnerProductLayer fc("classifier", 4);
    fc.setup(Shape(1, 8));
    std::string desc = fc.describe();
    EXPECT_NE(desc.find("classifier"), std::string::npos);
    EXPECT_NE(desc.find("1x4"), std::string::npos);
}

} // namespace
} // namespace nn
} // namespace djinn
