/**
 * @file
 * The guarded vector math gives the scalar call's exact bits: on a
 * stride through all float inputs, at the edges of each function's
 * range, at every tail length and alignment, and through the two
 * layers that call it at 1, 2 and 4 threads. tools/vmath_check runs
 * the same comparison over all 2^32 inputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "nn/layers/activation.hh"
#include "nn/layers/lrn.hh"
#include "nn/vmath.hh"

namespace djinn {
namespace nn {
namespace {

float
libmExp(float v)
{
    return std::exp(v);
}

float
libmPow075(float v)
{
    return std::pow(v, 0.75f);
}

float
scalarSigmoid(float v)
{
    return 1.0f / (1.0f + std::exp(-v));
}

uint32_t
bits(float v)
{
    return std::bit_cast<uint32_t>(v);
}

/** Each vmath function beside the scalar expression it stands for. */
struct Case {
    const char *name;
    int64_t (*vec)(const float *, float *, int64_t);
    float (*ref)(float);
};

const Case kCases[] = {{"exp", vmath::exp, libmExp},
                       {"pow075", vmath::pow075, libmPow075},
                       {"sigmoid", vmath::sigmoid, scalarSigmoid}};

/** Runs each function over @p in, out of place and in place. */
void
expectLibmBits(const std::vector<float> &in)
{
    for (const Case &c : kCases) {
        std::vector<float> out(in.size()), inPlace = in;
        int64_t n = static_cast<int64_t>(in.size());
        int64_t fallbacks = c.vec(in.data(), out.data(), n);
        EXPECT_GE(fallbacks, 0);
        EXPECT_LE(fallbacks, n);
        c.vec(inPlace.data(), inPlace.data(), n);
        for (size_t i = 0; i < in.size(); ++i) {
            uint32_t want = bits(c.ref(in[i]));
            ASSERT_EQ(bits(out[i]), want)
                << c.name << " of input bits 0x" << std::hex << bits(in[i]);
            ASSERT_EQ(bits(inPlace[i]), want)
                << c.name << " in place, input bits 0x" << std::hex
                << bits(in[i]);
        }
    }
}

TEST(Vmath, EveryStridedInputMatchesLibm)
{
    std::vector<float> in;
    for (uint64_t u = 0; u < (uint64_t(1) << 32); u += 4097)
        in.push_back(std::bit_cast<float>(static_cast<uint32_t>(u)));
    expectLibmBits(in);
}

TEST(Vmath, EdgeInputsMatchLibm)
{
    const uint32_t centres[] = {
        0x00000000, 0x80000000,             // +-0
        0x7f800000, 0xff800000,             // +-inf
        0x7fc00000, 0xffc00000, 0x7fc12345, // quiet NaNs
        0x7f800001, 0x7fbfffff,             // signalling NaNs
        0x00000001, 0x007fffff, 0x80000001, // subnormals
        0x00800000, 0x7f7fffff, 0xff7fffff, // FLT_MIN, +-FLT_MAX
        0x3f800000, 0xbf800000, 0x41800000, // +-1, 16
        0x42b17218, // expf overflows above 0x1.62e42ep6
        0xc2aeac50, // expf turns subnormal below -0x1.5d589ep6
        0xc2cff1b5, // expf rounds to 0 below -0x1.9fe368p6
        0xc2b17218, 0x42aeac50, 0x42cff1b5, // the same for exp(-x)
        0x33800000, 0xb3800000, // +-2^-24: exp near 1 +- a midpoint
    };
    std::vector<float> in;
    for (uint32_t c : centres) {
        for (int32_t d = -8; d <= 8; ++d)
            in.push_back(std::bit_cast<float>(c + static_cast<uint32_t>(d)));
    }
    expectLibmBits(in);
}

TEST(Vmath, EveryTailLengthAndAlignment)
{
    constexpr float kSentinel = -1234.5f;
    Rng rng(17);
    for (const Case &c : kCases) {
        for (int64_t offset = 0; offset < 4; ++offset) {
            for (int64_t n = 0; n <= 17; ++n) {
                std::vector<float> in(24, kSentinel), out(24, kSentinel);
                for (int64_t i = 0; i < n; ++i)
                    in[offset + i] =
                        static_cast<float>(rng.uniform(0.0, 20.0));
                c.vec(in.data() + offset, out.data() + offset, n);
                for (int64_t i = 0; i < 24; ++i) {
                    bool inside = i >= offset && i < offset + n;
                    float want = inside ? c.ref(in[i]) : kSentinel;
                    ASSERT_EQ(bits(out[i]), bits(want))
                        << c.name << " offset " << offset << " n " << n
                        << " index " << i;
                }
            }
        }
    }
}

struct PoolSizeGuard {
    ~PoolSizeGuard() { common::setComputeThreads(0); }
};

TEST(Activation, SigmoidMatchesScalarExpressionAtEachThreadCount)
{
    PoolSizeGuard guard;
    constexpr int64_t kElems = 40003; // three pool chunks and a tail
    Rng rng(23);
    Tensor in(Shape(1, kElems));
    for (int64_t i = 0; i < kElems; ++i)
        in[i] = static_cast<float>(rng.uniform(-20.0, 20.0));
    const float specials[] = {0.0f,      -0.0f,     NAN,    INFINITY,
                              -INFINITY, 1e-45f,    -1e-45f, 88.8f,
                              -88.8f,    104.0f,    -104.0f};
    for (size_t i = 0; i < std::size(specials); ++i)
        in[static_cast<int64_t>(i) * 3637] = specials[i];
    ActivationLayer sig("sig", LayerKind::Sigmoid);
    sig.setup(Shape(1, kElems));
    for (int threads : {1, 2, 4}) {
        common::setComputeThreads(threads);
        Tensor out;
        sig.forward(in, out);
        for (int64_t i = 0; i < kElems; ++i) {
            float want = scalarSigmoid(in[i]);
            ASSERT_EQ(bits(out[i]), bits(want))
                << "at " << i << " threads " << threads;
        }
    }
}

TEST(Lrn, MatchesScalarExpressionAtEachThreadCount)
{
    PoolSizeGuard guard;
    // 7x9 planes end in a masked tail; 128 planes make three chunks.
    const Shape shape(4, 32, 7, 9);
    const int64_t channels = 32, plane = 63, size = 5;
    Rng rng(29);
    Tensor in(shape);
    for (int64_t i = 0; i < in.elems(); ++i)
        in[i] = static_cast<float>(rng.uniform(-40.0, 40.0));
    for (float alpha : {1e-4f, 1.0f}) {
        LrnLayer lrn("lrn", size, alpha);
        lrn.setup(Shape(1, channels, 7, 9));
        for (int threads : {1, 2, 4}) {
            common::setComputeThreads(threads);
            Tensor out;
            lrn.forward(in, out);
            for (int64_t n = 0; n < shape.n(); ++n) {
                const float *src = in.sample(n);
                const float *dst = out.sample(n);
                for (int64_t c = 0; c < channels; ++c) {
                    for (int64_t i = 0; i < plane; ++i) {
                        float sq = 0.0f;
                        for (int64_t cc = std::max<int64_t>(c - 2, 0);
                             cc <= std::min<int64_t>(c + 2, channels - 1);
                             ++cc) {
                            float v = src[cc * plane + i];
                            sq += v * v;
                        }
                        float scale =
                            1.0f + alpha / static_cast<float>(size) * sq;
                        float want =
                            src[c * plane + i] / std::pow(scale, 0.75f);
                        ASSERT_EQ(bits(dst[c * plane + i]), bits(want))
                            << "alpha " << alpha << " threads " << threads
                            << " image " << n << " channel " << c
                            << " position " << i;
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace nn
} // namespace djinn
