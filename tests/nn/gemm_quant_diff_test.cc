/**
 * @file
 * Differential test battery for the low-precision GEMM kernels
 * (DESIGN.md §14), mirroring gemm_diff_test.cc's structure: shapes
 * × transposes × strides × scales, each run at 1, 2, 4, and 8
 * compute threads with pad-clobber checks, cross-thread-count bit
 * checksums, and a byte comparison of the pre-packed entry against
 * the raw one.
 *
 * Error contracts under test:
 *
 *  - gemm_bf16 vs sgemm_naive: each operand is rounded to bf16
 *    (relative error <= 2^-9), so a k-term dot product of [-1, 1]
 *    inputs drifts by at most ~k * 2^-8, plus the usual f32
 *    reassociation term.
 *
 *  - gemm_s8 / gemm_packed at int8, under an unsigned-8 activation
 *    mapping (the fully connected layer's) or a signed-8 one (the
 *    convolution layer's, biased +128 onto the kernel's u8 side):
 *    integer accumulation is *exact*, so the kernels are compared
 *    two ways: (a) against a scalar integer
 *    reference within a few ulps of the dequant arithmetic — this
 *    pins the quantized semantics exactly — and (b) against the f32
 *    reference within the quantization-step bound
 *    ~k * (sa/2 * max|b| + sb/2 * max|a| + sa*sb/4).
 *
 * Suite names start with GemmDiff so the TSan CI stage's
 * --gtest_filter picks these up alongside the f32 battery.
 */

#include "nn/gemm.hh"
#include "nn/gemm_internal.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"

namespace djinn {
namespace nn {
namespace {

/** Restores the global pool to its automatic size on scope exit. */
struct PoolSizeGuard {
    ~PoolSizeGuard() { common::setComputeThreads(0); }
};

constexpr float kEps = 1.19209290e-07f; // FLT_EPSILON

void
fillUniform(std::vector<float> &v, djinn::Rng &rng)
{
    for (float &x : v)
        x = static_cast<float>(rng.uniform(-1.0, 1.0));
}

/** FNV-1a over the float bit patterns: detects any bit difference. */
uint64_t
bitChecksum(const std::vector<float> &v)
{
    uint64_t h = 1469598103934665603ULL;
    for (float x : v) {
        uint32_t bits;
        std::memcpy(&bits, &x, sizeof(bits));
        for (int i = 0; i < 4; ++i) {
            h ^= (bits >> (8 * i)) & 0xffu;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

struct Case {
    int64_t m, n, k;
    Trans ta, tb;
    int64_t lda, ldb, ldc;
    float alpha, beta;
};

/** op(A)[i][p] for a stored row-major buffer. */
float
opA(const std::vector<float> &a, const Case &cs, int64_t i, int64_t p)
{
    return cs.ta == Trans::No ? a[static_cast<size_t>(i * cs.lda + p)]
                              : a[static_cast<size_t>(p * cs.lda + i)];
}

/** op(B)[p][j] for a stored row-major buffer. */
float
opB(const std::vector<float> &b, const Case &cs, int64_t p, int64_t j)
{
    return cs.tb == Trans::No ? b[static_cast<size_t>(p * cs.ldb + j)]
                              : b[static_cast<size_t>(j * cs.ldb + p)];
}

// ---------------------------------------------------------------
// bf16
// ---------------------------------------------------------------

/**
 * bf16-vs-f32 bound for [-1, 1] inputs: operand rounding
 * contributes <= k * 2^-8 per dot product (two operands at 2^-9
 * each), the f32 reassociation contributes the same term as the f32
 * battery, and 8 ulp covers the alpha/beta arithmetic.
 */
float
bf16Bound(int64_t k, float alpha)
{
    float amax = std::max(1.0f, std::fabs(alpha));
    float kf = static_cast<float>(k);
    return amax * kf * 0.00390625f /* 2^-8 */ +
           2.0f * kEps * kf * kf * amax + 8.0f * kEps;
}

void
runBf16Case(const Case &cs, djinn::Rng &rng)
{
    SCOPED_TRACE(testing::Message()
                 << "m=" << cs.m << " n=" << cs.n << " k=" << cs.k
                 << " ta=" << (cs.ta == Trans::Yes) << " tb="
                 << (cs.tb == Trans::Yes) << " lda=" << cs.lda
                 << " ldb=" << cs.ldb << " ldc=" << cs.ldc
                 << " alpha=" << cs.alpha << " beta=" << cs.beta);

    int64_t aRows = cs.ta == Trans::No ? cs.m : cs.k;
    int64_t bRows = cs.tb == Trans::No ? cs.k : cs.n;
    std::vector<float> a(static_cast<size_t>(aRows * cs.lda));
    std::vector<float> b(static_cast<size_t>(bRows * cs.ldb));
    std::vector<float> c0(static_cast<size_t>(cs.m * cs.ldc));
    fillUniform(a, rng);
    fillUniform(b, rng);
    fillUniform(c0, rng);

    std::vector<float> want = c0;
    sgemm_naive(cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha, a.data(),
                cs.lda, b.data(), cs.ldb, cs.beta, want.data(),
                cs.ldc);

    float bound = bf16Bound(cs.k, cs.alpha);
    uint64_t firstSum = 0;
    bool haveFirst = false;
    for (int threads : {1, 2, 4, 8}) {
        common::setComputeThreads(threads);
        std::vector<float> got = c0;
        gemm_bf16(cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha, a.data(),
                  cs.lda, b.data(), cs.ldb, cs.beta, got.data(),
                  cs.ldc);
        // The pre-packed entry must write the same bytes.
        PackedWeights packed;
        packed.pack(Precision::Bf16, cs.tb, cs.k, cs.n, b.data(),
                    cs.ldb);
        std::vector<float> viaPacked = c0;
        gemm_packed(cs.ta, cs.m, cs.alpha, a.data(), cs.lda, packed,
                    cs.beta, viaPacked.data(), cs.ldc);
        ASSERT_EQ(std::memcmp(viaPacked.data(), got.data(),
                              got.size() * sizeof(float)),
                  0)
            << "packed entry differs from gemm_bf16, threads="
            << threads;
        for (int64_t i = 0; i < cs.m; ++i) {
            for (int64_t j = 0; j < cs.n; ++j) {
                size_t at = static_cast<size_t>(i * cs.ldc + j);
                ASSERT_NEAR(got[at], want[at], bound)
                    << "threads=" << threads << " i=" << i
                    << " j=" << j;
            }
        }
        // Padding columns beyond n must never be written.
        for (int64_t i = 0; i < cs.m; ++i) {
            for (int64_t j = cs.n; j < cs.ldc; ++j) {
                size_t at = static_cast<size_t>(i * cs.ldc + j);
                ASSERT_EQ(got[at], c0[at])
                    << "pad clobbered at i=" << i << " j=" << j;
            }
        }
        uint64_t sum = bitChecksum(got);
        if (!haveFirst) {
            firstSum = sum;
            haveFirst = true;
        } else {
            ASSERT_EQ(sum, firstSum)
                << "bf16 output bits depend on thread count ("
                << threads << ")";
        }
    }
}

TEST(GemmDiffBf16, SweepShapesTransposesStridesScales)
{
    PoolSizeGuard guard;
    const int64_t dims[] = {1, 3, 8, 17, 64, 129};
    const float scales[] = {0.0f, 1.0f, 0.5f, -2.0f};
    djinn::Rng rng(0xbf16d1f5u);

    for (int64_t m : dims) {
        for (int64_t n : dims) {
            for (int64_t k : dims) {
                int spin = static_cast<int>(m * 31 + n * 7 + k);
                for (int tc = 0; tc < 4; ++tc) {
                    Case cs;
                    cs.m = m;
                    cs.n = n;
                    cs.k = k;
                    cs.ta = (tc & 1) ? Trans::Yes : Trans::No;
                    cs.tb = (tc & 2) ? Trans::Yes : Trans::No;
                    int64_t aCols = cs.ta == Trans::No ? k : m;
                    int64_t bCols = cs.tb == Trans::No ? n : k;
                    cs.lda = aCols + 1 + (spin + tc) % 5;
                    cs.ldb = bCols + 2 + spin % 3;
                    cs.ldc = n + 1 + (spin + 2 * tc) % 4;
                    cs.alpha = scales[(spin + tc) % 4];
                    cs.beta = scales[(spin / 4 + tc) % 4];
                    runBf16Case(cs, rng);
                    if (testing::Test::HasFatalFailure())
                        return;
                }
            }
        }
    }
}

/** Serving shapes, as in GemmDiff.ServingShapesPackedAndRaw. */
TEST(GemmDiffBf16, ServingShapesPackedAndRaw)
{
    PoolSizeGuard guard;
    djinn::Rng rng(0xbf5e7u);
    const int64_t nk[][2] = {{45, 300}, {250, 520}, {100, 1100}};
    for (int64_t m : {1, 2, 3, 7, 8, 9, 16, 28, 65, 198}) {
        for (const auto &[n, k] : nk) {
            Case cs{m, n, k, Trans::No, Trans::Yes,
                    k, k, n, 1.0f,      0.0f};
            runBf16Case(cs, rng);
            if (testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(GemmDiffBf16, LargeShapeAcrossBlockBoundaries)
{
    PoolSizeGuard guard;
    djinn::Rng rng(0xb1f5);
    // k > 256 forces multiple KC slices, m > 64 multiple row blocks.
    Case cs{300,  257,  520,  Trans::No, Trans::No,
            520,  257,  257,  1.0f,      0.5f};
    runBf16Case(cs, rng);
}

// ---------------------------------------------------------------
// int8
// ---------------------------------------------------------------

/**
 * int8-vs-f32 quantization bound: per k step the activation error
 * is <= sa/2 against an operand bounded by max|b| (and vice versa),
 * plus the sa*sb/4 cross term; 2x slack absorbs the final float
 * dequant arithmetic.
 */
float
int8Bound(int64_t k, float alpha, float sa, float sb, float amax,
          float bmax)
{
    float kf = static_cast<float>(k);
    float per_step = 0.5f * sa * bmax + 0.5f * sb * amax +
                     0.25f * sa * sb;
    return 2.0f * std::max(1.0f, std::fabs(alpha)) * kf * per_step +
           8.0f * kEps;
}

/**
 * Shared int8 case runner: f32 activations quantized on the left
 * under an affineS8 (@p signedAct) or affineU8 mapping, s8 weight
 * codes on the right, through gemm_s8 and through gemm_packed.
 * Checks, per thread count: byte equality of the two entries, exact
 * agreement (few ulps) with a scalar integer reference, the
 * quantization-step bound against the f32 reference, pad
 * preservation, and cross-thread bit identity.
 */
void
runInt8Case(const Case &cs, bool signedAct, djinn::Rng &rng)
{
    SCOPED_TRACE(testing::Message()
                 << (signedAct ? "s8 " : "u8 ") << "m=" << cs.m
                 << " n=" << cs.n << " k=" << cs.k << " ta="
                 << (cs.ta == Trans::Yes) << " tb="
                 << (cs.tb == Trans::Yes) << " lda=" << cs.lda
                 << " ldb=" << cs.ldb << " ldc=" << cs.ldc
                 << " alpha=" << cs.alpha << " beta=" << cs.beta);

    int64_t aRows = cs.ta == Trans::No ? cs.m : cs.k;
    int64_t bRows = cs.tb == Trans::No ? cs.k : cs.n;
    std::vector<float> af(static_cast<size_t>(aRows * cs.lda));
    std::vector<float> bf(static_cast<size_t>(bRows * cs.ldb));
    std::vector<float> c0(static_cast<size_t>(cs.m * cs.ldc));
    fillUniform(af, rng);
    fillUniform(bf, rng);
    fillUniform(c0, rng);

    // f32 reference for the quantization-error comparison.
    std::vector<float> f32ref = c0;
    sgemm_naive(cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha, af.data(),
                cs.lda, bf.data(), cs.ldb, cs.beta, f32ref.data(),
                cs.ldc);

    // Quantize the weights per output channel (columns of op(B))
    // and build the activations' per-tensor mapping.
    std::vector<int8_t> b8(bf.size());
    std::vector<float> b_scales(static_cast<size_t>(cs.n));
    for (int64_t j = 0; j < cs.n; ++j) {
        float mx = 0.0f;
        for (int64_t p = 0; p < cs.k; ++p)
            mx = std::max(mx, std::fabs(opB(bf, cs, p, j)));
        QuantParams wq = QuantParams::symmetricS8(mx);
        b_scales[static_cast<size_t>(j)] = wq.scale;
        for (int64_t p = 0; p < cs.k; ++p) {
            size_t at = cs.tb == Trans::No
                ? static_cast<size_t>(p * cs.ldb + j)
                : static_cast<size_t>(j * cs.ldb + p);
            b8[at] = static_cast<int8_t>(wq.quantize(bf[at]));
        }
    }
    float lo, hi;
    minMax(af.data(), static_cast<int64_t>(af.size()), &lo, &hi);
    QuantParams actq = signedAct ? QuantParams::affineS8(lo, hi)
                                 : QuantParams::affineU8(lo, hi);

    // Scalar integer reference: the exact accumulator the kernel
    // must produce, dequantized with the same float expression.
    auto intRef = [&](int64_t i, int64_t j) -> float {
        int64_t acc = 0;
        for (int64_t p = 0; p < cs.k; ++p) {
            int64_t qa = actq.quantize(opA(af, cs, i, p)) -
                         actq.zeroPoint;
            size_t at = cs.tb == Trans::No
                ? static_cast<size_t>(p * cs.ldb + j)
                : static_cast<size_t>(j * cs.ldb + p);
            acc += qa * b8[at];
        }
        size_t at = static_cast<size_t>(i * cs.ldc + j);
        float base = cs.beta == 0.0f ? 0.0f : c0[at] * cs.beta;
        return base + cs.alpha * actq.scale *
                          b_scales[static_cast<size_t>(j)] *
                          static_cast<float>(acc);
    };

    float a_lo, a_hi, b_lo, b_hi;
    minMax(af.data(), static_cast<int64_t>(af.size()), &a_lo, &a_hi);
    minMax(bf.data(), static_cast<int64_t>(bf.size()), &b_lo, &b_hi);
    float amax = std::max(std::fabs(a_lo), std::fabs(a_hi));
    float bmax = std::max(std::fabs(b_lo), std::fabs(b_hi));
    float qbound = int8Bound(
        cs.k, cs.alpha, actq.scale,
        *std::max_element(b_scales.begin(), b_scales.end()), amax,
        bmax);

    uint64_t firstSum = 0;
    bool haveFirst = false;
    for (int threads : {1, 2, 4, 8}) {
        common::setComputeThreads(threads);
        std::vector<float> got = c0;
        gemm_s8(cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha, af.data(),
                cs.lda, actq, b8.data(), cs.ldb, b_scales.data(),
                cs.beta, got.data(), cs.ldc);
        // Packing the f32 weights with the same column scales yields
        // the same codes, so the same bytes.
        PackedWeights packed;
        packed.pack(Precision::Int8, cs.tb, cs.k, cs.n, bf.data(),
                    cs.ldb, b_scales.data());
        std::vector<float> viaPacked = c0;
        gemm_packed(cs.ta, cs.m, cs.alpha, af.data(), cs.lda, packed,
                    cs.beta, viaPacked.data(), cs.ldc, actq);
        ASSERT_EQ(std::memcmp(viaPacked.data(), got.data(),
                              got.size() * sizeof(float)),
                  0)
            << "packed entry differs from gemm_s8, threads="
            << threads;
        for (int64_t i = 0; i < cs.m; ++i) {
            for (int64_t j = 0; j < cs.n; ++j) {
                size_t at = static_cast<size_t>(i * cs.ldc + j);
                float exact = intRef(i, j);
                // Integer accumulation is exact; only the dequant
                // float arithmetic may differ by a few ulps.
                float ulps = 8.0f * kEps *
                             (std::fabs(exact) + 1.0f);
                ASSERT_NEAR(got[at], exact, ulps)
                    << "int-ref threads=" << threads << " i=" << i
                    << " j=" << j;
                ASSERT_NEAR(got[at], f32ref[at], qbound)
                    << "f32-ref threads=" << threads << " i=" << i
                    << " j=" << j;
            }
        }
        for (int64_t i = 0; i < cs.m; ++i) {
            for (int64_t j = cs.n; j < cs.ldc; ++j) {
                size_t at = static_cast<size_t>(i * cs.ldc + j);
                ASSERT_EQ(got[at], c0[at])
                    << "pad clobbered at i=" << i << " j=" << j;
            }
        }
        uint64_t sum = bitChecksum(got);
        if (!haveFirst) {
            firstSum = sum;
            haveFirst = true;
        } else {
            ASSERT_EQ(sum, firstSum)
                << "int8 output bits depend on thread count ("
                << threads << ")";
        }
    }
}

TEST(GemmDiffInt8, SweepShapesTransposesStridesScales)
{
    PoolSizeGuard guard;
    const int64_t dims[] = {1, 3, 8, 17, 64, 129};
    const float scales[] = {0.0f, 1.0f, 0.5f, -2.0f};
    djinn::Rng rng(0x1e8d1f5u);

    for (int64_t m : dims) {
        for (int64_t n : dims) {
            for (int64_t k : dims) {
                int spin = static_cast<int>(m * 31 + n * 7 + k);
                for (int tc = 0; tc < 4; ++tc) {
                    Case cs;
                    cs.m = m;
                    cs.n = n;
                    cs.k = k;
                    cs.ta = (tc & 1) ? Trans::Yes : Trans::No;
                    cs.tb = (tc & 2) ? Trans::Yes : Trans::No;
                    int64_t aCols = cs.ta == Trans::No ? k : m;
                    int64_t bCols = cs.tb == Trans::No ? n : k;
                    cs.lda = aCols + 1 + (spin + tc) % 5;
                    cs.ldb = bCols + 2 + spin % 3;
                    cs.ldc = n + 1 + (spin + 2 * tc) % 4;
                    cs.alpha = scales[(spin + tc) % 4];
                    cs.beta = scales[(spin / 4 + tc) % 4];
                    // Alternate the activation mapping across the
                    // sweep so both cover the full grid.
                    runInt8Case(cs, (spin + tc) % 2 == 1, rng);
                    if (testing::Test::HasFatalFailure())
                        return;
                }
            }
        }
    }
}

/**
 * Serving shapes, as in GemmDiff.ServingShapesPackedAndRaw, with k
 * also across the KC8 = 1024 int8 slice boundary.
 */
TEST(GemmDiffInt8, ServingShapesPackedAndRaw)
{
    PoolSizeGuard guard;
    djinn::Rng rng(0x1e85e7u);
    const int64_t nk[][2] = {{45, 300}, {250, 520}, {100, 1100}};
    for (int64_t m : {1, 2, 3, 7, 8, 9, 16, 28, 65, 198}) {
        for (const auto &[n, k] : nk) {
            Case cs{m, n, k, Trans::No, Trans::Yes,
                    k, k, n, 1.0f,      0.0f};
            runInt8Case(cs, false, rng);
            if (testing::Test::HasFatalFailure())
                return;
        }
    }
}

/**
 * The transposed convolution shapes: M = output positions (169 is
 * AlexNet's conv3-5, three row blocks with a short edge), k = patch
 * (past the KC8 slice for conv4/5), n = filters per group, op(A) a
 * group's lda-strided slice of the position-major rows, under a
 * signed activation mapping.
 */
TEST(GemmDiffInt8, ConvShapesSignedActivations)
{
    PoolSizeGuard guard;
    djinn::Rng rng(0xc0471u);
    const int64_t mkn[][3] = {{169, 1728, 48}, {30, 363, 96},
                              {9, 250, 20}};
    for (const auto &[m, k, n] : mkn) {
        for (int64_t groups : {1, 2}) {
            Case cs{m, n, k, Trans::No, Trans::Yes, k * groups, k,
                    n * groups, 1.0f, 0.0f};
            runInt8Case(cs, true, rng);
            if (testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(GemmDiffInt8, LargeShapeAcrossSliceBoundaries)
{
    PoolSizeGuard guard;
    djinn::Rng rng(0x1e85);
    // k > 1024 forces multiple int8 KC slices (accumulator carried
    // across slices), m > 64 multiple row blocks.
    for (bool signedAct : {false, true}) {
        Case cs{130,  97,   1500, Trans::No, Trans::No,
                1500, 97,   101,  1.0f,      0.5f};
        runInt8Case(cs, signedAct, rng);
        if (testing::Test::HasFatalFailure())
            return;
    }
}

/**
 * The exact C of a KernelsAgreeBitForBit case, whose weights are
 * n x k codes (the fully connected orientation): a scalar int32 sum
 * per element through the driver's epilogue expression, pad
 * columns left as @p c0.
 */
std::vector<float>
exactInt8Ref(const Case &cs, const std::vector<float> &af,
             const QuantParams &aq, const std::vector<int8_t> &b8,
             const std::vector<float> &bScales,
             const std::vector<float> &c0)
{
    std::vector<int32_t> qa(static_cast<size_t>(cs.m * cs.k));
    for (int64_t i = 0; i < cs.m; ++i)
        for (int64_t p = 0; p < cs.k; ++p)
            qa[static_cast<size_t>(i * cs.k + p)] =
                aq.quantize(opA(af, cs, i, p)) - aq.zeroPoint;
    std::vector<float> want = c0;
    for (int64_t i = 0; i < cs.m; ++i) {
        for (int64_t j = 0; j < cs.n; ++j) {
            int32_t acc = 0;
            const int32_t *arow = &qa[static_cast<size_t>(i * cs.k)];
            const int8_t *bcol = &b8[static_cast<size_t>(j * cs.ldb)];
            for (int64_t p = 0; p < cs.k; ++p)
                acc += arow[p] * bcol[p];
            float &out = want[static_cast<size_t>(i * cs.ldc + j)];
            float base = cs.beta == 0.0f   ? 0.0f
                         : cs.beta == 1.0f ? out
                                           : out * cs.beta;
            out = base + cs.alpha * aq.scale *
                             bScales[static_cast<size_t>(j)] *
                             static_cast<float>(acc);
        }
    }
    return want;
}

/**
 * Every int8 kernel this build and process can run (AMX tiles when
 * the host grants them, the VNNI or scalar microkernel otherwise),
 * forced through the detail::ScopedS8Kernel seam, writes the same
 * bytes as an exact scalar reference, through both entries, at 1,
 * 2 and 4 threads, on shapes at and around the 16-row and 64-deep
 * tile edges and the 16-column panel edge, under both activation
 * mappings.
 */
TEST(GemmDiffInt8, KernelsAgreeBitForBit)
{
    PoolSizeGuard guard;
    std::vector<detail::S8Kernel> kernels = detail::s8Kernels();
    std::cout << "[ int8     ] kernels run:";
    for (detail::S8Kernel kernel : kernels)
        std::cout << ' ' << detail::s8KernelName(kernel);
    std::cout << std::endl;

    const int64_t ms[] = {1, 15, 16, 17, 31, 32, 33, 198};
    const int64_t ks[] = {1, 3, 63, 64, 65, 440, 1025};
    std::vector<std::array<int64_t, 3>> shapes;
    for (int64_t m : ms)
        for (int64_t k : ks)
            for (int64_t n : {1, 16, 17, 33})
                shapes.push_back({m, k, n});
    // n = 4000 (Kaldi's output layer) on an anti-diagonal of (m, k),
    // so the scalar reference stays affordable under sanitizers.
    for (size_t i = 0; i < std::size(ks); ++i)
        shapes.push_back({ms[std::size(ms) - 1 - i], ks[i], 4000});

    djinn::Rng rng(0xa3c5u);
    for (const auto &[m, k, n] : shapes) {
        for (bool signedAct : {false, true}) {
            int64_t spin = m + k + n + (signedAct ? 1 : 0);
            Case cs;
            cs.m = m;
            cs.n = n;
            cs.k = k;
            cs.ta = spin % 2 ? Trans::Yes : Trans::No;
            cs.tb = Trans::Yes;
            cs.lda = (cs.ta == Trans::No ? k : m) + 5;
            cs.ldb = k;
            cs.ldc = n + 2;
            cs.alpha = spin % 3 ? 1.0f : -0.5f;
            cs.beta = spin % 4 ? 0.0f : 0.5f;
            SCOPED_TRACE(testing::Message()
                         << (signedAct ? "s8 " : "u8 ") << "m=" << m
                         << " k=" << k << " n=" << n << " ta="
                         << (cs.ta == Trans::Yes));

            std::vector<float> af(static_cast<size_t>(
                (cs.ta == Trans::No ? m : k) * cs.lda));
            std::vector<float> bf(static_cast<size_t>(n * k));
            std::vector<float> c0(static_cast<size_t>(m * cs.ldc));
            fillUniform(af, rng);
            fillUniform(bf, rng);
            fillUniform(c0, rng);
            float lo, hi;
            minMax(af.data(), static_cast<int64_t>(af.size()), &lo,
                   &hi);
            QuantParams aq = signedAct ? QuantParams::affineS8(lo, hi)
                                       : QuantParams::affineU8(lo, hi);
            std::vector<int8_t> b8(bf.size());
            std::vector<float> bScales(static_cast<size_t>(n));
            for (int64_t j = 0; j < n; ++j) {
                const float *col = &bf[static_cast<size_t>(j * k)];
                float mx = 0.0f;
                for (int64_t p = 0; p < k; ++p)
                    mx = std::max(mx, std::fabs(col[p]));
                QuantParams wq = QuantParams::symmetricS8(mx);
                bScales[static_cast<size_t>(j)] = wq.scale;
                for (int64_t p = 0; p < k; ++p)
                    b8[static_cast<size_t>(j * k + p)] =
                        static_cast<int8_t>(wq.quantize(col[p]));
            }
            std::vector<float> want =
                exactInt8Ref(cs, af, aq, b8, bScales, c0);
            PackedWeights packed;
            packed.pack(Precision::Int8, Trans::Yes, k, n, bf.data(),
                        k, bScales.data());

            for (detail::S8Kernel kernel : kernels) {
                detail::ScopedS8Kernel force(kernel);
                for (int threads : {1, 2, 4}) {
                    common::setComputeThreads(threads);
                    std::vector<float> raw = c0;
                    gemm_s8(cs.ta, Trans::Yes, m, n, k, cs.alpha,
                            af.data(), cs.lda, aq, b8.data(), k,
                            bScales.data(), cs.beta, raw.data(),
                            cs.ldc);
                    std::vector<float> viaPacked = c0;
                    gemm_packed(cs.ta, m, cs.alpha, af.data(), cs.lda,
                                packed, cs.beta, viaPacked.data(),
                                cs.ldc, aq);
                    size_t bytes = want.size() * sizeof(float);
                    ASSERT_EQ(std::memcmp(raw.data(), want.data(),
                                          bytes),
                              0)
                        << detail::s8KernelName(kernel)
                        << " gemm_s8, threads=" << threads;
                    ASSERT_EQ(std::memcmp(viaPacked.data(),
                                          want.data(), bytes),
                              0)
                        << detail::s8KernelName(kernel)
                        << " gemm_packed, threads=" << threads;
                }
            }
        }
    }
}

TEST(GemmDiffInt8, KBeyondAccumulatorBoundIsFatal)
{
    PoolSizeGuard guard;
    std::vector<float> a(1), b(1), c(1);
    std::vector<int8_t> b8(1);
    std::vector<float> scales(1, 1.0f);
    QuantParams aq = QuantParams::affineU8(-1.0f, 1.0f);
    // k beyond 2^16 could overflow the int32 accumulators; the
    // kernel must refuse loudly rather than wrap silently.
    ASSERT_THROW(gemm_s8(Trans::No, Trans::No, 1, 1,
                         (int64_t{1} << 16) + 1, 1.0f, a.data(),
                         (int64_t{1} << 16) + 1, aq, b8.data(), 1,
                         scales.data(), 0.0f, c.data(), 1),
                 FatalError);
}

} // namespace
} // namespace nn
} // namespace djinn
