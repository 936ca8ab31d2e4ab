/**
 * @file
 * Differential test battery for the packed/blocked SGEMM kernel:
 * every (shape, transpose, stride, scale) combination is checked
 * against the reference scalar kernel (sgemm_naive), at 1, 2, 4,
 * and 8 compute threads, and the pre-packed entry against the raw
 * one byte for byte. The two kernels accumulate in different orders,
 * so results are compared within an explicit error bound derived
 * from the accumulation depth k, not bit-exactly; bit-exactness
 * *across thread counts* of the fast kernel itself is asserted by
 * determinism_test.cc and by the checksum comparison here.
 */

#include "nn/gemm.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"

namespace djinn {
namespace nn {
namespace {

/** Restores the global pool to its automatic size on scope exit. */
struct PoolSizeGuard {
    ~PoolSizeGuard() { common::setComputeThreads(0); }
};

/**
 * Error bound for comparing the blocked kernel against the
 * reference. Both kernels compute the same k-term dot products in
 * different association orders; with inputs in [-1, 1] each partial
 * sum is bounded by k, and reassociating a k-term float sum
 * perturbs it by at most ~k * eps * max|partial sum|. The fast
 * kernel's build also disables FMA contraction (-ffp-contract=off),
 * so no extra contraction term appears. 8 ulp of slack covers the
 * alpha/beta scaling arithmetic.
 */
float
errorBound(int64_t k, float alpha)
{
    float eps = 1.19209290e-07f; // FLT_EPSILON
    float mag = static_cast<float>(k) * std::max(1.0f,
                                                 std::fabs(alpha));
    return 2.0f * eps * static_cast<float>(k) * mag + 8.0f * eps;
}

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

/**
 * Runs one case: reference once, fast kernel at each thread count.
 * Asserts (a) fast stays within the error bound of the reference,
 * (b) fast output bits are identical at every thread count, and
 * (c) the pre-packed entry (gemm_packed) writes the same bytes as
 * the raw-operand entry.
 */
void
runCase(const Case &cs, djinn::Rng &rng)
{
    SCOPED_TRACE(testing::Message()
                 << "m=" << cs.m << " n=" << cs.n << " k=" << cs.k
                 << " ta=" << (cs.ta == Trans::Yes) << " tb="
                 << (cs.tb == Trans::Yes) << " lda=" << cs.lda
                 << " ldb=" << cs.ldb << " ldc=" << cs.ldc
                 << " alpha=" << cs.alpha << " beta=" << cs.beta);

    // A as stored: m x k rows if untransposed, k x m if transposed.
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

    float bound = errorBound(cs.k, cs.alpha);
    uint64_t firstSum = 0;
    bool haveFirst = false;
    for (int threads : {1, 2, 4, 8}) {
        common::setComputeThreads(threads);
        std::vector<float> got = c0;
        sgemm(cs.ta, cs.tb, cs.m, cs.n, cs.k, cs.alpha, a.data(),
              cs.lda, b.data(), cs.ldb, cs.beta, got.data(),
              cs.ldc);
        PackedWeights packed;
        packed.pack(Precision::F32, cs.tb, cs.k, cs.n, b.data(),
                    cs.ldb);
        std::vector<float> viaPacked = c0;
        gemm_packed(cs.ta, cs.m, cs.alpha, a.data(), cs.lda, packed,
                    cs.beta, viaPacked.data(), cs.ldc);
        ASSERT_EQ(std::memcmp(viaPacked.data(), got.data(),
                              got.size() * sizeof(float)),
                  0)
            << "packed entry differs from sgemm, threads="
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
                << "output bits depend on thread count ("
                << threads << ")";
        }
    }
}

TEST(GemmDiff, SweepShapesTransposesStridesScales)
{
    PoolSizeGuard guard;
    const int64_t dims[] = {1, 3, 8, 17, 64, 129};
    const float scales[] = {0.0f, 1.0f, 0.5f, -2.0f};
    djinn::Rng rng(0xd1f5u);

    for (int64_t m : dims) {
        for (int64_t n : dims) {
            for (int64_t k : dims) {
                // Rotate through the transpose and scale grids so
                // every value appears against every dimension
                // without exploding the case count.
                int spin = static_cast<int>(m * 31 + n * 7 + k);
                for (int tc = 0; tc < 4; ++tc) {
                    Case cs;
                    cs.m = m;
                    cs.n = n;
                    cs.k = k;
                    cs.ta = (tc & 1) ? Trans::Yes : Trans::No;
                    cs.tb = (tc & 2) ? Trans::Yes : Trans::No;
                    // Non-unit leading dimensions: stored row
                    // lengths plus a case-dependent slack.
                    int64_t aCols = cs.ta == Trans::No ? k : m;
                    int64_t bCols = cs.tb == Trans::No ? n : k;
                    cs.lda = aCols + 1 + (spin + tc) % 5;
                    cs.ldb = bCols + 2 + spin % 3;
                    cs.ldc = n + 1 + (spin + 2 * tc) % 4;
                    cs.alpha = scales[(spin + tc) % 4];
                    cs.beta = scales[(spin / 4 + tc) % 4];
                    runCase(cs, rng);
                    if (testing::Test::HasFatalFailure())
                        return;
                }
            }
        }
    }
}

TEST(GemmDiff, UnitStridesAndIdentityScales)
{
    PoolSizeGuard guard;
    djinn::Rng rng(7);
    // The most common production configuration deserves an
    // unrotated pass: alpha=1, beta=0, packed strides.
    for (int64_t m : {1, 8, 17, 129}) {
        for (int64_t n : {1, 16, 64}) {
            for (int64_t k : {3, 64, 129}) {
                Case cs{m,        n,    k,    Trans::No, Trans::No,
                        k,        n,    n,    1.0f,      0.0f};
                runCase(cs, rng);
                if (testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}

TEST(GemmDiff, LargeSingleShapeAgainstReference)
{
    PoolSizeGuard guard;
    djinn::Rng rng(99);
    // One shape big enough to cross the KC/MC blocking boundaries
    // (k > 256 forces multiple packed slices, m > 64 multiple row
    // blocks).
    Case cs{300,  257,  520,  Trans::No, Trans::No,
            520,  257,  257,  1.0f,      0.5f};
    runCase(cs, rng);
}

/**
 * Serving shapes: the fully connected orientation (B = W^T, W
 * row-major) at batch sizes around the MR = 8 row panel and the
 * MC = 64 row block, n off the NR = 16 panel width, and k across
 * the KC = 256 slice boundary. Covers the live-row kernel (a short
 * last row panel) and the N split (fewer row blocks than threads).
 */
TEST(GemmDiff, ServingShapesPackedAndRaw)
{
    PoolSizeGuard guard;
    djinn::Rng rng(0x5e7u);
    const int64_t nk[][2] = {{45, 300}, {250, 520}, {100, 1100}};
    for (int64_t m : {1, 2, 3, 7, 8, 9, 16, 28, 65, 198}) {
        for (const auto &[n, k] : nk) {
            Case cs{m, n, k, Trans::No, Trans::Yes,
                    k, k, n, 1.0f,      0.0f};
            runCase(cs, rng);
            if (testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(GemmDiff, SgemvMatchesSgemm)
{
    PoolSizeGuard guard;
    djinn::Rng rng(1234);
    for (int64_t m : {1, 7, 64, 301}) {
        for (int64_t n : {1, 13, 250, 600}) {
            std::vector<float> a(static_cast<size_t>(m * n));
            std::vector<float> x(static_cast<size_t>(n));
            fillUniform(a, rng);
            fillUniform(x, rng);

            std::vector<float> viaGemv(static_cast<size_t>(m));
            sgemv(m, n, a.data(), x.data(), viaGemv.data());

            std::vector<float> viaGemm(static_cast<size_t>(m),
                                       123.0f);
            sgemm(Trans::No, Trans::No, m, 1, n, 1.0f, a.data(), n,
                  x.data(), 1, 0.0f, viaGemm.data(), 1);

            // Same routing, same kernel: bit-identical, not just
            // close.
            for (int64_t i = 0; i < m; ++i)
                ASSERT_EQ(viaGemv[static_cast<size_t>(i)],
                          viaGemm[static_cast<size_t>(i)])
                    << "m=" << m << " n=" << n << " i=" << i;
        }
    }
}

} // namespace
} // namespace nn
} // namespace djinn
