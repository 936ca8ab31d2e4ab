#include "nn/gemm.hh"
#include "nn/gemm_internal.hh"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace djinn {
namespace nn {

namespace {

// ---------------------------------------------------------------
// Production kernel: packed panels + register-tiled microkernels.
//
// Blocking scheme (DESIGN.md §8): op(B) lives in NR-wide column
// panels (packed once per weight set, or per call and per KC slice
// on the raw-operand path). Work is cut into tiles of one MC row
// block x one range of N panels; a tile packs its op(A) rows into
// MR-row panels one KC slice at a time and drives the microkernel
// over its panels. Every C element is owned by exactly one tile,
// and each tile visits k slices in ascending order, so the floating
// point reduction order is fixed regardless of pool size or tiling.
// ---------------------------------------------------------------

using detail::fetch;
using detail::kPanelChunk;
using detail::MC;
using detail::MR;
using detail::NR;

constexpr int64_t KC = 256; ///< k block (panel depth)

static_assert(MC % MR == 0, "row blocks must hold whole A panels");

/**
 * The register-tiled core: acc[R][G][NR] = the first R rows of an
 * A panel times G consecutive B panels (@p bstride floats apart)
 * over kb steps. R == MR is the full panel; R < MR is the live-row
 * kernel for a short last panel (M = 1 on a batch of one), which
 * reads G panels per A load instead of computing padded rows.
 * Written with GCC/Clang vector extensions so each accumulator is
 * one NR-wide vector (legalized to the target's width); contraction
 * is disabled for this file, so every lane runs the same separate
 * IEEE mul and add over ascending p whatever R and G are, and the
 * result bits never depend on the host's FMA support.
 */
#if defined(__GNUC__) || defined(__clang__)

typedef float VecNR __attribute__((vector_size(NR * sizeof(float)),
                                   aligned(alignof(float))));

template <int R, int G>
__attribute__((noinline)) void
microKernel(int64_t kb, const float *__restrict__ ap,
            const float *__restrict__ bp, int64_t bstride,
            float *__restrict__ acc)
{
    VecNR c[R][G] = {};
    for (int64_t p = 0; p < kb; ++p) {
        VecNR bv[G];
#pragma GCC unroll 8
        for (int g = 0; g < G; ++g)
            __builtin_memcpy(&bv[g], bp + g * bstride + p * NR,
                             sizeof(VecNR));
        const float *a = ap + p * MR;
#pragma GCC unroll 8
        for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
            for (int g = 0; g < G; ++g)
                c[r][g] += a[r] * bv[g];
        }
    }
    __builtin_memcpy(acc, c, sizeof(c));
}

#else // portable scalar fallback, same arithmetic order

template <int R, int G>
void
microKernel(int64_t kb, const float *ap, const float *bp,
            int64_t bstride, float *acc)
{
    for (int64_t i = 0; i < R * G * NR; ++i)
        acc[i] = 0.0f;
    for (int64_t p = 0; p < kb; ++p) {
        for (int r = 0; r < R; ++r) {
            for (int g = 0; g < G; ++g) {
                const float *brow = bp + g * bstride + p * NR;
                float *crow = acc + (r * G + g) * NR;
                for (int64_t j = 0; j < NR; ++j)
                    crow[j] += ap[p * MR + r] * brow[j];
            }
        }
    }
}

#endif

/**
 * C rows [0, R) += alpha * (A panel x B panels [pj0, pj1)), G panels
 * per microkernel call. @p c points at the panel's first row.
 */
template <int R>
void
panelRow(int64_t kb, const float *ap, const float *bp, int64_t bstride,
         int64_t pj0, int64_t pj1, int64_t n, float alpha, float *c,
         int64_t ldc)
{
    constexpr int G = R >= 5 ? 1 : R >= 3 ? 2 : 4;
    float acc[R * G * NR]; // fully written by each call
    auto store = [&](int64_t pj, int groups) {
        for (int g = 0; g < groups; ++g) {
            int64_t jb = (pj + g) * NR;
            int64_t nr = std::min(NR, n - jb);
            for (int r = 0; r < R; ++r) {
                float *crow = c + r * ldc + jb;
                const float *arow = acc + (r * groups + g) * NR;
                for (int64_t jj = 0; jj < nr; ++jj)
                    crow[jj] += alpha * arow[jj];
            }
        }
    };
    int64_t pj = pj0;
    for (; pj + G <= pj1; pj += G) {
        microKernel<R, G>(kb, ap, bp + pj * bstride, bstride, acc);
        store(pj, G);
    }
    for (; pj < pj1; ++pj) {
        microKernel<R, 1>(kb, ap, bp + pj * bstride, bstride, acc);
        store(pj, 1);
    }
}

/** panelRow by live-row count (1..MR). */
using PanelRowFn = void (*)(int64_t, const float *, const float *,
                            int64_t, int64_t, int64_t, int64_t, float,
                            float *, int64_t);
constexpr PanelRowFn kPanelRow[MR + 1] = {
    nullptr,      panelRow<1>, panelRow<2>, panelRow<3>, panelRow<4>,
    panelRow<5>,  panelRow<6>, panelRow<7>, panelRow<8>,
};

/**
 * Pack op(B)[k0 : k0+kb) x [0 : n) panels [pj0, pj1) in layout
 * [p][j], panel pj at bpack + pj * bstride, zero-padded to NR at
 * the right edge; Bf16 rounds every value to bf16.
 */
template <bool Bf16>
void
packB(const float *b, int64_t ldb, Trans trans, int64_t k0,
      int64_t kb, int64_t n, int64_t pj0, int64_t pj1, float *bpack,
      int64_t bstride)
{
    for (int64_t pj = pj0; pj < pj1; ++pj) {
        float *panel = bpack + pj * bstride;
        int64_t j0 = pj * NR;
        int64_t nr = std::min(NR, n - j0);
        for (int64_t p = 0; p < kb; ++p) {
            float *row = panel + p * NR;
            for (int64_t jj = 0; jj < nr; ++jj) {
                float v = fetch(b, ldb, trans, k0 + p, j0 + jj);
                row[jj] = Bf16 ? bf16Round(v) : v;
            }
            for (int64_t jj = nr; jj < NR; ++jj)
                row[jj] = 0.0f;
        }
    }
}

/**
 * Pack op(A)[i0 : i0+mb) x [k0 : k0+kb) into MR-row panels in
 * layout [p][i], zero-padded to MR at the bottom edge; Bf16
 * rounds every value to bf16.
 */
template <bool Bf16>
void
packA(const float *a, int64_t lda, Trans trans, int64_t i0,
      int64_t mb, int64_t k0, int64_t kb, float *apack)
{
    int64_t mpanels = (mb + MR - 1) / MR;
    for (int64_t pi = 0; pi < mpanels; ++pi) {
        float *panel = apack + pi * kb * MR;
        int64_t ib = i0 + pi * MR;
        int64_t mr = std::min(MR, i0 + mb - ib);
        for (int64_t p = 0; p < kb; ++p) {
            float *row = panel + p * MR;
            for (int64_t ii = 0; ii < mr; ++ii) {
                float v = fetch(a, lda, trans, ib + ii, k0 + p);
                row[ii] = Bf16 ? bf16Round(v) : v;
            }
            for (int64_t ii = mr; ii < MR; ++ii)
                row[ii] = 0.0f;
        }
    }
}

/**
 * Drive C += alpha * op(A) * B over k in [k0, k1) with B already in
 * panels (@p bp at panel 0, row k0; @p bstride floats per panel).
 * k slices start at multiples of KC, as on every path, so a slice's
 * partial sums are the same whichever entry point packed B.
 */
void
driveF32(Trans trans_a, int64_t m, int64_t n, int64_t k0, int64_t k1,
         float alpha, const float *a, int64_t lda, bool bf16,
         const float *bp, int64_t bstride, float *c, int64_t ldc)
{
    int64_t npanels = (n + NR - 1) / NR;
    detail::GemmTiles tiles(m, npanels);
    common::computePool().parallelFor(
        0, tiles.count(), 1, [&](int64_t t0, int64_t t1) {
            static thread_local std::vector<float> apack_tls;
            std::vector<float> &apack = apack_tls;
            apack.resize(static_cast<size_t>(MC) * KC);
            for (int64_t t = t0; t < t1; ++t) {
                detail::GemmTiles::Tile tile = tiles.tile(t);
                for (int64_t kk = k0; kk < k1; kk += KC) {
                    int64_t kb = std::min(KC, k1 - kk);
                    (bf16 ? packA<true> : packA<false>)(
                        a, lda, trans_a, tile.i0, tile.mb, kk, kb,
                        apack.data());
                    // Row panels innermost, so a chunk of B panels
                    // is read from memory once per slice.
                    for (int64_t pc = tile.pj0; pc < tile.pj1;
                         pc += kPanelChunk) {
                        int64_t pe = std::min(pc + kPanelChunk,
                                              tile.pj1);
                        for (int64_t ii = 0; ii < tile.mb; ii += MR) {
                            kPanelRow[std::min(MR, tile.mb - ii)](
                                kb, apack.data() + ii * kb,
                                bp + (kk - k0) * NR, bstride, pc, pe,
                                n, alpha, c + (tile.i0 + ii) * ldc,
                                ldc);
                        }
                    }
                }
            }
        });
}

/** Scale C by beta (the epilogue-free prologue of every path). */
void
scaleByBeta(int64_t m, int64_t n, float beta, float *c, int64_t ldc)
{
    auto &pool = common::computePool();
    int64_t grain =
        std::max<int64_t>(1, 16384 / std::max<int64_t>(n, 1));
    pool.parallelFor(0, m, grain, [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
            float *c_row = c + i * ldc;
            if (beta == 0.0f) {
                std::memset(c_row, 0,
                            static_cast<size_t>(n) * sizeof(float));
            } else if (beta != 1.0f) {
                for (int64_t j = 0; j < n; ++j)
                    c_row[j] *= beta;
            }
        }
    });
}

/**
 * Matrix-vector fast path (n == 1): one fixed-order dot product per
 * output row, partitioned across the pool. B's single column is
 * read @p bstride floats apart.
 */
void
gemvKernel(Trans trans_a, int64_t m, int64_t k, float alpha,
           const float *a, int64_t lda, const float *b,
           int64_t bstride, float *c, int64_t ldc)
{
    auto &pool = common::computePool();
    int64_t grain =
        std::max<int64_t>(1, 4096 / std::max<int64_t>(k, 1));
    pool.parallelFor(0, m, grain, [&](int64_t r0, int64_t r1) {
        for (int64_t i = r0; i < r1; ++i) {
            float acc = 0.0f;
            for (int64_t p = 0; p < k; ++p)
                acc += fetch(a, lda, trans_a, i, p) * b[p * bstride];
            c[i * ldc] += alpha * acc;
        }
    });
}

/**
 * The raw-operand f32/bf16 GEMM after the prologue: pack this call's
 * B one KC slice at a time, then run the shared driver on it.
 */
void
gemmRaw(Trans trans_a, Trans trans_b, int64_t m, int64_t n,
        int64_t k, float alpha, const float *a, int64_t lda,
        const float *b, int64_t ldb, float *c, int64_t ldc, bool bf16)
{
    int64_t npanels = (n + NR - 1) / NR;
    // Thread-local so repeated calls from the same thread reuse it.
    static thread_local std::vector<float> bpack_tls;
    std::vector<float> &bpack = bpack_tls;
    bpack.resize(static_cast<size_t>(npanels) * std::min(KC, k) * NR);
    for (int64_t k0 = 0; k0 < k; k0 += KC) {
        int64_t kb = std::min(KC, k - k0);
        common::computePool().parallelFor(
            0, npanels, 16, [&](int64_t p0, int64_t p1) {
                (bf16 ? packB<true> : packB<false>)(
                    b, ldb, trans_b, k0, kb, n, p0, p1, bpack.data(),
                    kb * NR);
            });
        driveF32(trans_a, m, n, k0, k0 + kb, alpha, a, lda, bf16,
                 bpack.data(), kb * NR, c, ldc);
    }
}

} // namespace

namespace detail {

bool
prologue(const char *who, int64_t m, int64_t n, int64_t k,
         float alpha, float beta, float *c, int64_t ldc)
{
    if (m < 0 || n < 0 || k < 0)
        fatal("%s: negative dimension m=%ld n=%ld k=%ld", who, m, n,
              k);
    if (m == 0 || n == 0)
        return false;
    scaleByBeta(m, n, beta, c, ldc);
    return k != 0 && alpha != 0.0f;
}

GemmTiles::GemmTiles(int64_t m, int64_t npanels)
    : m_(m), npanels_(npanels)
{
    mblocks_ = (m + MC - 1) / MC;
    // Under two row blocks per executor, not dividing evenly over
    // them (one at batch 1, three on the transposed conv3-5): split N
    // into a multiple of the pool size too, keeping kMinPanels per
    // tile. A call from a pool task runs inline, so it splits nothing.
    int64_t threads = common::ThreadPool::inParallelRegion()
        ? 1 : common::computePool().size();
    if (mblocks_ % threads != 0 && mblocks_ < 2 * threads) {
        int64_t want = threads / std::gcd(mblocks_, threads);
        ranges_ = std::max<int64_t>(
            1, std::min(want, npanels / kMinPanels));
    }
}

GemmTiles::Tile
GemmTiles::tile(int64_t t) const
{
    Tile tile;
    int64_t blk = t / ranges_;
    int64_t r = t % ranges_;
    tile.i0 = blk * MC;
    tile.mb = std::min(MC, m_ - tile.i0);
    tile.pj0 = r * npanels_ / ranges_;
    tile.pj1 = (r + 1) * npanels_ / ranges_;
    return tile;
}

} // namespace detail

void
sgemm(Trans trans_a, Trans trans_b, int64_t m, int64_t n, int64_t k,
      float alpha, const float *a, int64_t lda, const float *b,
      int64_t ldb, float beta, float *c, int64_t ldc)
{
    if (!detail::prologue("sgemm", m, n, k, alpha, beta, c, ldc))
        return;
    if (n == 1) {
        // B's single column: stored k x 1 (stride ldb)
        // untransposed, 1 x k (stride 1) transposed.
        gemvKernel(trans_a, m, k, alpha, a, lda, b,
                   trans_b == Trans::No ? ldb : 1, c, ldc);
        return;
    }
    gemmRaw(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, c, ldc,
            false);
}

void
gemm_bf16(Trans trans_a, Trans trans_b, int64_t m, int64_t n,
          int64_t k, float alpha, const float *a, int64_t lda,
          const float *b, int64_t ldb, float beta, float *c,
          int64_t ldc)
{
    if (detail::prologue("gemm_bf16", m, n, k, alpha, beta, c, ldc))
        gemmRaw(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, c,
                ldc, true);
}

void
PackedWeights::pack(Precision precision, Trans trans, int64_t k,
                    int64_t n, const float *b, int64_t ldb,
                    const float *colScales)
{
    if (k < 0 || n < 0)
        fatal("PackedWeights: negative dimension k=%ld n=%ld", k, n);
    precision_ = precision;
    k_ = k;
    n_ = n;
    // Only the current precision's copy is kept resident.
    panels_.reset();
    panels8_.reset();
    panels8Bytes_ = 0;
    colSums_ = {};
    colScales_ = {};
    if (precision == Precision::Int8) {
        if (!colScales)
            fatal("PackedWeights: int8 packing needs column scales");
        colScales_.assign(colScales, colScales + n);
        packInt8(trans, b, ldb);
        return;
    }
    int64_t npanels = (n + NR - 1) / NR;
    panels_ = std::make_unique_for_overwrite<float[]>(
        static_cast<size_t>(npanels * k * NR));
    bool bf16 = precision == Precision::Bf16;
    common::computePool().parallelFor(
        0, npanels, 1, [&](int64_t p0, int64_t p1) {
            (bf16 ? packB<true> : packB<false>)(
                b, ldb, trans, 0, k, n, p0, p1, panels_.get(), k * NR);
        });
}

void
gemm_packed(Trans trans_a, int64_t m, float alpha, const float *a,
            int64_t lda, const PackedWeights &b, float beta, float *c,
            int64_t ldc, const QuantParams &aq)
{
    if (b.precision() == Precision::Int8) {
        detail::gemmS8Packed(trans_a, m, alpha, a, lda, aq, b, beta, c,
                             ldc);
        return;
    }
    int64_t n = b.n();
    int64_t k = b.k();
    if (!detail::prologue("gemm_packed", m, n, k, alpha, beta, c, ldc))
        return;
    bool bf16 = b.precision() == Precision::Bf16;
    if (n == 1 && !bf16) {
        // sgemm's n == 1 route, reading the panel's only column.
        gemvKernel(trans_a, m, k, alpha, a, lda, b.panels(), NR, c,
                   ldc);
        return;
    }
    driveF32(trans_a, m, n, 0, k, alpha, a, lda, bf16, b.panels(),
             k * NR, c, ldc);
}

void
sgemm(int64_t m, int64_t n, int64_t k, const float *a, const float *b,
      float *c)
{
    sgemm(Trans::No, Trans::No, m, n, k, 1.0f, a, k, b, n, 0.0f, c, n);
}

void
sgemv(int64_t m, int64_t n, const float *a, const float *x, float *y)
{
    // y = A * x is sgemm with a 1-column B (ldb 1) writing a
    // 1-column C (ldc 1); dispatches to the n == 1 fast path.
    sgemm(Trans::No, Trans::No, m, 1, n, 1.0f, a, n, x, 1, 0.0f, y,
          1);
}

} // namespace nn
} // namespace djinn
