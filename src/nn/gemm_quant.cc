/**
 * @file
 * The int8 GEMM kernels (DESIGN.md §14): u8 x s8 integer GEMM with
 * int32 accumulation, on sgemm's tile structure (KC8-sliced k,
 * NR-wide B panels, tiles of one MC row block x one N-panel range
 * across the compute pool, an R x G register-tiled microkernel)
 * with quantization fused into the packing step. bf16 runs sgemm's
 * own driver with a rounding pack policy (gemm.cc).
 *
 * Determinism: the kernel accumulates in exact integer arithmetic,
 * so its blocking, tiling, thread count, and even the host ISA
 * cannot change the output bits — the only floating point is the
 * fixed per-element dequant expression on store.
 */

#include "nn/gemm.hh"
#include "nn/gemm_internal.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#if defined(__AVX512VNNI__) && defined(__AVX512F__)
#include <immintrin.h>
#define DJINN_GEMM_VNNI 1
#endif

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace djinn {
namespace nn {

namespace {

using detail::fetch;
using detail::kPanelChunk;
using detail::MC;
using detail::MR;
using detail::NR;

/** int8 k block: 4x deeper than f32 for the same panel bytes. */
constexpr int64_t KC8 = 1024;

static_assert(KC8 % 4 == 0, "int8 panels pack k in groups of 4");

// ---------------------------------------------------------------
// u8 (left) x s8 (right) panels, int32 accumulation into a tile-
// sized accumulator that persists across k slices, then one
// dequant epilogue per tile. Integer addition is associative, so
// the slice/tile structure cannot affect the result bits.
//
// The left panel is always the unsigned operand (VNNI's vpdpbusd
// multiplies u8 by s8): activation codes under a u8 mapping as
// they are, or under a signed-8 mapping (conv's affineS8) biased
// by +128, with the zero point biased alike. The right panel holds
// symmetric weight codes (zero point 0), so the epilogue removes
// the left offset exactly:
//
//   sum_real (qa - oa) * qb = acc - oa * colsum_b
// ---------------------------------------------------------------

/**
 * u8 x s8 register-tiled core: acc[R][G][NR] (int32) = the first R
 * rows of an A panel times G consecutive B panels (@p bstride bytes
 * apart), summed over kg groups of 4 k steps. A panel layout:
 * [g][i][0..3] (4 consecutive k codes per row, MR rows); B panel
 * layout: [g][j][0..3]. R < MR is the live-row kernel.
 */
#ifdef DJINN_GEMM_VNNI

template <int R, int G>
__attribute__((noinline)) void
microKernelI8(int64_t kg, const uint8_t *__restrict__ ap,
              const int8_t *__restrict__ bp, int64_t bstride,
              int32_t *acc)
{
    __m512i c[R][G];
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
        for (int g = 0; g < G; ++g)
            c[r][g] = _mm512_setzero_si512();
    }
    for (int64_t q = 0; q < kg; ++q) {
        __m512i bv[G];
#pragma GCC unroll 8
        for (int g = 0; g < G; ++g)
            bv[g] = _mm512_loadu_si512(bp + g * bstride + q * NR * 4);
        int32_t aw[MR];
        std::memcpy(aw, ap + q * MR * 4, sizeof(aw));
#pragma GCC unroll 8
        for (int r = 0; r < R; ++r) {
            __m512i av = _mm512_set1_epi32(aw[r]);
#pragma GCC unroll 8
            for (int g = 0; g < G; ++g)
                c[r][g] = _mm512_dpbusd_epi32(c[r][g], av, bv[g]);
        }
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
        for (int g = 0; g < G; ++g)
            _mm512_storeu_si512(acc + (r * G + g) * NR, c[r][g]);
    }
}

#else // exact scalar fallback: integer math, so bit-identical

template <int R, int G>
void
microKernelI8(int64_t kg, const uint8_t *ap, const int8_t *bp,
              int64_t bstride, int32_t *acc)
{
    for (int64_t i = 0; i < R * G * NR; ++i)
        acc[i] = 0;
    for (int64_t q = 0; q < kg; ++q) {
        const uint8_t *arow = ap + q * MR * 4;
        for (int r = 0; r < R; ++r) {
            for (int g = 0; g < G; ++g) {
                const int8_t *brow = bp + g * bstride + q * NR * 4;
                int32_t *crow = acc + (r * G + g) * NR;
                for (int64_t j = 0; j < NR; ++j) {
                    int32_t s = 0;
                    for (int64_t e = 0; e < 4; ++e) {
                        s += static_cast<int32_t>(arow[r * 4 + e]) *
                             static_cast<int32_t>(brow[j * 4 + e]);
                    }
                    crow[j] += s;
                }
            }
        }
    }
}

#endif

/**
 * The tile accumulator's rows [0, R) += A panel x B panels
 * [pj0, pj1) (whole NR-wide panels; padded columns hold zero
 * codes). @p acc points at the panel's first row, @p w ints per row,
 * column 0 = panel pj0.
 */
template <int R>
void
panelRowI8(int64_t kg, const uint8_t *ap, const int8_t *bp,
           int64_t bstride, int64_t pj0, int64_t pj1, int32_t *acc,
           int64_t w)
{
    constexpr int G = R >= 5 ? 1 : R >= 3 ? 2 : 4;
    int32_t tile[R * G * NR]; // fully written by each call
    auto add = [&](int64_t pj, int groups) {
        for (int r = 0; r < R; ++r) {
            int32_t *arow = acc + r * w + (pj - pj0) * NR;
            const int32_t *trow = tile + r * groups * NR;
            for (int64_t j = 0; j < groups * NR; ++j)
                arow[j] += trow[j];
        }
    };
    int64_t pj = pj0;
    for (; pj + G <= pj1; pj += G) {
        microKernelI8<R, G>(kg, ap, bp + pj * bstride, bstride, tile);
        add(pj, G);
    }
    for (; pj < pj1; ++pj) {
        microKernelI8<R, 1>(kg, ap, bp + pj * bstride, bstride, tile);
        add(pj, 1);
    }
}

/** panelRowI8 by live-row count (1..MR). */
using PanelRowI8Fn = void (*)(int64_t, const uint8_t *, const int8_t *,
                              int64_t, int64_t, int64_t, int32_t *,
                              int64_t);
constexpr PanelRowI8Fn kPanelRowI8[MR + 1] = {
    nullptr,        panelRowI8<1>, panelRowI8<2>,
    panelRowI8<3>,  panelRowI8<4>, panelRowI8<5>,
    panelRowI8<6>,  panelRowI8<7>, panelRowI8<8>,
};

/**
 * Pack the signed right-hand operand (k x n, codes from @p code(p,
 * j)) panels [pj0, pj1) over the whole of k: panel pj at
 * bpack + pj * kg * NR * 4, layout [g][j][0..3], zero-padded; each
 * column's code sum lands in @p colsum. k is walked in blocks so
 * the rows a block touches stay cached while the panel's columns
 * revisit them.
 */
template <typename Code>
void
packBS8(int64_t k, int64_t n, int64_t pj0, int64_t pj1,
        const Code &code, int8_t *bpack, int32_t *colsum)
{
    constexpr int64_t kRows = 64;
    int64_t kg = (k + 3) / 4;
    for (int64_t pj = pj0; pj < pj1; ++pj) {
        int8_t *panel = bpack + pj * kg * NR * 4;
        int64_t j0 = pj * NR;
        int64_t nr = std::min(NR, n - j0);
        std::memset(panel, 0, static_cast<size_t>(kg) * NR * 4);
        int32_t sums[NR] = {};
        for (int64_t p0 = 0; p0 < k; p0 += kRows) {
            int64_t p1 = std::min(k, p0 + kRows);
            for (int64_t jj = 0; jj < nr; ++jj) {
                for (int64_t p = p0; p < p1; ++p) {
                    int32_t q = code(p, j0 + jj);
                    sums[jj] += q;
                    panel[(p / 4) * NR * 4 + jj * 4 + (p % 4)] =
                        static_cast<int8_t>(q);
                }
            }
        }
        std::copy(sums, sums + nr, colsum + j0);
    }
}

/** packBS8 across the compute pool. */
template <typename Code>
void
packBS8All(int64_t k, int64_t n, const Code &code, int8_t *bpack,
           int32_t *colsum)
{
    common::computePool().parallelFor(
        0, (n + NR - 1) / NR, 1, [&](int64_t p0, int64_t p1) {
            packBS8(k, n, p0, p1, code, bpack, colsum);
        });
}

/** The left operand of the shared u8 x s8 driver. */
struct LeftCodes {
    const uint8_t *codes; ///< op(A) as u8 codes, row-major m x k
    float scale;
    int32_t offset;       ///< oa, removed in the epilogue
};

/**
 * The bias that puts @p aq's codes in u8 range: 0 for an unsigned
 * mapping, 128 for a signed one.
 */
int32_t
activationBias(const QuantParams &aq)
{
    int32_t bias = aq.qmin < 0 ? 128 : 0;
    if (aq.qmin + bias < 0 || aq.qmax + bias > 255)
        fatal("gemm_s8: activation params must be an 8-bit mapping "
              "(qmin %d, qmax %d)", aq.qmin, aq.qmax);
    return bias;
}

/**
 * Code f32 op(A) (m x k) under @p aq into row-major u8 once per
 * call, across the pool, so tiles that share a row block do not
 * each redo the quantization.
 */
LeftCodes
codeActivations(Trans trans_a, int64_t m, int64_t k, const float *a,
                int64_t lda, const QuantParams &aq)
{
    int32_t bias = activationBias(aq);
    // Thread-local so repeated calls from the same thread reuse it.
    static thread_local std::vector<uint8_t> codes_tls;
    std::vector<uint8_t> &codes = codes_tls;
    codes.resize(static_cast<size_t>(m * k));
    int64_t grain = std::max<int64_t>(1, 16384 / k);
    common::computePool().parallelFor(
        0, m, grain, [&](int64_t r0, int64_t r1) {
            for (int64_t i = r0; i < r1; ++i) {
                for (int64_t p = 0; p < k; ++p) {
                    codes[static_cast<size_t>(i * k + p)] =
                        static_cast<uint8_t>(
                            aq.quantize(fetch(a, lda, trans_a, i, p)) +
                            bias);
                }
            }
        });
    return LeftCodes{codes.data(), aq.scale, aq.zeroPoint + bias};
}

/**
 * Pack rows [i0, i0 + mb) x k [k0, k0 + kb) of the left codes into
 * MR-row panels, layout [g][i][0..3], zero-padded.
 */
void
packAU8(const uint8_t *codes, int64_t k, int64_t i0, int64_t mb,
        int64_t k0, int64_t kb, uint8_t *apack, int64_t kg)
{
    int64_t mpanels = (mb + MR - 1) / MR;
    for (int64_t pi = 0; pi < mpanels; ++pi) {
        uint8_t *panel = apack + pi * kg * MR * 4;
        int64_t ib = i0 + pi * MR;
        int64_t mr = std::min(MR, i0 + mb - ib);
        std::memset(panel, 0, static_cast<size_t>(kg) * MR * 4);
        for (int64_t ii = 0; ii < mr; ++ii) {
            const uint8_t *row = codes + (ib + ii) * k + k0;
            for (int64_t p = 0; p < kb; ++p)
                panel[(p / 4) * MR * 4 + ii * 4 + (p % 4)] = row[p];
        }
    }
}

/** The packed right operand of the shared u8 x s8 driver. */
struct RightPanels {
    const int8_t *panels; ///< [panel][k/4][NR][4]
    const int32_t *colsum;
    const float *scales;  ///< per-column scales
};

/**
 * The shared u8 x s8 driver after the prologue: C += alpha * deq(
 * left x right). Each tile accumulates its rows x panels over all
 * of k, then dequantizes them with one fixed float expression per
 * element.
 */
void
driveS8(int64_t m, int64_t n, int64_t k, float alpha,
        const LeftCodes &l, const RightPanels &r, float *c,
        int64_t ldc)
{
    int64_t npanels = (n + NR - 1) / NR;
    int64_t bstride = (k + 3) / 4 * NR * 4;
    detail::GemmTiles tiles(m, npanels);
    common::computePool().parallelFor(
        0, tiles.count(), 1, [&](int64_t t0, int64_t t1) {
            static thread_local std::vector<uint8_t> apack_tls;
            static thread_local std::vector<int32_t> acc_tls;
            std::vector<uint8_t> &apack = apack_tls;
            std::vector<int32_t> &acc = acc_tls;
            apack.resize(static_cast<size_t>(MC) * KC8);
            for (int64_t t = t0; t < t1; ++t) {
                detail::GemmTiles::Tile tile = tiles.tile(t);
                int64_t w = (tile.pj1 - tile.pj0) * NR;
                acc.assign(static_cast<size_t>(tile.mb * w), 0);
                for (int64_t k0 = 0; k0 < k; k0 += KC8) {
                    int64_t kb = std::min(KC8, k - k0);
                    int64_t kg = (kb + 3) / 4;
                    packAU8(l.codes, k, tile.i0, tile.mb, k0, kb,
                            apack.data(), kg);
                    // Row panels innermost, so a chunk of B panels
                    // is read from memory once per slice.
                    for (int64_t pc = tile.pj0; pc < tile.pj1;
                         pc += kPanelChunk) {
                        int64_t pe = std::min(pc + kPanelChunk,
                                              tile.pj1);
                        for (int64_t ii = 0; ii < tile.mb; ii += MR) {
                            kPanelRowI8[std::min(MR, tile.mb - ii)](
                                kg, apack.data() + ii * kg * 4,
                                r.panels + (k0 / 4) * NR * 4, bstride,
                                pc, pe,
                                acc.data() + ii * w +
                                    (pc - tile.pj0) * NR,
                                w);
                        }
                    }
                }
                // Dequant epilogue: one fixed float expression per
                // element, so output bits cannot depend on tiling.
                int64_t j0 = tile.pj0 * NR;
                int64_t j1 = std::min(n, tile.pj1 * NR);
                for (int64_t ii = 0; ii < tile.mb; ++ii) {
                    const int32_t *arow = acc.data() + ii * w;
                    float *crow = c + (tile.i0 + ii) * ldc;
                    for (int64_t j = j0; j < j1; ++j) {
                        int64_t v =
                            static_cast<int64_t>(arow[j - j0]) -
                            static_cast<int64_t>(l.offset) *
                                r.colsum[j];
                        crow[j] += alpha * l.scale * r.scales[j] *
                                   static_cast<float>(v);
                    }
                }
            }
        });
}

/** detail::prologue plus the int32 accumulator bound on k. */
bool
prologueS8(int64_t m, int64_t n, int64_t k, float alpha, float beta,
           float *c, int64_t ldc)
{
    if (k > (int64_t{1} << 16))
        fatal("gemm_s8: k=%ld exceeds the int32 accumulator bound "
              "(max %ld)", k, int64_t{1} << 16);
    return detail::prologue("gemm_s8", m, n, k, alpha, beta, c, ldc);
}

} // namespace

void
PackedWeights::packInt8(Trans trans, const float *b, int64_t ldb)
{
    panels8_ = std::make_unique_for_overwrite<int8_t[]>(
        static_cast<size_t>((n_ + NR - 1) / NR) * ((k_ + 3) / 4) * NR *
        4);
    colSums_.resize(static_cast<size_t>(n_));
    // Column j's codes under its symmetric scale: the same mapping
    // (and so the same codes) as QuantParams::symmetricS8.
    auto code = [&](int64_t p, int64_t j) {
        QuantParams wq;
        wq.scale = colScales_[static_cast<size_t>(j)];
        return wq.quantize(fetch(b, ldb, trans, p, j));
    };
    packBS8All(k_, n_, code, panels8_.get(), colSums_.data());
}

namespace detail {

void
gemmS8Packed(Trans trans_a, int64_t m, float alpha, const float *a,
             int64_t lda, const QuantParams &aq,
             const PackedWeights &b, float beta, float *c, int64_t ldc)
{
    if (!prologueS8(m, b.n(), b.k(), alpha, beta, c, ldc))
        return;
    driveS8(m, b.n(), b.k(), alpha,
            codeActivations(trans_a, m, b.k(), a, lda, aq),
            RightPanels{b.panels8(), b.colSums(), b.colScales()}, c,
            ldc);
}

} // namespace detail

void
gemm_s8(Trans trans_a, Trans trans_b, int64_t m, int64_t n,
        int64_t k, float alpha, const float *a, int64_t lda,
        const QuantParams &aq, const int8_t *b, int64_t ldb,
        const float *b_scales, float beta, float *c, int64_t ldc)
{
    if (!prologueS8(m, n, k, alpha, beta, c, ldc))
        return;
    // Thread-local so repeated calls from the same thread reuse it.
    static thread_local std::vector<int8_t> bpack_tls;
    static thread_local std::vector<int32_t> colsum_tls;
    std::vector<int8_t> &bpack = bpack_tls;
    std::vector<int32_t> &colsum = colsum_tls;
    bpack.resize(static_cast<size_t>((n + NR - 1) / NR) *
                 ((k + 3) / 4) * NR * 4);
    colsum.resize(static_cast<size_t>(n));
    packBS8All(
        k, n,
        [&](int64_t p, int64_t j) -> int32_t {
            return fetch(b, ldb, trans_b, p, j);
        },
        bpack.data(), colsum.data());
    driveS8(m, n, k, alpha,
            codeActivations(trans_a, m, k, a, lda, aq),
            RightPanels{bpack.data(), colsum.data(), b_scales}, c,
            ldc);
}

} // namespace nn
} // namespace djinn
