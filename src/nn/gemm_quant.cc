/**
 * @file
 * The int8 GEMM kernels (DESIGN.md §14): u8 x s8 integer GEMM with
 * int32 accumulation, on sgemm's tile structure (KC8-sliced k,
 * NR-wide B panels, tiles of one MC row block x one N-panel range
 * across the compute pool, an R x G register-tiled microkernel)
 * with quantization fused into the packing step, or, from
 * kAmxMinRows rows up on a host that grants AMX, the same tiles on
 * AMX TDPBUSD tile products. bf16 runs sgemm's own driver with a
 * rounding pack policy (gemm.cc).
 *
 * Determinism: the kernel accumulates in exact integer arithmetic,
 * so its blocking, tiling, thread count, and even the host ISA
 * cannot change the output bits — the only floating point is the
 * fixed per-element dequant expression on store.
 */

#include "nn/gemm.hh"
#include "nn/gemm_internal.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(__AVX512VNNI__) && defined(__AVX512F__)
#include <immintrin.h>
#define DJINN_GEMM_VNNI 1
#endif

#if defined(__AMX_INT8__) && defined(__AMX_TILE__)
#include <immintrin.h>
#include <sys/syscall.h>
#include <unistd.h>
#define DJINN_GEMM_AMX 1
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

/**
 * One AMX tile: 16 rows of 64 bytes, so 64 k codes deep. Panels and
 * code rows are padded to whole tile depths and code rows to whole
 * tiles with zero codes; a zero code adds 0 to every int32 sum.
 */
constexpr int64_t kTileK = 64;
constexpr int64_t kTileRows = 16;

static_assert(KC8 % kTileK == 0, "a k slice is whole tile depths");
static_assert(MC % (2 * kTileRows) == 0, "a row block is row pairs");

/** @p k padded to whole tile depths: the k extent of every buffer. */
int64_t
padK(int64_t k)
{
    return (k + kTileK - 1) / kTileK * kTileK;
}

/** Bytes of the int8 panels of a k x n operand. */
size_t
panelBytesS8(int64_t k, int64_t n)
{
    return static_cast<size_t>((n + NR - 1) / NR * padK(k) * NR);
}

/**
 * The fewest rows the AMX kernel takes. A tile product always
 * spends 16 rows; up to 4 the VNNI microkernel, which shares each
 * B load across 2-4 panels there, is as fast (DESIGN.md §14 has the
 * measured crossover).
 */
constexpr int64_t kAmxMinRows = 5;

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

#ifdef DJINN_GEMM_AMX

/**
 * The AMX tile layout: palette 1, C tiles 0-3 (2 x 2), A tiles 4-5,
 * B tiles 6-7, each 16 rows x 64 bytes.
 */
struct alignas(64) TileConfig {
    uint8_t palette = 1;
    uint8_t startRow = 0;
    uint8_t reserved[14] = {};
    uint16_t colsb[16] = {64, 64, 64, 64, 64, 64, 64, 64};
    uint8_t rows[16] = {16, 16, 16, 16, 16, 16, 16, 16};
};

/**
 * acc (32 x 32 int32, row-major) = RA 16-row A tiles (@p lda bytes
 * per row, row-major codes) x RB B panels (@p bstride bytes apart)
 * over @p ksteps tile depths. The panel layout [k/4][NR][4] is the
 * B tile layout as it stands: 16 rows of 4-code groups, 64 bytes
 * each. Rows and panels past RA, RB are left unwritten.
 */
template <int RA, int RB>
void
amxBlock(int64_t ksteps, const uint8_t *a, int64_t lda,
         const int8_t *b, int64_t bstride, int32_t *acc)
{
    _tile_zero(0);
    if constexpr (RB == 2)
        _tile_zero(1);
    if constexpr (RA == 2)
        _tile_zero(2);
    if constexpr (RA == 2 && RB == 2)
        _tile_zero(3);
    for (int64_t s = 0; s < ksteps; ++s) {
        const uint8_t *as = a + s * kTileK;
        const int8_t *bs = b + s * kTileK * NR;
        _tile_loadd(4, as, lda);
        _tile_loadd(6, bs, NR * 4);
        _tile_dpbusd(0, 4, 6);
        if constexpr (RB == 2) {
            _tile_loadd(7, bs + bstride, NR * 4);
            _tile_dpbusd(1, 4, 7);
        }
        if constexpr (RA == 2) {
            _tile_loadd(5, as + kTileRows * lda, lda);
            _tile_dpbusd(2, 5, 6);
        }
        if constexpr (RA == 2 && RB == 2)
            _tile_dpbusd(3, 5, 7);
    }
    constexpr int64_t ld = 2 * NR * sizeof(int32_t);
    _tile_stored(0, acc, ld);
    if constexpr (RB == 2)
        _tile_stored(1, acc + NR, ld);
    if constexpr (RA == 2)
        _tile_stored(2, acc + kTileRows * 2 * NR, ld);
    if constexpr (RA == 2 && RB == 2)
        _tile_stored(3, acc + kTileRows * 2 * NR + NR, ld);
}

using AmxBlockFn = void (*)(int64_t, const uint8_t *, int64_t,
                            const int8_t *, int64_t, int32_t *);
/** amxBlock by [A tiles - 1][B tiles - 1]. */
constexpr AmxBlockFn kAmxBlock[2][2] = {
    {amxBlock<1, 1>, amxBlock<1, 2>},
    {amxBlock<2, 1>, amxBlock<2, 2>},
};

/**
 * Whether this process may use the tile data registers: Linux
 * grants XTILEDATA per process on request. Asked once; a refusal
 * leaves every product on the microkernel.
 */
bool
amxPermitted()
{
    constexpr long kReqXcompPerm = 0x1023; // ARCH_REQ_XCOMP_PERM
    constexpr long kXtiledata = 18;        // XFEATURE_XTILEDATA
    static const bool permitted =
        syscall(SYS_arch_prctl, kReqXcompPerm, kXtiledata) == 0;
    return permitted;
}

#endif // DJINN_GEMM_AMX

/**
 * Pack the signed right-hand operand (k x n, codes from @p code(p,
 * j)) panels [pj0, pj1) over the whole of k: panel pj at
 * bpack + pj * padK(k) * NR, layout [g][j][0..3], zero-padded to
 * padK(k); each column's code sum lands in @p colsum. k is walked
 * in blocks so the rows a block touches stay cached while the
 * panel's columns revisit them.
 */
template <typename Code>
void
packBS8(int64_t k, int64_t n, int64_t pj0, int64_t pj1,
        const Code &code, int8_t *bpack, int32_t *colsum)
{
    constexpr int64_t kRows = 64;
    int64_t bstride = padK(k) * NR;
    for (int64_t pj = pj0; pj < pj1; ++pj) {
        int8_t *panel = bpack + pj * bstride;
        int64_t j0 = pj * NR;
        int64_t nr = std::min(NR, n - j0);
        std::memset(panel, 0, static_cast<size_t>(bstride));
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
    const uint8_t *codes; ///< op(A) as u8 codes, row-major, padded
    int64_t ld;           ///< bytes per row: padK(k)
    size_t bytes;         ///< bytes allocated behind codes
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
 * out[p] = aq.quantize(x[p]) + bias over a contiguous row: the same
 * expression with its int-to-float conversions hoisted, so the
 * compiler vectorizes the loop (a conversion that may raise inexact
 * is not if-converted inside it).
 */
void
quantizeRow(const QuantParams &aq, int32_t bias, const float *x,
            int64_t k, uint8_t *out)
{
    const float scale = aq.scale;
    const float zp = static_cast<float>(aq.zeroPoint);
    const float lo = static_cast<float>(aq.qmin);
    const float hi = static_cast<float>(aq.qmax);
    const int32_t qmin = aq.qmin;
    const int32_t qmax = aq.qmax;
    for (int64_t p = 0; p < k; ++p) {
        float q = std::nearbyintf(x[p] / scale) + zp;
        int32_t v = q < lo   ? qmin
                    : q > hi ? qmax
                             : static_cast<int32_t>(q);
        out[p] = static_cast<uint8_t>(v + bias);
    }
}

/**
 * Code f32 op(A) (m x k) under @p aq into row-major u8 once per
 * call, across the pool, so tiles that share a row block do not
 * each redo the quantization. Rows are padK(k) bytes and padded to
 * whole tiles, all padding zero codes.
 */
LeftCodes
codeActivations(Trans trans_a, int64_t m, int64_t k, const float *a,
                int64_t lda, const QuantParams &aq)
{
    int32_t bias = activationBias(aq);
    int64_t ld = padK(k);
    int64_t rows = (m + kTileRows - 1) / kTileRows * kTileRows;
    // Thread-local so repeated calls from the same thread reuse it.
    static thread_local std::vector<uint8_t> codes_tls;
    std::vector<uint8_t> &codes = codes_tls;
    codes.resize(static_cast<size_t>(rows * ld));
    int64_t grain = std::max<int64_t>(1, 16384 / k);
    common::computePool().parallelFor(
        0, m, grain, [&](int64_t r0, int64_t r1) {
            for (int64_t i = r0; i < r1; ++i) {
                uint8_t *row = codes.data() + i * ld;
                if (trans_a == Trans::No) {
                    quantizeRow(aq, bias, a + i * lda, k, row);
                } else {
                    for (int64_t p = 0; p < k; ++p)
                        row[p] = static_cast<uint8_t>(
                            aq.quantize(a[p * lda + i]) + bias);
                }
                std::memset(row + k, 0, static_cast<size_t>(ld - k));
            }
        });
    std::memset(codes.data() + m * ld, 0,
                static_cast<size_t>((rows - m) * ld));
    return LeftCodes{codes.data(), ld, codes.size(), aq.scale,
                     aq.zeroPoint + bias};
}

/**
 * Pack rows [i0, i0 + mb) x k [k0, k0 + kb) of the left codes into
 * MR-row panels, layout [g][i][0..3], zero-padded.
 */
void
packAU8(const LeftCodes &l, int64_t i0, int64_t mb, int64_t k0,
        int64_t kb, uint8_t *apack, int64_t kg)
{
    int64_t mpanels = (mb + MR - 1) / MR;
    for (int64_t pi = 0; pi < mpanels; ++pi) {
        uint8_t *panel = apack + pi * kg * MR * 4;
        int64_t ib = i0 + pi * MR;
        int64_t mr = std::min(MR, i0 + mb - ib);
        std::memset(panel, 0, static_cast<size_t>(kg) * MR * 4);
        for (int64_t ii = 0; ii < mr; ++ii) {
            const uint8_t *row = l.codes + (ib + ii) * l.ld + k0;
            for (int64_t p = 0; p < kb; ++p)
                panel[(p / 4) * MR * 4 + ii * 4 + (p % 4)] = row[p];
        }
    }
}

/** The packed right operand of the shared u8 x s8 driver. */
struct RightPanels {
    const int8_t *panels; ///< [panel][padK(k)/4][NR][4]
    size_t bytes;         ///< bytes allocated behind panels
    const int32_t *colsum;
    const float *scales;  ///< per-column scales
};

/**
 * Dequant epilogue: C rows [0, rows) columns [j0, j1) += alpha *
 * deq(acc), one fixed float expression per element, so output bits
 * cannot depend on the kernel or its tiling. @p acc holds column j0
 * at index 0, @p ldacc ints per row; @p c points at the first row.
 */
void
dequantRows(const int32_t *acc, int64_t ldacc, int64_t rows,
            int64_t j0, int64_t j1, float alpha, const LeftCodes &l,
            const RightPanels &r, float *c, int64_t ldc)
{
    for (int64_t ii = 0; ii < rows; ++ii) {
        const int32_t *arow = acc + ii * ldacc;
        float *crow = c + ii * ldc;
        for (int64_t j = j0; j < j1; ++j) {
            int64_t v = static_cast<int64_t>(arow[j - j0]) -
                        static_cast<int64_t>(l.offset) * r.colsum[j];
            crow[j] += alpha * l.scale * r.scales[j] *
                       static_cast<float>(v);
        }
    }
}

/**
 * One tile on the microkernel: its rows x panels accumulate over
 * all of k in KC8 slices of packed A, then one epilogue.
 */
void
microTile(const detail::GemmTiles::Tile &tile, int64_t n, int64_t k,
          float alpha, const LeftCodes &l, const RightPanels &r,
          float *c, int64_t ldc)
{
    static thread_local std::vector<uint8_t> apack_tls;
    static thread_local std::vector<int32_t> acc_tls;
    std::vector<uint8_t> &apack = apack_tls;
    std::vector<int32_t> &acc = acc_tls;
    apack.resize(static_cast<size_t>(MC) * KC8);
    int64_t bstride = padK(k) * NR;
    int64_t w = (tile.pj1 - tile.pj0) * NR;
    acc.assign(static_cast<size_t>(tile.mb * w), 0);
    for (int64_t k0 = 0; k0 < k; k0 += KC8) {
        int64_t kb = std::min(KC8, k - k0);
        int64_t kg = (kb + 3) / 4;
        packAU8(l, tile.i0, tile.mb, k0, kb, apack.data(), kg);
        // Row panels innermost, so a chunk of B panels is read from
        // memory once per slice.
        for (int64_t pc = tile.pj0; pc < tile.pj1; pc += kPanelChunk) {
            int64_t pe = std::min(pc + kPanelChunk, tile.pj1);
            for (int64_t ii = 0; ii < tile.mb; ii += MR) {
                kPanelRowI8[std::min(MR, tile.mb - ii)](
                    kg, apack.data() + ii * kg * 4,
                    r.panels + (k0 / 4) * NR * 4, bstride, pc, pe,
                    acc.data() + ii * w + (pc - tile.pj0) * NR, w);
            }
        }
    }
    dequantRows(acc.data(), w, tile.mb, tile.pj0 * NR,
                std::min(n, tile.pj1 * NR), alpha, l, r,
                c + tile.i0 * ldc, ldc);
}

#ifdef DJINN_GEMM_AMX

/**
 * One tile on AMX: 32-row x 2-panel blocks, each accumulated over
 * all of k straight from the row-major codes and the panels, then
 * one epilogue. Panel pairs outermost, so each is read from memory
 * once per tile. Needs the tile config loaded.
 *
 * ASan does not see tile loads, so the tile first checks the
 * farthest bytes its walk loads against the buffers' allocations:
 * code rows up to i0 + mb rounded up to whole tiles, each padK(k)
 * bytes deep, and panels up to pj1.
 */
void
amxTile(const detail::GemmTiles::Tile &tile, int64_t n, int64_t k,
        float alpha, const LeftCodes &l, const RightPanels &r,
        float *c, int64_t ldc)
{
    int64_t bstride = padK(k) * NR;
    int64_t ksteps = padK(k) / kTileK;
    int64_t rowEnd = tile.i0 + (tile.mb + kTileRows - 1) / kTileRows *
                                   kTileRows;
    if (l.ld < padK(k) || static_cast<size_t>(rowEnd * l.ld) > l.bytes)
        panic("gemm_s8: AMX A tiles overrun the codes (rows to %ld x "
              "%ld bytes, buffer %zu)", rowEnd, l.ld, l.bytes);
    if (static_cast<size_t>(tile.pj1 * bstride) > r.bytes)
        panic("gemm_s8: AMX B tiles overrun the panels (panels to %ld "
              "x %ld bytes, buffer %zu)", tile.pj1, bstride, r.bytes);
    alignas(64) int32_t acc[2 * kTileRows * 2 * NR];
    for (int64_t pj = tile.pj0; pj < tile.pj1; pj += 2) {
        int64_t rb = std::min<int64_t>(2, tile.pj1 - pj);
        for (int64_t ii = 0; ii < tile.mb; ii += 2 * kTileRows) {
            int64_t rows = std::min(2 * kTileRows, tile.mb - ii);
            int64_t ra = (rows + kTileRows - 1) / kTileRows;
            kAmxBlock[ra - 1][rb - 1](
                ksteps, l.codes + (tile.i0 + ii) * l.ld, l.ld,
                r.panels + pj * bstride, bstride, acc);
            dequantRows(acc, 2 * NR, rows, pj * NR,
                        std::min(n, (pj + rb) * NR), alpha, l, r,
                        c + (tile.i0 + ii) * ldc, ldc);
        }
    }
}

#endif // DJINN_GEMM_AMX

/** The kernel a ScopedS8Kernel forces, or -1. */
std::atomic<int> forcedS8Kernel{-1};

/** The microkernel's build: VNNI or exact scalar code. */
constexpr detail::S8Kernel kMicroKernel =
#ifdef DJINN_GEMM_VNNI
    detail::S8Kernel::Vnni;
#else
    detail::S8Kernel::Scalar;
#endif

bool
amxAvailable()
{
#ifdef DJINN_GEMM_AMX
    return amxPermitted();
#else
    return false;
#endif
}

/**
 * The shared u8 x s8 driver after the prologue: C += alpha * deq(
 * left x right). Each tile accumulates its rows x panels over all
 * of k on the kernel s8KernelFor(m) names, then dequantizes them
 * with one fixed float expression per element.
 */
void
driveS8(int64_t m, int64_t n, int64_t k, float alpha,
        const LeftCodes &l, const RightPanels &r, float *c,
        int64_t ldc)
{
    detail::GemmTiles tiles(m, (n + NR - 1) / NR);
#ifdef DJINN_GEMM_AMX
    bool amx = detail::s8KernelFor(m) == detail::S8Kernel::Amx;
#endif
    common::computePool().parallelFor(
        0, tiles.count(), 1, [&](int64_t t0, int64_t t1) {
#ifdef DJINN_GEMM_AMX
            if (amx) {
                static constexpr TileConfig config{};
                _tile_loadconfig(&config);
                for (int64_t t = t0; t < t1; ++t)
                    amxTile(tiles.tile(t), n, k, alpha, l, r, c, ldc);
                _tile_release();
                return;
            }
#endif
            for (int64_t t = t0; t < t1; ++t)
                microTile(tiles.tile(t), n, k, alpha, l, r, c, ldc);
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
    panels8Bytes_ = panelBytesS8(k_, n_);
    panels8_ = std::make_unique_for_overwrite<int8_t[]>(panels8Bytes_);
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

const char *
s8KernelName(S8Kernel kernel)
{
    switch (kernel) {
    case S8Kernel::Scalar:
        return "scalar";
    case S8Kernel::Vnni:
        return "vnni";
    case S8Kernel::Amx:
        return "amx";
    }
    return "?";
}

std::vector<S8Kernel>
s8Kernels()
{
    std::vector<S8Kernel> kernels{kMicroKernel};
    if (amxAvailable())
        kernels.push_back(S8Kernel::Amx);
    return kernels;
}

S8Kernel
s8KernelFor(int64_t m)
{
    int forced = forcedS8Kernel.load(std::memory_order_relaxed);
    if (forced >= 0)
        return static_cast<S8Kernel>(forced);
    return m >= kAmxMinRows && amxAvailable() ? S8Kernel::Amx
                                              : kMicroKernel;
}

ScopedS8Kernel::ScopedS8Kernel(S8Kernel kernel)
{
    std::vector<S8Kernel> kernels = s8Kernels();
    if (std::find(kernels.begin(), kernels.end(), kernel) ==
        kernels.end())
        fatal("ScopedS8Kernel: the %s kernel cannot run here",
              s8KernelName(kernel));
    forcedS8Kernel.store(static_cast<int>(kernel),
                         std::memory_order_relaxed);
}

ScopedS8Kernel::~ScopedS8Kernel()
{
    forcedS8Kernel.store(-1, std::memory_order_relaxed);
}

void
gemmS8Packed(Trans trans_a, int64_t m, float alpha, const float *a,
             int64_t lda, const QuantParams &aq,
             const PackedWeights &b, float beta, float *c, int64_t ldc)
{
    if (!prologueS8(m, b.n(), b.k(), alpha, beta, c, ldc))
        return;
    driveS8(m, b.n(), b.k(), alpha,
            codeActivations(trans_a, m, b.k(), a, lda, aq),
            RightPanels{b.panels8(), b.panels8Bytes(), b.colSums(),
                        b.colScales()},
            c, ldc);
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
    bpack.resize(panelBytesS8(k, n));
    colsum.resize(static_cast<size_t>(n));
    packBS8All(
        k, n,
        [&](int64_t p, int64_t j) -> int32_t {
            return fetch(b, ldb, trans_b, p, j);
        },
        bpack.data(), colsum.data());
    driveS8(m, n, k, alpha,
            codeActivations(trans_a, m, k, a, lda, aq),
            RightPanels{bpack.data(), bpack.size(), colsum.data(),
                        b_scales},
            c, ldc);
}

} // namespace nn
} // namespace djinn
