/**
 * @file
 * Guarded vector exp, x^0.75 and sigmoid (DESIGN.md §8 "Guarded
 * vector math"), built with the GEMM's options (-O3, host ISA, no FP
 * contraction).
 */

#include "nn/vmath.hh"

#include <bit>
#include <cfloat>
#include <cmath>
#include <initializer_list>

#if defined(__AVX512F__) && defined(__AVX512VL__)
#include <immintrin.h>
#define DJINN_VMATH_AVX512 1
// GCC 12.2's AVX-512 intrinsics self-initialize an unused operand,
// which -Wmaybe-uninitialized reports (GCC bug 105593).
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace djinn {
namespace nn {
namespace vmath {

namespace {

#ifdef DJINN_VMATH_AVX512

/** 2^(j/16) for j = 0..15, rounded to double. */
alignas(64) constexpr double kExp2Sixteenths[16] = {
    0x1.0000000000000p+0, 0x1.0b5586cf9890fp+0, 0x1.172b83c7d517bp+0,
    0x1.2387a6e756238p+0, 0x1.306fe0a31b715p+0, 0x1.3dea64c123422p+0,
    0x1.4bfdad5362a27p+0, 0x1.5ab07dd485429p+0, 0x1.6a09e667f3bcdp+0,
    0x1.7a11473eb0187p+0, 0x1.8ace5422aa0dbp+0, 0x1.9c49182a3f090p+0,
    0x1.ae89f995ad3adp+0, 0x1.c199bdd85529cp+0, 0x1.d5818dcfba487p+0,
    0x1.ea4afa2a490dap+0,
};

/**
 * Lanes of @p d that are normal floats (NaN fails the ordered
 * compares) and whose low 29 mantissa bits, the ones rounding to
 * float drops, are not within 2^21 (2^-8 ulp) of the midpoint 2^28.
 */
__mmask8
roundsSafely(__m512d d)
{
    __mmask8 normal =
        _mm512_cmp_pd_mask(d, _mm512_set1_pd(FLT_MIN), _CMP_GE_OQ) &
        _mm512_cmp_pd_mask(d, _mm512_set1_pd(FLT_MAX), _CMP_LE_OQ);
    __m512i low = _mm512_and_epi64(_mm512_castpd_si512(d),
                                   _mm512_set1_epi64((1 << 29) - 1));
    // Unsigned: a low part below the window wraps to a huge offset.
    __m512i off = _mm512_sub_epi64(
        low, _mm512_set1_epi64((1 << 28) - (1 << 21)));
    return normal &
           _mm512_cmpge_epu64_mask(off, _mm512_set1_epi64(1 << 22));
}

#endif // DJINN_VMATH_AVX512

struct Exp {
    static float scalar(float v) { return std::exp(v); }
#ifdef DJINN_VMATH_AVX512
    /**
     * exp(x) = 2^m 2^(j/16) exp(r) for x = (16m + j) ln2/16 + r: adding
     * 1.5 * 2^52 rounds x * 16/ln2 to k = 16m + j with j in the low
     * bits; exp(r), |r| <= ln2/32, by Taylor to degree 5 (< 2^-42).
     */
    static __m512d
    wide(__m512d x)
    {
        const __m512d shift = _mm512_set1_pd(0x1.8p52);
        __m512d t =
            _mm512_fmadd_pd(x, _mm512_set1_pd(0x1.71547652b82fep4), shift);
        __m512d k = _mm512_sub_pd(t, shift);
        __m512d r =
            _mm512_fnmadd_pd(k, _mm512_set1_pd(0x1.62e42fefa39efp-5), x);
        r = _mm512_fnmadd_pd(k, _mm512_set1_pd(0x1.abc9e3b39803fp-60), r);
        __m512d p = _mm512_set1_pd(1.0 / 120);
        for (double c : {1.0 / 24, 1.0 / 6, 1.0 / 2, 1.0, 1.0})
            p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(c));
        __m512d exp2j = _mm512_permutex2var_pd(
            _mm512_load_pd(kExp2Sixteenths), _mm512_castpd_si512(t),
            _mm512_load_pd(kExp2Sixteenths + 8));
        return _mm512_scalef_pd(_mm512_mul_pd(p, exp2j),
                                _mm512_mul_pd(k, _mm512_set1_pd(0.0625)));
    }
    static __m256 finish(__m256 y) { return y; }
#endif
};

struct Pow075 {
    static float scalar(float v) { return std::pow(v, 0.75f); }
#ifdef DJINN_VMATH_AVX512
    /** sqrt(x) * sqrt(sqrt(x)): within 4 double ulps of x^0.75. */
    static __m512d
    wide(__m512d x)
    {
        __m512d s = _mm512_sqrt_pd(x);
        return _mm512_mul_pd(s, _mm512_sqrt_pd(s));
    }
    static __m256 finish(__m256 y) { return y; }
#endif
};

/** The guarded exp of -x, then the same float ops as scalar(). */
struct Sigmoid {
    static float scalar(float v) { return 1.0f / (1.0f + std::exp(-v)); }
#ifdef DJINN_VMATH_AVX512
    static __m512d wide(__m512d x) { return Exp::wide(-x); }
    static __m256 finish(__m256 e) { return 1.0f / (1.0f + e); }
#endif
};

/** y[i] = Fn::scalar(x[i]), by Fn::wide 8 lanes at a time if it can. */
template <typename Fn>
int64_t
guarded(const float *x, float *y, int64_t n)
{
#ifdef DJINN_VMATH_AVX512
    int64_t fallbacks = 0;
    for (int64_t i = 0; i < n; i += 8) {
        __mmask8 live = n - i >= 8 ? 0xff : (1u << (n - i)) - 1;
        __m256 v = _mm256_maskz_loadu_ps(live, x + i);
        __m512d d = Fn::wide(_mm512_cvtps_pd(v));
        _mm256_mask_storeu_ps(y + i, live,
                              Fn::finish(_mm512_cvtpd_ps(d)));
        unsigned slow = live & ~roundsSafely(d);
        if (slow) [[unlikely]] {
            fallbacks += std::popcount(slow);
            for (; slow; slow &= slow - 1) {
                int j = std::countr_zero(slow);
                y[i + j] = Fn::scalar(v[j]); // v, since y may alias x
            }
        }
    }
    return fallbacks;
#else
    for (int64_t i = 0; i < n; ++i)
        y[i] = Fn::scalar(x[i]);
    return n;
#endif
}

} // namespace

int64_t
exp(const float *x, float *y, int64_t n)
{
    return guarded<Exp>(x, y, n);
}

int64_t
pow075(const float *x, float *y, int64_t n)
{
    return guarded<Pow075>(x, y, n);
}

int64_t
sigmoid(const float *x, float *y, int64_t n)
{
    return guarded<Sigmoid>(x, y, n);
}

} // namespace vmath
} // namespace nn
} // namespace djinn
