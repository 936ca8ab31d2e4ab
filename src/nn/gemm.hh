/**
 * @file
 * Single-precision general matrix multiply, the compute core of DNN
 * inference (the role ATLAS plays in the paper's CPU baseline).
 *
 * C = alpha * op(A) * op(B) + beta * C, row-major storage.
 *
 * Two implementations live here:
 *
 *  - sgemm: the production kernel — packed A/B panels, cache
 *    blocking (KC x MC), register-tiled microkernels written so
 *    the compiler vectorizes them, and (row block x N-panel range)
 *    tiles across the shared common::computePool(). Its reduction
 *    order is fixed (ascending k within fixed-size blocks), so
 *    results are bit-identical across runs and across thread
 *    counts (DESIGN.md §8).
 *
 *  - sgemm_naive: the original scalar reference kernel, kept for
 *    differential testing and as the benchmark baseline. Never
 *    threaded.
 *
 * Weights that serve many calls are packed once into a
 * PackedWeights and run through gemm_packed; the raw-operand entry
 * points pack their B operand per call and run the same driver.
 */

#ifndef DJINN_NN_GEMM_HH
#define DJINN_NN_GEMM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/quant.hh"

namespace djinn {
namespace nn {

/** Whether an operand is used as stored or transposed. */
enum class Trans {
    No,
    Yes,
};

/**
 * Row-major SGEMM: C (m x n) = alpha * op(A) * op(B) + beta * C.
 *
 * op(A) is m x k and op(B) is k x n after applying the transpose
 * flags. Leading dimensions are the row strides of the matrices *as
 * stored* (so A is lda-strided regardless of transA).
 *
 * Runs on the shared compute pool when the problem is large enough
 * (see common::setComputeThreads / DJINN_COMPUTE_THREADS); output
 * bits do not depend on the pool size. n == 1 takes a dedicated
 * matrix-vector fast path.
 */
void sgemm(Trans trans_a, Trans trans_b, int64_t m, int64_t n,
           int64_t k, float alpha, const float *a, int64_t lda,
           const float *b, int64_t ldb, float beta, float *c,
           int64_t ldc);

/** Convenience SGEMM with no transposes and unit strides. */
void sgemm(int64_t m, int64_t n, int64_t k, const float *a,
           const float *b, float *c);

/**
 * Reference SGEMM: the original single-threaded scalar kernel
 * (cache-blocked saxpy loops). The differential test battery's
 * oracle; not a hot path.
 */
void sgemm_naive(Trans trans_a, Trans trans_b, int64_t m, int64_t n,
                 int64_t k, float alpha, const float *a, int64_t lda,
                 const float *b, int64_t ldb, float beta, float *c,
                 int64_t ldc);

/**
 * Matrix-vector multiply y = A * x with A stored row-major (m x n).
 * Routed through sgemm's n == 1 fast path, so it inherits the
 * kernel's threading and determinism guarantees.
 */
void sgemv(int64_t m, int64_t n, const float *a, const float *x,
           float *y);

// ---------------------------------------------------------------
// Low-precision kernels (DESIGN.md §14). Same blocking, packing,
// and tile-ownership structure as sgemm; both are bit-identical
// across runs and thread counts per precision.
// ---------------------------------------------------------------

/**
 * bf16 GEMM: C = alpha * op(A) * op(B) + beta * C where A and B are
 * rounded to bfloat16 (round-to-nearest-even) as they are packed
 * into panels. It is sgemm's driver with a rounding pack policy,
 * so the result is deterministic on every host; the error
 * against sgemm is bounded by the bf16 unit roundoff (2^-8 relative
 * per operand, so ~k * 2^-8 per dot product).
 */
void gemm_bf16(Trans trans_a, Trans trans_b, int64_t m, int64_t n,
               int64_t k, float alpha, const float *a, int64_t lda,
               const float *b, int64_t ldb, float beta, float *c,
               int64_t ldc);

/**
 * int8 GEMM: C = alpha * deq(q(A) * Bq) + beta * C.
 *
 * op(A) (m x k, f32) is quantized with the per-tensor affine
 * mapping @p aq as it is packed (a signed-8 mapping, the conv
 * layer's, biased +128 onto the kernel's u8 side); @p b holds
 * pre-quantized signed 8-bit weight codes in the same storage
 * layout sgemm expects of B (ldb-strided, trans_b applies), with
 * symmetric per-output-channel scales @p b_scales — one per column
 * j of op(B). Accumulation is exact int32 (AMX TDPBUSD tiles for
 * a batch of rows when the host grants them, else AVX-512 VNNI
 * vpdpbusd when available, else a scalar loop, all bit-identical);
 * the zero-point correction and scale/dequant happen once per
 * output element on store. Requires k <= 1 << 16 so the int32
 * accumulators cannot overflow.
 */
void gemm_s8(Trans trans_a, Trans trans_b, int64_t m, int64_t n,
             int64_t k, float alpha, const float *a, int64_t lda,
             const QuantParams &aq, const int8_t *b, int64_t ldb,
             const float *b_scales, float beta, float *c,
             int64_t ldc);

/**
 * A weight operand op(B) (k x n) packed once for every GEMM that
 * reuses it: the fully connected layer builds one per precision,
 * the convolution layer one per group (DESIGN.md §8, §14).
 * Panel-major: NR-wide column panel pj holds columns
 * [pj*NR, pj*NR+NR) for all k in ascending order, zero-padded at
 * the right edge, so a thread owning a range of panels walks every
 * k slice without a barrier.
 *
 *  - F32: f32 panels, [panel][k][NR].
 *  - Bf16: the same panels, each value rounded to bf16.
 *  - Int8: s8 codes, [panel][k/4][NR][4] with k zero-padded to a
 *    multiple of 64 (whole AMX tile depths), quantized per column j
 *    with the symmetric scale colScales[j], plus each column's code
 *    sum (the zero-point correction term).
 *
 * Immutable after pack(), so concurrent GEMMs may share one.
 */
class PackedWeights
{
  public:
    /**
     * Pack op(B) (stored ldb-strided, @p trans applies) at
     * @p precision, replacing any earlier contents. @p colScales
     * (n entries) is required for Int8 and ignored otherwise.
     * Runs on the compute pool.
     */
    void pack(Precision precision, Trans trans, int64_t k, int64_t n,
              const float *b, int64_t ldb,
              const float *colScales = nullptr);

    Precision precision() const { return precision_; }
    int64_t k() const { return k_; }
    int64_t n() const { return n_; }

    /** F32/Bf16 panels; empty at Int8. */
    const float *panels() const { return panels_.get(); }

    /** Int8 panels; empty at F32/Bf16. */
    const int8_t *panels8() const { return panels8_.get(); }
    /** Bytes allocated behind panels8(). */
    size_t panels8Bytes() const { return panels8Bytes_; }

    /** Int8 per-column code sums and scales (n entries each). */
    const int32_t *colSums() const { return colSums_.data(); }
    const float *colScales() const { return colScales_.data(); }

  private:
    void packInt8(Trans trans, const float *b, int64_t ldb);

    Precision precision_ = Precision::F32;
    int64_t k_ = 0;
    int64_t n_ = 0;
    // Uninitialized on allocation: the pack writes every byte, so
    // the pages are first touched in parallel by the pack itself.
    std::unique_ptr<float[]> panels_;
    std::unique_ptr<int8_t[]> panels8_;
    size_t panels8Bytes_ = 0;
    std::vector<int32_t> colSums_;
    std::vector<float> colScales_;
};

/**
 * C (m x n) = alpha * op(A) * B + beta * C with B pre-packed; n and
 * k come from @p b. F32 and Bf16 weights run sgemm's driver (Bf16
 * rounds A as it packs); Int8 weights run gemm_s8's, quantizing A
 * with @p aq. Output bits equal the raw-operand entry (sgemm,
 * gemm_bf16, gemm_s8) on the same operands.
 */
void gemm_packed(Trans trans_a, int64_t m, float alpha,
                 const float *a, int64_t lda, const PackedWeights &b,
                 float beta, float *c, int64_t ldc,
                 const QuantParams &aq = QuantParams{});

} // namespace nn
} // namespace djinn

#endif // DJINN_NN_GEMM_HH
