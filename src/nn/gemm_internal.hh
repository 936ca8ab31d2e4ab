/**
 * @file
 * Internals the f32/bf16 driver (gemm.cc) and the int8 driver
 * (gemm_quant.cc) share: the blocking geometry, the tile split, and
 * the common argument prologue. Not part of the nn interface.
 */

#ifndef DJINN_NN_GEMM_INTERNAL_HH
#define DJINN_NN_GEMM_INTERNAL_HH

#include <cstdint>
#include <vector>

#include "nn/gemm.hh"

namespace djinn {
namespace nn {
namespace detail {

constexpr int64_t MR = 8;  ///< rows of a packed A panel
constexpr int64_t NR = 16; ///< microkernel columns (one B panel)
constexpr int64_t MC = 64; ///< rows per tile

/** B panels a tile's row panels share per pass over a k slice. */
constexpr int64_t kPanelChunk = 4;

/** op(X)[r][col] of a row-major operand stored ld-strided. */
template <typename T>
inline T
fetch(const T *x, int64_t ld, Trans trans, int64_t r, int64_t col)
{
    return trans == Trans::No ? x[r * ld + col] : x[col * ld + r];
}

/**
 * Reject negative dimensions (naming @p who), then C = beta * C.
 * False when no product term is left to add.
 */
bool prologue(const char *who, int64_t m, int64_t n, int64_t k,
              float alpha, float beta, float *c, int64_t ldc);

/**
 * The drivers' work split (DESIGN.md §8): MC-row blocks, and, when
 * there are fewer than two blocks per compute-pool executor and
 * they do not divide evenly over them, (row block x N-panel range)
 * tiles. Chosen from the shape and pool size only; each C element
 * lands in exactly one tile either way.
 */
class GemmTiles
{
  public:
    struct Tile {
        int64_t i0, mb;   ///< rows [i0, i0 + mb)
        int64_t pj0, pj1; ///< N panels [pj0, pj1)
    };

    GemmTiles(int64_t m, int64_t npanels);

    int64_t count() const { return mblocks_ * ranges_; }
    Tile tile(int64_t t) const;

  private:
    /** Fewest panels an N range may hold. */
    static constexpr int64_t kMinPanels = 4;

    int64_t m_, npanels_;
    int64_t mblocks_ = 0;
    int64_t ranges_ = 1;
};

/** gemm_packed's Int8 half (gemm_quant.cc). */
void gemmS8Packed(Trans trans_a, int64_t m, float alpha,
                  const float *a, int64_t lda, const QuantParams &aq,
                  const PackedWeights &b, float beta, float *c,
                  int64_t ldc);

/**
 * The int8 product kernels (DESIGN.md §14): the register-tiled
 * microkernel, built as VNNI or as exact scalar code, and the AMX
 * tile kernel. All of them compute the same int32 sums.
 */
enum class S8Kernel { Scalar, Vnni, Amx };

/** "scalar", "vnni" or "amx". */
const char *s8KernelName(S8Kernel kernel);

/** Every int8 kernel this build and process can run. */
std::vector<S8Kernel> s8Kernels();

/** The kernel an m-row int8 product runs on. */
S8Kernel s8KernelFor(int64_t m);

/**
 * Test seam: while alive, every int8 product on any thread runs on
 * @p kernel, which must be one of s8Kernels(). Not nestable.
 */
class ScopedS8Kernel
{
  public:
    explicit ScopedS8Kernel(S8Kernel kernel);
    ~ScopedS8Kernel();

    ScopedS8Kernel(const ScopedS8Kernel &) = delete;
    ScopedS8Kernel &operator=(const ScopedS8Kernel &) = delete;
};

} // namespace detail
} // namespace nn
} // namespace djinn

#endif // DJINN_NN_GEMM_INTERNAL_HH
