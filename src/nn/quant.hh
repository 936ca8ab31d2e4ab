/**
 * @file
 * Low-precision compute support (DESIGN.md §14): the precision
 * vocabulary shared by the GEMM kernels, the layers, and the
 * serving stack, plus the scalar quantization primitives the
 * post-training-quantization path is built from.
 *
 * Two lowered precisions exist beside f32:
 *
 *  - bf16: storage rounding. Operands are rounded to bfloat16
 *    (round-to-nearest-even) as they are packed into GEMM panels;
 *    arithmetic stays f32, so results are deterministic on every
 *    host and the error against f32 is bounded by the bf16 unit
 *    roundoff (2^-8 relative per operand).
 *
 *  - int8: affine/symmetric integer quantization. Weights are
 *    quantized symmetrically per output channel to [-127, 127];
 *    activations per tensor with an affine scale/zero-point
 *    calibrated post training. Accumulation is exact int32, so
 *    outputs are bit-identical across runs, thread counts, and
 *    hosts by construction; only the final per-element dequant is
 *    floating point.
 */

#ifndef DJINN_NN_QUANT_HH
#define DJINN_NN_QUANT_HH

#include <cmath>
#include <limits>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace djinn {
namespace nn {

/** Numeric precision a model (or one layer) executes at. */
enum class Precision {
    F32 = 0,
    Bf16 = 1,
    Int8 = 2,
};

/** Canonical lower-case name ("f32", "bf16", "int8"). */
const char *precisionName(Precision p);

/** Parse a precision name; fatal() on unknown. */
Precision precisionFromName(const std::string &name);

/** Round a float to bfloat16 storage bits (round-to-nearest-even). */
inline uint16_t
bf16FromFloat(float x)
{
    uint32_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    if ((bits & 0x7fffffffu) > 0x7f800000u)
        return static_cast<uint16_t>((bits >> 16) | 0x0040u); // quiet NaN
    bits += 0x7fffu + ((bits >> 16) & 1u);
    return static_cast<uint16_t>(bits >> 16);
}

/** Expand bfloat16 storage bits back to float (exact). */
inline float
floatFromBf16(uint16_t h)
{
    uint32_t bits = static_cast<uint32_t>(h) << 16;
    float x;
    std::memcpy(&x, &bits, sizeof(x));
    return x;
}

/** Round a float to the nearest bf16-representable value. */
inline float
bf16Round(float x)
{
    return floatFromBf16(bf16FromFloat(x));
}

/**
 * One tensor's integer quantization mapping:
 *
 *   q = clamp(round(x / scale) + zeroPoint, qmin, qmax)
 *   x' = (q - zeroPoint) * scale
 *
 * Rounding is round-half-to-even (the default FP environment), so
 * the mapping is identical on every host. Real zero always maps to
 * zeroPoint exactly and dequantizes back to exactly 0.
 */
struct QuantParams {
    float scale = 1.0f;
    int32_t zeroPoint = 0;
    int32_t qmin = -127;
    int32_t qmax = 127;

    /**
     * Symmetric signed-8 mapping for weights: zero point 0, range
     * [-127, 127] (the -128 code is unused so the range is
     * symmetric), scale sized so @p maxAbs maps to ±127. A zero
     * tensor gets scale 1 so quantization stays well defined.
     */
    static QuantParams symmetricS8(float maxAbs);

    /**
     * Affine unsigned-8 mapping for activations over the calibrated
     * range [lo, hi] (widened to include 0 so padding and real zero
     * are exactly representable).
     */
    static QuantParams affineU8(float lo, float hi);

    /** Affine signed-8 mapping over [lo, hi], range [-128, 127]. */
    static QuantParams affineS8(float lo, float hi);

    /** Quantize one value. */
    int32_t
    quantize(float x) const
    {
        float q = std::nearbyintf(x / scale) +
                  static_cast<float>(zeroPoint);
        if (q < static_cast<float>(qmin))
            return qmin;
        if (q > static_cast<float>(qmax))
            return qmax;
        return static_cast<int32_t>(q);
    }

    /**
     * Dequantize one code. Saturates to ±FLT_MAX: for a tensor
     * calibrated at the very top of the float range the scale
     * rounds up, and scale * 127 would otherwise overflow to inf
     * even though every represented value was a finite float.
     */
    float
    dequantize(int32_t q) const
    {
        double v = static_cast<double>(q - zeroPoint) *
                   static_cast<double>(scale);
        if (v > std::numeric_limits<float>::max())
            return std::numeric_limits<float>::max();
        if (v < -std::numeric_limits<float>::max())
            return -std::numeric_limits<float>::max();
        return static_cast<float>(v);
    }

    bool operator==(const QuantParams &o) const = default;
};

/**
 * A quantized layer's serialized state: the activation mapping and
 * the per-output-channel symmetric weight scales. Weight codes are
 * not stored — requantizing the f32 weights with these scales is
 * deterministic, so the scales alone reproduce the exact int8
 * model.
 */
struct LayerQuant {
    /** Per-tensor activation quantization (int8 only). */
    QuantParams act;

    /**
     * Symmetric per-output-channel weight scales (int8 only; one
     * per output channel). Empty means "derive from the weights"
     * when applied, or "layer not quantized" when read back.
     */
    std::vector<float> weightScales;
};

/** Minimum and maximum over @p n floats ({0, 0} when n == 0). */
void minMax(const float *data, int64_t n, float *lo, float *hi);

/** Largest absolute value over @p n floats (0 when n == 0). */
float maxAbs(const float *data, int64_t n);

/**
 * The symmetric s8 scale of each row of a row-major @p rows x
 * @p cols weight matrix (one per output channel).
 */
std::vector<float> channelScales(const float *w, int64_t rows,
                                 int64_t cols);

} // namespace nn
} // namespace djinn

#endif // DJINN_NN_QUANT_HH
