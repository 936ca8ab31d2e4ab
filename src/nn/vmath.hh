/**
 * @file
 * Vector math with the scalar expression's exact bits (DESIGN.md §8
 * "Guarded vector math"). Each function sets y[i] for i < n, may run
 * in place (y == x), and returns the lanes that took the scalar call.
 */

#ifndef DJINN_NN_VMATH_HH
#define DJINN_NN_VMATH_HH

#include <cstdint>

namespace djinn {
namespace nn {
namespace vmath {

/** y[i] = std::exp(x[i]). */
int64_t exp(const float *x, float *y, int64_t n);

/** y[i] = std::pow(x[i], 0.75f). */
int64_t pow075(const float *x, float *y, int64_t n);

/** y[i] = 1.0f / (1.0f + std::exp(-x[i])). */
int64_t sigmoid(const float *x, float *y, int64_t n);

} // namespace vmath
} // namespace nn
} // namespace djinn

#endif // DJINN_NN_VMATH_HH
