#include "nn/layers/lrn.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "nn/vmath.hh"

namespace djinn {
namespace nn {

LrnLayer::LrnLayer(std::string name, int64_t size, float alpha)
    : Layer(std::move(name), LayerKind::LRN), size_(size), alpha_(alpha)
{
    if (size <= 0 || size % 2 == 0)
        fatal("lrn layer '%s': window size %ld must be odd positive",
              this->name().c_str(), size);
}

Shape
LrnLayer::setupImpl(const Shape &input)
{
    return input;
}

void
LrnLayer::forwardImpl(const Tensor &in, Tensor &out) const
{
    const Shape &is = inputShape();
    int64_t plane = is.h() * is.w();
    int64_t half = size_ / 2;
    float alphaOverSize = alpha_ / static_cast<float>(size_);

    // (image, channel) planes split across the compute pool. Each step
    // runs across a plane and vectorizes; a window sums in cc order.
    int64_t grain = std::max<int64_t>(1, 16384 / (plane * size_));
    common::computePool().parallelFor(
        0, in.shape().n() * is.c(), grain, [&](int64_t p0, int64_t p1) {
            for (int64_t p = p0; p < p1; ++p) {
                int64_t c = p % is.c();
                const float *src = in.sample(p / is.c());
                float *dst = out.sample(p / is.c()) + c * plane;
                int64_t c0 = std::max<int64_t>(c - half, 0);
                int64_t c1 = std::min<int64_t>(c + half, is.c() - 1);
                std::fill(dst, dst + plane, 0.0f);
                for (int64_t cc = c0; cc <= c1; ++cc) {
                    const float *v = src + cc * plane;
                    for (int64_t i = 0; i < plane; ++i)
                        dst[i] += v[i] * v[i];
                }
                // k = 1 and beta = 0.75; pow075 has std::pow's bits.
                for (int64_t i = 0; i < plane; ++i)
                    dst[i] = 1.0f + alphaOverSize * dst[i];
                vmath::pow075(dst, dst, plane);
                for (int64_t i = 0; i < plane; ++i)
                    dst[i] = src[c * plane + i] / dst[i];
            }
        });
}

} // namespace nn
} // namespace djinn
