#include "nn/layers/activation.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "nn/vmath.hh"

namespace djinn {
namespace nn {

ActivationLayer::ActivationLayer(std::string name, LayerKind kind)
    : Layer(std::move(name), kind)
{
    switch (kind) {
      case LayerKind::ReLU:
      case LayerKind::Tanh:
      case LayerKind::Sigmoid:
      case LayerKind::HardTanh:
        break;
      default:
        panic("ActivationLayer constructed with non-activation kind");
    }
}

Shape
ActivationLayer::setupImpl(const Shape &input)
{
    return input;
}

void
ActivationLayer::forwardImpl(const Tensor &in, Tensor &out) const
{
    const float *src = in.data();
    float *dst = out.data();

    // Element ranges split across the compute pool; tensors under
    // one grain (SENNA's) run inline.
    constexpr int64_t kGrain = 16384;
    common::computePool().parallelFor(
        0, in.elems(), kGrain, [&](int64_t i0, int64_t i1) {
            switch (kind()) {
              case LayerKind::ReLU:
                // x > 0 ? x : 0 (-0, NaN give +0) as a mask: a select
                // compiles to a branch on a conv output's coin-flip sign.
                for (int64_t i = i0; i < i1; ++i) {
                    uint32_t keep = -static_cast<uint32_t>(src[i] > 0.0f);
                    dst[i] = std::bit_cast<float>(
                        std::bit_cast<uint32_t>(src[i]) & keep);
                }
                break;
              case LayerKind::Tanh:
                for (int64_t i = i0; i < i1; ++i)
                    dst[i] = std::tanh(src[i]);
                break;
              case LayerKind::Sigmoid:
                vmath::sigmoid(src + i0, dst + i0, i1 - i0);
                break;
              case LayerKind::HardTanh:
                for (int64_t i = i0; i < i1; ++i)
                    dst[i] = std::clamp(src[i], -1.0f, 1.0f);
                break;
              default:
                panic("unreachable activation kind");
            }
        });
}

} // namespace nn
} // namespace djinn
