#include "nn/layers/pooling.hh"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace djinn {
namespace nn {

int64_t
poolOutSize(int64_t in, int64_t kernel, int64_t pad, int64_t stride)
{
    // Caffe ceil mode: ceil((in + 2*pad - kernel) / stride) + 1, with
    // the last window clipped to start inside the padded input.
    int64_t padded = in + 2 * pad - kernel;
    if (padded < 0)
        fatal("pool window %ld larger than padded input %ld", kernel,
              in + 2 * pad);
    int64_t out = (padded + stride - 1) / stride + 1;
    if (pad > 0 && (out - 1) * stride >= in + pad)
        --out;
    return out;
}

PoolingLayer::PoolingLayer(std::string name, LayerKind kind,
                           int64_t kernel, int64_t stride, int64_t pad)
    : Layer(std::move(name), kind), kernel_(kernel), stride_(stride),
      pad_(pad)
{
    if (kind != LayerKind::MaxPool && kind != LayerKind::AvgPool)
        panic("PoolingLayer constructed with non-pool kind");
    if (kernel <= 0 || stride <= 0 || pad < 0)
        fatal("pool layer '%s': invalid geometry",
              this->name().c_str());
}

Shape
PoolingLayer::setupImpl(const Shape &input)
{
    int64_t out_h = poolOutSize(input.h(), kernel_, pad_, stride_);
    int64_t out_w = poolOutSize(input.w(), kernel_, pad_, stride_);
    return Shape(1, input.c(), out_h, out_w);
}

void
PoolingLayer::forwardImpl(const Tensor &in, Tensor &out) const
{
    const Shape &is = inputShape();
    const Shape &os = outputShape();

    // Each (sample, channel) plane is independent; partition the
    // flattened plane index across the compute pool. The pool kind
    // is a template argument, so the window loop does not branch.
    auto run = [&](auto max_pool) {
        constexpr bool is_max = decltype(max_pool)::value;
        constexpr float init =
            is_max ? -std::numeric_limits<float>::infinity() : 0.0f;
        auto body = [&](int64_t p0, int64_t p1) {
            for (int64_t pi = p0; pi < p1; ++pi) {
                const float *plane = in.sample(pi / is.c()) +
                                     (pi % is.c()) * is.h() * is.w();
                float *dst = out.sample(pi / is.c()) +
                             (pi % is.c()) * os.h() * os.w();
                for (int64_t oh = 0; oh < os.h(); ++oh) {
                    int64_t h0 = std::max<int64_t>(oh * stride_ - pad_, 0);
                    int64_t h1 =
                        std::min(oh * stride_ - pad_ + kernel_, is.h());
                    for (int64_t ow = 0; ow < os.w(); ++ow) {
                        int64_t w0 =
                            std::max<int64_t>(ow * stride_ - pad_, 0);
                        int64_t w1 = std::min(
                            ow * stride_ - pad_ + kernel_, is.w());
                        float acc = init;
                        for (int64_t h = h0; h < h1; ++h) {
                            for (int64_t w = w0; w < w1; ++w) {
                                float v = plane[h * is.w() + w];
                                if constexpr (is_max)
                                    acc = std::max(acc, v);
                                else
                                    acc += v;
                            }
                        }
                        if constexpr (!is_max) {
                            acc /= static_cast<float>(std::max<int64_t>(
                                (h1 - h0) * (w1 - w0), 1));
                        }
                        dst[oh * os.w() + ow] = acc;
                    }
                }
            }
        };
        common::computePool().parallelFor(0, in.shape().n() * is.c(), 4,
                                          body);
    };
    kind() == LayerKind::MaxPool ? run(std::true_type{})
                                 : run(std::false_type{});
}

} // namespace nn
} // namespace djinn
