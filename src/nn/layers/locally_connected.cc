#include "nn/layers/locally_connected.hh"

#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "nn/layers/convolution.hh"

namespace djinn {
namespace nn {

LocallyConnectedLayer::LocallyConnectedLayer(std::string name,
                                             int64_t out_channels,
                                             int64_t kernel,
                                             int64_t stride,
                                             int64_t pad, bool bias)
    : Layer(std::move(name), LayerKind::LocallyConnected),
      outChannels_(out_channels), kernel_(kernel), stride_(stride),
      pad_(pad), hasBias_(bias)
{
    if (out_channels <= 0 || kernel <= 0 || stride <= 0 || pad < 0)
        fatal("local layer '%s': invalid geometry",
              this->name().c_str());
}

Shape
LocallyConnectedLayer::setupImpl(const Shape &input)
{
    int64_t out_h = convOutSize(input.h(), kernel_, pad_, stride_);
    int64_t out_w = convOutSize(input.w(), kernel_, pad_, stride_);
    int64_t positions = outChannels_ * out_h * out_w;
    weights_.resize(Shape(positions, input.c(), kernel_, kernel_));
    if (hasBias_)
        bias_.resize(Shape(1, positions));
    return Shape(1, outChannels_, out_h, out_w);
}

uint64_t
LocallyConnectedLayer::paramCount() const
{
    uint64_t n = static_cast<uint64_t>(weights_.elems());
    if (hasBias_)
        n += static_cast<uint64_t>(bias_.elems());
    return n;
}

std::vector<Tensor *>
LocallyConnectedLayer::paramTensors()
{
    std::vector<Tensor *> out{&weights_};
    if (hasBias_)
        out.push_back(&bias_);
    return out;
}

void
LocallyConnectedLayer::forwardImpl(const Tensor &in, Tensor &out) const
{
    const Shape &is = inputShape();
    const Shape &os = outputShape();
    int64_t patch = is.c() * kernel_ * kernel_;
    int64_t cols = os.h() * os.w();

    // im2col once per sample, then a per-position dot product
    // against that position's private filter. Samples partition
    // across the pool; for small batches the outer loop runs inline
    // and the per-output-channel loop parallelizes instead (nested
    // calls run serially, so the levels compose).
    auto &pool = common::computePool();
    pool.parallelFor(0, in.shape().n(), 1, [&](int64_t n0,
                                               int64_t n1) {
        static thread_local std::vector<float> col_tls;
        std::vector<float> &col_buf = col_tls;
        col_buf.resize(static_cast<size_t>(patch) * cols);
        for (int64_t n = n0; n < n1; ++n) {
            im2col(in.sample(n), is.c(), is.h(), is.w(), kernel_,
                   kernel_, pad_, stride_, col_buf.data());
            float *dst = out.sample(n);
            const float *w = weights_.data();
            pool.parallelFor(0, outChannels_, 1, [&](int64_t c0,
                                                     int64_t c1) {
                for (int64_t oc = c0; oc < c1; ++oc) {
                    for (int64_t pos = 0; pos < cols; ++pos) {
                        const float *filter =
                            w + (oc * cols + pos) * patch;
                        float acc = 0.0f;
                        for (int64_t p = 0; p < patch; ++p)
                            acc += filter[p] *
                                   col_buf[p * cols + pos];
                        dst[oc * cols + pos] = acc;
                    }
                }
            });
            if (hasBias_) {
                const float *b = bias_.data();
                int64_t total = outChannels_ * cols;
                for (int64_t i = 0; i < total; ++i)
                    dst[i] += b[i];
            }
        }
    });
}

} // namespace nn
} // namespace djinn
