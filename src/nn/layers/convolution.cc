#include "nn/layers/convolution.hh"

#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "nn/gemm.hh"

namespace djinn {
namespace nn {

int64_t
convOutSize(int64_t in, int64_t kernel, int64_t pad, int64_t stride)
{
    int64_t padded = in + 2 * pad - kernel;
    if (padded < 0)
        fatal("conv window %ld larger than padded input %ld",
              kernel, in + 2 * pad);
    return padded / stride + 1;
}

void
im2col(const float *data, int64_t channels, int64_t height,
       int64_t width, int64_t kernel_h, int64_t kernel_w, int64_t pad,
       int64_t stride, float *col)
{
    int64_t out_h = convOutSize(height, kernel_h, pad, stride);
    int64_t out_w = convOutSize(width, kernel_w, pad, stride);
    int64_t cols = out_h * out_w;

    for (int64_t c = 0; c < channels; ++c) {
        const float *plane = data + c * height * width;
        for (int64_t kh = 0; kh < kernel_h; ++kh) {
            for (int64_t kw = 0; kw < kernel_w; ++kw) {
                float *row =
                    col + ((c * kernel_h + kh) * kernel_w + kw) * cols;
                for (int64_t oh = 0; oh < out_h; ++oh) {
                    int64_t ih = oh * stride - pad + kh;
                    if (ih < 0 || ih >= height) {
                        std::memset(row + oh * out_w, 0,
                                    static_cast<size_t>(out_w) *
                                    sizeof(float));
                        continue;
                    }
                    const float *src = plane + ih * width;
                    for (int64_t ow = 0; ow < out_w; ++ow) {
                        int64_t iw = ow * stride - pad + kw;
                        row[oh * out_w + ow] =
                            (iw < 0 || iw >= width) ? 0.0f : src[iw];
                    }
                }
            }
        }
    }
}

void
col2im(const float *col, int64_t channels, int64_t height,
       int64_t width, int64_t kernel_h, int64_t kernel_w,
       int64_t pad, int64_t stride, float *data)
{
    int64_t out_h = convOutSize(height, kernel_h, pad, stride);
    int64_t out_w = convOutSize(width, kernel_w, pad, stride);
    int64_t cols = out_h * out_w;

    for (int64_t c = 0; c < channels; ++c) {
        float *plane = data + c * height * width;
        for (int64_t kh = 0; kh < kernel_h; ++kh) {
            for (int64_t kw = 0; kw < kernel_w; ++kw) {
                const float *row =
                    col + ((c * kernel_h + kh) * kernel_w + kw) *
                          cols;
                for (int64_t oh = 0; oh < out_h; ++oh) {
                    int64_t ih = oh * stride - pad + kh;
                    if (ih < 0 || ih >= height)
                        continue;
                    float *dst = plane + ih * width;
                    for (int64_t ow = 0; ow < out_w; ++ow) {
                        int64_t iw = ow * stride - pad + kw;
                        if (iw < 0 || iw >= width)
                            continue;
                        dst[iw] += row[oh * out_w + ow];
                    }
                }
            }
        }
    }
}

ConvolutionLayer::ConvolutionLayer(std::string name,
                                   int64_t out_channels, int64_t kernel,
                                   int64_t stride, int64_t pad,
                                   int64_t groups, bool bias)
    : Layer(std::move(name), LayerKind::Convolution),
      outChannels_(out_channels), kernel_(kernel), stride_(stride),
      pad_(pad), groups_(groups), hasBias_(bias)
{
    if (out_channels <= 0 || kernel <= 0 || stride <= 0 || pad < 0 ||
        groups <= 0) {
        fatal("conv layer '%s': invalid geometry", this->name().c_str());
    }
    if (out_channels % groups != 0)
        fatal("conv layer '%s': %ld outputs not divisible by %ld "
              "groups", this->name().c_str(), out_channels, groups);
}

Shape
ConvolutionLayer::setupImpl(const Shape &input)
{
    if (input.c() % groups_ != 0)
        fatal("conv layer '%s': %ld input channels not divisible by "
              "%ld groups", name().c_str(), input.c(), groups_);
    int64_t in_per_group = input.c() / groups_;
    weights_.resize(Shape(outChannels_, in_per_group, kernel_,
                          kernel_));
    if (hasBias_)
        bias_.resize(Shape(1, outChannels_));
    int64_t out_h = convOutSize(input.h(), kernel_, pad_, stride_);
    int64_t out_w = convOutSize(input.w(), kernel_, pad_, stride_);
    return Shape(1, outChannels_, out_h, out_w);
}

uint64_t
ConvolutionLayer::paramCount() const
{
    uint64_t n = static_cast<uint64_t>(weights_.elems());
    if (hasBias_)
        n += outChannels_;
    return n;
}

std::vector<Tensor *>
ConvolutionLayer::paramTensors()
{
    std::vector<Tensor *> out{&weights_};
    if (hasBias_)
        out.push_back(&bias_);
    return out;
}

LayerQuant
ConvolutionLayer::calibrate(const Tensor &in) const
{
    LayerQuant q;
    float lo, hi;
    minMax(in.data(), in.elems(), &lo, &hi);
    // The quantized operand is the im2col buffer: input values plus
    // zero padding. affineS8 widens the range to include 0, so the
    // input min/max covers the padded columns too. Activations ride
    // the signed side here because the weights take the unsigned
    // (left) slot of the u8 x s8 kernel.
    q.act = QuantParams::affineS8(lo, hi);
    int64_t per_filter = weights_.elems() / outChannels_;
    q.weightScales.resize(static_cast<size_t>(outChannels_));
    for (int64_t o = 0; o < outChannels_; ++o) {
        q.weightScales[static_cast<size_t>(o)] =
            QuantParams::symmetricS8(
                maxAbs(weights_.data() + o * per_filter, per_filter))
                .scale;
    }
    return q;
}

void
ConvolutionLayer::onPrecisionChanged()
{
    if (precision() != Precision::Int8) {
        weights8_.clear();
        return;
    }
    LayerQuant &q = mutableQuant();
    int64_t per_filter = weights_.elems() / outChannels_;
    if (q.weightScales.empty()) {
        q.weightScales.resize(static_cast<size_t>(outChannels_));
        for (int64_t o = 0; o < outChannels_; ++o) {
            q.weightScales[static_cast<size_t>(o)] =
                QuantParams::symmetricS8(
                    maxAbs(weights_.data() + o * per_filter,
                           per_filter))
                    .scale;
        }
    }
    if (q.weightScales.size() != static_cast<size_t>(outChannels_)) {
        fatal("conv layer '%s': %zu weight scales for %ld filters",
              name().c_str(), q.weightScales.size(), outChannels_);
    }
    weights8_.resize(static_cast<size_t>(weights_.elems()));
    for (int64_t o = 0; o < outChannels_; ++o) {
        QuantParams wq;
        wq.scale = q.weightScales[static_cast<size_t>(o)];
        const float *w = weights_.data() + o * per_filter;
        int8_t *w8 = weights8_.data() + o * per_filter;
        for (int64_t i = 0; i < per_filter; ++i)
            w8[i] = static_cast<int8_t>(wq.quantize(w[i]));
    }
}

void
ConvolutionLayer::forwardImpl(const Tensor &in, Tensor &out) const
{
    const Shape &is = inputShape();
    const Shape &os = outputShape();
    int64_t in_per_group = is.c() / groups_;
    int64_t out_per_group = outChannels_ / groups_;
    int64_t cols = os.h() * os.w();
    int64_t patch = in_per_group * kernel_ * kernel_;

    // Batch images are partitioned across the compute pool; each
    // worker keeps its own im2col scratch. For batch 1 the loop
    // runs inline and the GEMM itself parallelizes instead (nested
    // parallelFor calls run serially, so the two levels compose).
    common::computePool().parallelFor(
        0, in.shape().n(), 1, [&](int64_t n0, int64_t n1) {
            static thread_local std::vector<float> col_tls;
            std::vector<float> &col_buf = col_tls;
            col_buf.resize(static_cast<size_t>(patch) * cols);
            for (int64_t n = n0; n < n1; ++n) {
                const float *src = in.sample(n);
                float *dst = out.sample(n);
                for (int64_t g = 0; g < groups_; ++g) {
                    const float *src_g =
                        src + g * in_per_group * is.h() * is.w();
                    float *dst_g = dst + g * out_per_group * cols;
                    im2col(src_g, in_per_group, is.h(), is.w(),
                           kernel_, kernel_, pad_, stride_,
                           col_buf.data());
                    // dst_g[out_per_group x cols] =
                    //     W_g[out_per_group x patch] *
                    //     col[patch x cols]
                    switch (precision()) {
                      case Precision::Int8:
                        gemm_s8_wl(
                            Trans::No, Trans::No, out_per_group,
                            cols, patch, 1.0f,
                            weights8_.data() +
                                g * out_per_group * patch,
                            patch,
                            quant().weightScales.data() +
                                g * out_per_group,
                            col_buf.data(), cols, quant().act, 0.0f,
                            dst_g, cols);
                        break;
                      case Precision::Bf16:
                        gemm_bf16(Trans::No, Trans::No,
                                  out_per_group, cols, patch, 1.0f,
                                  weights_.data() +
                                      g * out_per_group * patch,
                                  patch, col_buf.data(), cols, 0.0f,
                                  dst_g, cols);
                        break;
                      case Precision::F32:
                        sgemm(Trans::No, Trans::No, out_per_group,
                              cols, patch, 1.0f,
                              weights_.data() +
                                  g * out_per_group * patch,
                              patch, col_buf.data(), cols, 0.0f,
                              dst_g, cols);
                        break;
                    }
                }
                if (hasBias_) {
                    const float *b = bias_.data();
                    for (int64_t c = 0; c < outChannels_; ++c) {
                        float *plane = dst + c * cols;
                        for (int64_t i = 0; i < cols; ++i)
                            plane[i] += b[c];
                    }
                }
            }
        });
}

} // namespace nn
} // namespace djinn
