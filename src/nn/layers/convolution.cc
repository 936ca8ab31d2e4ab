#include "nn/layers/convolution.hh"

#include <algorithm>
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

namespace {

/**
 * im2col transposed, for output rows [oh0, oh1): position (oh, ow)
 * gets row oh * out_w + ow of @p rows, its receptive field in the
 * filter layout (c, kh, kw), zero where the window overhangs. Each
 * input row is scattered across an output row's positions at once.
 */
void
im2row(const float *data, int64_t channels, int64_t height,
       int64_t width, int64_t kernel, int64_t pad, int64_t stride,
       int64_t oh0, int64_t oh1, float *rows)
{
    int64_t out_w = convOutSize(width, kernel, pad, stride);
    int64_t row_len = channels * kernel * kernel;
    // Positions [ow0, ow1) have their window inside the image width.
    int64_t ow0 = std::min(out_w, (pad + stride - 1) / stride);
    int64_t last = width + pad - kernel;
    int64_t ow1 =
        last < 0 ? ow0 : std::clamp(last / stride + 1, ow0, out_w);
    for (int64_t oh = oh0; oh < oh1; ++oh) {
        for (int64_t c = 0; c < channels; ++c) {
            for (int64_t kh = 0; kh < kernel; ++kh) {
                int64_t ih = oh * stride - pad + kh;
                const float *src = ih >= 0 && ih < height
                    ? data + (c * height + ih) * width
                    : nullptr;
                float *dst = rows + oh * out_w * row_len +
                             (c * kernel + kh) * kernel;
                for (int64_t ow = 0; ow < out_w; ++ow, dst += row_len) {
                    int64_t iw0 = ow * stride - pad;
                    if (src && ow >= ow0 && ow < ow1) {
                        for (int64_t kw = 0; kw < kernel; ++kw)
                            dst[kw] = src[iw0 + kw];
                        continue;
                    }
                    for (int64_t kw = 0; kw < kernel; ++kw) {
                        int64_t iw = iw0 + kw;
                        dst[kw] = src && iw >= 0 && iw < width ? src[iw]
                                                               : 0.0f;
                    }
                }
            }
        }
    }
}

} // namespace

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
    // The quantized operand is the im2row buffer, input plus zero
    // padding: affineS8's range includes 0, so it covers both.
    q.act = QuantParams::affineS8(lo, hi);
    q.weightScales = channelScales(weights_.data(), outChannels_,
                                   weights_.elems() / outChannels_);
    return q;
}

void
ConvolutionLayer::onPrecisionChanged()
{
    if (precision() != Precision::Int8)
        return;
    LayerQuant &q = mutableQuant();
    if (q.weightScales.empty()) {
        q.weightScales = channelScales(weights_.data(), outChannels_,
                                       weights_.elems() / outChannels_);
    }
    if (q.weightScales.size() != static_cast<size_t>(outChannels_)) {
        fatal("conv layer '%s': %zu weight scales for %ld filters",
              name().c_str(), q.weightScales.size(), outChannels_);
    }
}

void
ConvolutionLayer::packImpl() const
{
    int64_t out_per_group = outChannels_ / groups_;
    int64_t patch = weights_.elems() / outChannels_;
    bool int8 = precision() == Precision::Int8;
    packed_.resize(static_cast<size_t>(groups_));
    for (int64_t g = 0; g < groups_; ++g) {
        // op(B) = W_g^T: k = patch, n = out_per_group, W_g
        // row-major (Trans::Yes), per-filter scales per column.
        int64_t o0 = g * out_per_group;
        packed_[static_cast<size_t>(g)].pack(
            precision(), Trans::Yes, patch, out_per_group,
            weights_.data() + o0 * patch, patch,
            int8 ? quant().weightScales.data() + o0 : nullptr);
    }
}

void
ConvolutionLayer::forwardImpl(const Tensor &in, Tensor &out) const
{
    const Shape &is = inputShape();
    const Shape &os = outputShape();
    int64_t cols = os.h() * os.w();
    int64_t row_len = is.c() * kernel_ * kernel_;
    int64_t patch = row_len / groups_;
    int64_t out_per_group = outChannels_ / groups_;
    const float *b = hasBias_ ? bias_.data() : nullptr;
    auto &pool = common::computePool();

    // A batch that fills the pool splits by image, each image's passes
    // inline on its executor (nested parallelFor calls run inline). A
    // smaller one (range <= grain) runs here, an image at a time with
    // each pass split across the pool: the output positions, as M,
    // fill it even at batch 1. The bits are the same either way.
    int64_t batch = in.shape().n();
    pool.parallelFor(0, batch, batch >= pool.size() ? 1 : batch,
                     [&](int64_t n0, int64_t n1) {
        // Thread-local so repeated forwards from a thread reuse them.
        static thread_local std::vector<float> rows_tls, ct_tls;
        std::vector<float> &rows = rows_tls;
        std::vector<float> &ct = ct_tls;
        rows.resize(static_cast<size_t>(cols * row_len));
        ct.resize(static_cast<size_t>(cols * outChannels_));
        for (int64_t n = n0; n < n1; ++n) {
            const float *src = in.sample(n);
            pool.parallelFor(0, os.h(), 1, [&](int64_t oh0,
                                               int64_t oh1) {
                im2row(src, is.c(), is.h(), is.w(), kernel_, pad_,
                       stride_, oh0, oh1, rows.data());
            });
            // ct[cols x outChannels], group g's columns =
            //     rows_g[cols x patch] * W_g^T[patch x out_per_group]
            for (int64_t g = 0; g < groups_; ++g) {
                gemm_packed(Trans::No, cols, 1.0f,
                            rows.data() + g * patch, row_len,
                            packed_[static_cast<size_t>(g)], 0.0f,
                            ct.data() + g * out_per_group, outChannels_,
                            quant().act);
            }
            // Back to NCHW; the bias lands after the full sum.
            float *dst = out.sample(n);
            pool.parallelFor(0, outChannels_, 1, [&](int64_t c0,
                                                     int64_t c1) {
                for (int64_t pos = 0; pos < cols; ++pos) {
                    const float *crow = ct.data() + pos * outChannels_;
                    for (int64_t c = c0; c < c1; ++c)
                        dst[c * cols + pos] = b ? crow[c] + b[c] : crow[c];
                }
            });
        }
    });
}

} // namespace nn
} // namespace djinn
