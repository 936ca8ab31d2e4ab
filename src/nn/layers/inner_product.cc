#include "nn/layers/inner_product.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "nn/gemm.hh"

namespace djinn {
namespace nn {

InnerProductLayer::InnerProductLayer(std::string name, int64_t outputs,
                                     bool bias)
    : Layer(std::move(name), LayerKind::InnerProduct),
      outputs_(outputs), hasBias_(bias)
{
    if (outputs <= 0)
        fatal("fc layer '%s': outputs must be positive, got %ld",
              this->name().c_str(), outputs);
}

Shape
InnerProductLayer::setupImpl(const Shape &input)
{
    inputs_ = input.sampleElems();
    weights_.resize(Shape(outputs_, inputs_));
    if (hasBias_)
        bias_.resize(Shape(1, outputs_));
    return Shape(1, outputs_);
}

uint64_t
InnerProductLayer::paramCount() const
{
    uint64_t n = static_cast<uint64_t>(outputs_) * inputs_;
    if (hasBias_)
        n += outputs_;
    return n;
}

std::vector<Tensor *>
InnerProductLayer::paramTensors()
{
    std::vector<Tensor *> out{&weights_};
    if (hasBias_)
        out.push_back(&bias_);
    return out;
}

LayerQuant
InnerProductLayer::calibrate(const Tensor &in) const
{
    LayerQuant q;
    float lo, hi;
    minMax(in.data(), in.elems(), &lo, &hi);
    // Activations ride the unsigned side of the u8 x s8 kernel.
    q.act = QuantParams::affineU8(lo, hi);
    q.weightScales = channelScales(weights_.data(), outputs_, inputs_);
    return q;
}

void
InnerProductLayer::onPrecisionChanged()
{
    if (precision() != Precision::Int8)
        return;
    LayerQuant &q = mutableQuant();
    // Derive per-output-channel scales from the weights; the
    // derivation is deterministic so it matches serialized sets.
    if (q.weightScales.empty())
        q.weightScales = channelScales(weights_.data(), outputs_, inputs_);
    if (q.weightScales.size() != static_cast<size_t>(outputs_)) {
        fatal("fc layer '%s': %zu weight scales for %ld outputs",
              name().c_str(), q.weightScales.size(), outputs_);
    }
}

void
InnerProductLayer::packImpl() const
{
    // op(B) = W^T: k = inputs, n = outputs, W row-major (Trans::Yes).
    packed_.pack(precision(), Trans::Yes, inputs_, outputs_,
                 weights_.data(), inputs_,
                 quant().weightScales.data());
}

void
InnerProductLayer::forwardImpl(const Tensor &in, Tensor &out) const
{
    // out[N x outputs] = in[N x inputs] * W^T[inputs x outputs].
    // The GEMM splits its own work across the compute pool.
    int64_t batch = in.shape().n();
    gemm_packed(Trans::No, batch, 1.0f, in.data(), inputs_, packed_,
                0.0f, out.data(), outputs_, quant().act);
    if (hasBias_) {
        const float *b = bias_.data();
        int64_t grain = std::max<int64_t>(
            1, 16384 / std::max<int64_t>(outputs_, 1));
        common::computePool().parallelFor(
            0, batch, grain, [&](int64_t n0, int64_t n1) {
                for (int64_t n = n0; n < n1; ++n) {
                    float *row = out.sample(n);
                    for (int64_t o = 0; o < outputs_; ++o)
                        row[o] += b[o];
                }
            });
    }
}

} // namespace nn
} // namespace djinn
