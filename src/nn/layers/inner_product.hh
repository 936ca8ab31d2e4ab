/**
 * @file
 * Fully connected (inner product) layer: out = in * W^T + b.
 */

#ifndef DJINN_NN_LAYERS_INNER_PRODUCT_HH
#define DJINN_NN_LAYERS_INNER_PRODUCT_HH

#include "nn/gemm.hh"
#include "nn/layer.hh"

namespace djinn {
namespace nn {

/**
 * Fully connected layer. The input sample is flattened to a vector
 * of length c*h*w; weights are stored row-major (outputs x inputs)
 * and served from a PackedWeights copy built for the current
 * precision (DESIGN.md §8).
 */
class InnerProductLayer : public Layer
{
  public:
    /**
     * @param name layer name.
     * @param outputs number of output neurons.
     * @param bias whether a bias vector is learned.
     */
    InnerProductLayer(std::string name, int64_t outputs,
                      bool bias = true);

    uint64_t paramCount() const override;

    /** Number of output neurons. */
    int64_t outputs() const { return outputs_; }

    /** Flattened input length (valid after setup). */
    int64_t inputs() const { return inputs_; }

    uint64_t
    flopsPerSample() const override
    {
        return 2ull * static_cast<uint64_t>(inputs_) *
               static_cast<uint64_t>(outputs_);
    }

    /** The (outputs x inputs) weight matrix. */
    const Tensor &weights() const { return weights_; }

    /** The bias vector; empty when bias is disabled. */
    const Tensor &bias() const { return bias_; }

    /** FC lowers to bf16 (storage rounding) and int8. */
    bool
    supportsPrecision(Precision p) const override
    {
        (void)p;
        return true;
    }

    LayerQuant calibrate(const Tensor &in) const override;

  protected:
    std::vector<Tensor *> paramTensors() override;
    Shape setupImpl(const Shape &input) override;
    void forwardImpl(const Tensor &in, Tensor &out) const override;
    void onPrecisionChanged() override;
    void packImpl() const override;

  private:
    int64_t outputs_;
    bool hasBias_;
    int64_t inputs_ = 0;
    Tensor weights_;
    Tensor bias_;

    /**
     * op(W^T) packed at precision(): f32 panels, bf16-rounded
     * panels, or s8 panels with column sums and the weight scales.
     * Built once by packImpl() when the layer is sealed; forwards
     * only read it.
     */
    mutable PackedWeights packed_;
};

} // namespace nn
} // namespace djinn

#endif // DJINN_NN_LAYERS_INNER_PRODUCT_HH
