/**
 * @file
 * Local response normalization across channels, as used by AlexNet.
 */

#ifndef DJINN_NN_LAYERS_LRN_HH
#define DJINN_NN_LAYERS_LRN_HH

#include "nn/layer.hh"

namespace djinn {
namespace nn {

/**
 * Cross-channel LRN:
 * out = in / (1 + alpha/size * sum_{local window} in^2)^0.75,
 * AlexNet's k = 1 and beta = 0.75. Defaults match AlexNet (size 5,
 * alpha 1e-4).
 */
class LrnLayer : public Layer
{
  public:
    /**
     * @param name layer name.
     * @param size channel window size (odd).
     * @param alpha scale on the squared sum.
     */
    LrnLayer(std::string name, int64_t size = 5, float alpha = 1e-4f);

    int64_t size() const { return size_; }

    uint64_t
    flopsPerSample() const override
    {
        return static_cast<uint64_t>(3 * size_ + 2) *
               static_cast<uint64_t>(outputShape().sampleElems());
    }

  protected:
    Shape setupImpl(const Shape &input) override;
    void forwardImpl(const Tensor &in, Tensor &out) const override;

  private:
    int64_t size_;
    float alpha_;
};

} // namespace nn
} // namespace djinn

#endif // DJINN_NN_LAYERS_LRN_HH
