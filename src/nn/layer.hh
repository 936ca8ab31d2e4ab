/**
 * @file
 * Layer abstraction for the inference library. A Network is an
 * ordered pipeline of Layers; each layer maps an input Tensor with
 * batch dimension N to an output Tensor with the same N.
 */

#ifndef DJINN_NN_LAYER_HH
#define DJINN_NN_LAYER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/quant.hh"
#include "nn/tensor.hh"

namespace djinn {
namespace nn {

/** The kinds of layer the library implements. */
enum class LayerKind {
    InnerProduct,
    Convolution,
    LocallyConnected,
    MaxPool,
    AvgPool,
    ReLU,
    Tanh,
    Sigmoid,
    HardTanh,
    LRN,
    Softmax,
    Dropout,
    Flatten,
};

/** Printable name of a layer kind (matches the netdef keyword). */
const char *layerKindName(LayerKind kind);

/** Parse a netdef keyword into a LayerKind; fatal() on unknown. */
LayerKind layerKindFromName(const std::string &name);

/**
 * Base class for all layers. Layers are configured at construction,
 * have their parameter shapes fixed by setup(), get their weights
 * and precision before the first forward(), and are sealed by it:
 * from then on they are immutable, so concurrent inference threads
 * share them with no lock.
 */
class Layer
{
  public:
    /** @param name unique layer name within its network. */
    Layer(std::string name, LayerKind kind)
        : name_(std::move(name)), kind_(kind)
    {}

    virtual ~Layer() = default;

    Layer(const Layer &) = delete;
    Layer &operator=(const Layer &) = delete;

    /** The layer's unique name within its network. */
    const std::string &name() const { return name_; }

    /** The layer's kind. */
    LayerKind kind() const { return kind_; }

    /** The input sample shape this layer was set up with. */
    const Shape &inputShape() const { return inputShape_; }

    /** The output sample shape computed by setup(). */
    const Shape &outputShape() const { return outputShape_; }

    /**
     * Fix the input geometry and allocate parameters. The batch
     * dimension of @p input is ignored; geometry is (c, h, w).
     * Must be called exactly once before forward().
     */
    void setup(const Shape &input);

    /**
     * Run the forward pass over a batch.
     *
     * @param in input with shape inputShape().withBatch(N).
     * @param out resized by the layer to outputShape().withBatch(N).
     */
    void forward(const Tensor &in, Tensor &out) const;

    /** Number of learned parameters (weights + biases). */
    virtual uint64_t paramCount() const { return 0; }

    /**
     * Useful floating point operations of one sample's forward
     * pass, using the same counting convention as
     * perf::analyzeNetwork so static and measured costs line up.
     * Valid only after setup().
     */
    virtual uint64_t flopsPerSample() const;

    /**
     * Mutable views of the learned parameter tensors. Writing
     * through them is how weights are initialized and loaded, so
     * the call panics once the layer is sealed (packWeights()).
     */
    std::vector<Tensor *> params();

    /** Read-only views of the learned parameter tensors. */
    std::vector<const Tensor *> params() const;

    /**
     * Seal the layer: build the state derived from its weights (the
     * FC and conv layers' packed weights) exactly once. From then
     * on params() and setPrecision() panic, and forward() reads
     * that state with no lock. forward() calls it, so the first
     * forward seals the layer; ModelRegistry::add runs it before a
     * model becomes visible, so serving never pays for it. Safe to
     * call concurrently with itself and with forward().
     */
    void packWeights() const;

    /** One-line human-readable description. */
    virtual std::string describe() const;

    /** Numeric precision this layer executes at (F32 until lowered). */
    Precision precision() const { return precision_; }

    /** Quantization state installed by setPrecision (int8 only). */
    const LayerQuant &quant() const { return quant_; }

    /** Whether the layer kind can execute at @p p. */
    virtual bool
    supportsPrecision(Precision p) const
    {
        return p == Precision::F32;
    }

    /**
     * Lower the layer to precision @p p. For Int8, @p q supplies the
     * per-tensor activation mapping and the symmetric per-output-
     * channel weight scales; empty weight scales are derived from
     * the current weights (deterministically), so serialized scale
     * sets and freshly derived ones produce the same codes. fatal()
     * if the layer does not support @p p. Must be called between
     * setup() and the first forward(); panics once the layer is
     * sealed.
     */
    void setPrecision(Precision p, LayerQuant q = {});

    /**
     * Compute the int8 LayerQuant for this layer given a calibration
     * batch of its *inputs* (the activation mapping covers the
     * batch's min/max; weight scales come from the current weights).
     * Returns an empty LayerQuant for layers with no int8 lowering.
     */
    virtual LayerQuant
    calibrate(const Tensor &in) const
    {
        (void)in;
        return {};
    }

  protected:
    /** The learned parameter tensors, weights first. */
    virtual std::vector<Tensor *> paramTensors() { return {}; }

    /** Compute the output sample shape and allocate parameters. */
    virtual Shape setupImpl(const Shape &input) = 0;

    /** Layer-specific forward pass; shapes already validated. */
    virtual void forwardImpl(const Tensor &in, Tensor &out) const = 0;

    /**
     * Build the state derived from the weights. packWeights() runs
     * it exactly once, before the first forwardImpl().
     */
    virtual void packImpl() const {}

    /**
     * Hook run by setPrecision after precision_/quant_ are set:
     * derive cached precision-dependent state (e.g. int8 weight
     * codes) and fill in empty weight scales.
     */
    virtual void onPrecisionChanged() {}

    /** Mutable quant state for onPrecisionChanged overrides. */
    LayerQuant &mutableQuant() { return quant_; }

  private:
    std::string name_;
    LayerKind kind_;
    Shape inputShape_;
    Shape outputShape_;
    bool isSetUp_ = false;
    Precision precision_ = Precision::F32;
    LayerQuant quant_;
    mutable std::once_flag packOnce_;
    mutable std::atomic<bool> sealed_{false};

    /** panic() if packWeights() has run. */
    void requireUnsealed(const char *what) const;
};

using LayerPtr = std::unique_ptr<Layer>;

} // namespace nn
} // namespace djinn

#endif // DJINN_NN_LAYER_HH
