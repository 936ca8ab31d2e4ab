#include "nn/layer.hh"

#include "common/logging.hh"
#include "common/strings.hh"

namespace djinn {
namespace nn {

const char *
layerKindName(LayerKind kind)
{
    switch (kind) {
      case LayerKind::InnerProduct: return "fc";
      case LayerKind::Convolution: return "conv";
      case LayerKind::LocallyConnected: return "local";
      case LayerKind::MaxPool: return "maxpool";
      case LayerKind::AvgPool: return "avgpool";
      case LayerKind::ReLU: return "relu";
      case LayerKind::Tanh: return "tanh";
      case LayerKind::Sigmoid: return "sigmoid";
      case LayerKind::HardTanh: return "hardtanh";
      case LayerKind::LRN: return "lrn";
      case LayerKind::Softmax: return "softmax";
      case LayerKind::Dropout: return "dropout";
      case LayerKind::Flatten: return "flatten";
    }
    return "unknown";
}

LayerKind
layerKindFromName(const std::string &name)
{
    static const std::pair<const char *, LayerKind> table[] = {
        {"fc", LayerKind::InnerProduct},
        {"conv", LayerKind::Convolution},
        {"local", LayerKind::LocallyConnected},
        {"maxpool", LayerKind::MaxPool},
        {"avgpool", LayerKind::AvgPool},
        {"relu", LayerKind::ReLU},
        {"tanh", LayerKind::Tanh},
        {"sigmoid", LayerKind::Sigmoid},
        {"hardtanh", LayerKind::HardTanh},
        {"lrn", LayerKind::LRN},
        {"softmax", LayerKind::Softmax},
        {"dropout", LayerKind::Dropout},
        {"flatten", LayerKind::Flatten},
    };
    for (const auto &[key, kind] : table) {
        if (name == key)
            return kind;
    }
    fatal("unknown layer kind '%s'", name.c_str());
}

void
Layer::setup(const Shape &input)
{
    if (isSetUp_)
        panic("layer '%s' set up twice", name_.c_str());
    inputShape_ = Shape(1, input.c(), input.h(), input.w());
    outputShape_ = setupImpl(inputShape_);
    isSetUp_ = true;
}

void
Layer::forward(const Tensor &in, Tensor &out) const
{
    if (!isSetUp_)
        panic("layer '%s' forward before setup", name_.c_str());
    const Shape &s = in.shape();
    if (s.c() != inputShape_.c() || s.h() != inputShape_.h() ||
        s.w() != inputShape_.w()) {
        fatal("layer '%s': input %s does not match expected %s",
              name_.c_str(), s.toString().c_str(),
              inputShape_.toString().c_str());
    }
    packWeights();
    out.resize(outputShape_.withBatch(s.n()));
    forwardImpl(in, out);
}

void
Layer::packWeights() const
{
    std::call_once(packOnce_, [this] {
        sealed_.store(true);
        packImpl();
    });
}

void
Layer::requireUnsealed(const char *what) const
{
    if (sealed_.load()) {
        panic("layer '%s': %s: weights are sealed after the first pack",
              name_.c_str(), what);
    }
}

void
Layer::setPrecision(Precision p, LayerQuant q)
{
    if (!isSetUp_)
        panic("layer '%s': setPrecision before setup", name_.c_str());
    requireUnsealed("setPrecision");
    if (!supportsPrecision(p)) {
        fatal("layer '%s' (%s) does not support precision %s",
              name_.c_str(), layerKindName(kind_), precisionName(p));
    }
    precision_ = p;
    quant_ = std::move(q);
    onPrecisionChanged();
}

uint64_t
Layer::flopsPerSample() const
{
    uint64_t out_elems =
        static_cast<uint64_t>(outputShape_.sampleElems());
    switch (kind_) {
      case LayerKind::Dropout:
      case LayerKind::Flatten:
        return 0;
      case LayerKind::Softmax:
        return 4 * out_elems;
      default:
        // ReLU/Tanh/Sigmoid/HardTanh: one op + one store pass.
        return 2 * out_elems;
    }
}

std::vector<Tensor *>
Layer::params()
{
    requireUnsealed("params");
    return paramTensors();
}

std::vector<const Tensor *>
Layer::params() const
{
    auto mutable_params = const_cast<Layer *>(this)->paramTensors();
    return {mutable_params.begin(), mutable_params.end()};
}

std::string
Layer::describe() const
{
    std::string s =
        strprintf("%s (%s): %s -> %s, %lu params", name_.c_str(),
                  layerKindName(kind_),
                  inputShape_.toString().c_str(),
                  outputShape_.toString().c_str(),
                  static_cast<unsigned long>(paramCount()));
    if (precision_ != Precision::F32)
        s += strprintf(" [%s]", precisionName(precision_));
    return s;
}

} // namespace nn
} // namespace djinn
