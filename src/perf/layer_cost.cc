#include "perf/layer_cost.hh"

#include <algorithm>

#include "common/logging.hh"
#include "nn/layers/convolution.hh"
#include "nn/layers/inner_product.hh"
#include "nn/layers/locally_connected.hh"

namespace djinn {
namespace perf {

namespace {

constexpr int64_t tile = 32;
constexpr int64_t threadsPerBlock = 256;

double
shapeBytes(const nn::Shape &s, int64_t batch)
{
    return static_cast<double>(s.sampleElems()) * batch *
           sizeof(float);
}

/** Cost of a fully connected layer: one batched GEMM. */
KernelCost
fcCost(const nn::InnerProductLayer &fc, int64_t batch)
{
    KernelCost k;
    k.weightBytes = static_cast<double>(fc.paramCount()) *
                    sizeof(float);
    auto geom = gemmGeometry(batch, fc.outputs());
    k.blocks = geom.blocks;
    k.tileUtilization = geom.tileUtilization;
    k.launches = 1;
    return k;
}

/**
 * Cost of a conv layer as a cuDNN-style batched kernel: the batch is
 * folded into the GEMM's N dimension (im2col columns), weights are
 * read once with a small per-sample cache-miss tail.
 */
KernelCost
convCost(const nn::ConvolutionLayer &conv, int64_t batch)
{
    KernelCost k;
    const nn::Shape &os = conv.outputShape();
    int64_t cols = os.h() * os.w();
    int64_t out_per_group = conv.outChannels() / conv.groups();
    // Filter banks are read once per launch and mostly stay resident
    // in cache across the batch; 5% of re-reads miss.
    double params_bytes = static_cast<double>(conv.paramCount()) *
                          sizeof(float);
    k.weightBytes = params_bytes * (1.0 + 0.05 * (batch - 1));
    auto geom = gemmGeometry(out_per_group, cols * batch, 16);
    k.blocks = geom.blocks * conv.groups();
    k.tileUtilization = geom.tileUtilization;
    k.launches = 1;
    return k;
}

/** Cost of a locally connected layer: per-sample, zero weight reuse. */
KernelCost
localCost(const nn::LocallyConnectedLayer &lc, int64_t batch)
{
    KernelCost k;
    const nn::Shape &os = lc.outputShape();
    int64_t positions = lc.outChannels() * os.h() * os.w();
    // Every output element has a private filter: the full parameter
    // set streams from DRAM once per sample, with no reuse at all.
    k.weightBytes = static_cast<double>(lc.paramCount()) *
                    sizeof(float) * batch;
    // One thread per output position, grouped into blocks.
    int64_t blocks = (positions + threadsPerBlock - 1) /
                     threadsPerBlock;
    k.blocks = blocks;
    k.tileUtilization = 1.0;
    k.launches = batch;
    return k;
}

/** Elementwise / pooling / softmax style kernels: one pass, batched. */
KernelCost
elementwiseCost(const nn::Layer &layer, int64_t batch)
{
    KernelCost k;
    int64_t out_elems = layer.outputShape().sampleElems() * batch;
    int64_t blocks = (out_elems + threadsPerBlock - 1) /
                     threadsPerBlock;
    k.blocks = std::max<int64_t>(blocks, 1);
    k.tileUtilization = 1.0;
    k.launches = 1;
    return k;
}

} // namespace

GemmGeometry
gemmGeometry(int64_t m, int64_t n, int64_t tile_m)
{
    int64_t tiles_m = (m + tile_m - 1) / tile_m;
    int64_t tiles_n = (n + tile - 1) / tile;
    GemmGeometry g;
    g.blocks = std::max<int64_t>(tiles_m * tiles_n, 1);
    double util_m = static_cast<double>(m) /
                    static_cast<double>(tiles_m * tile_m);
    double util_n = static_cast<double>(n) /
                    static_cast<double>(tiles_n * tile);
    g.tileUtilization = util_m * util_n;
    return g;
}

double
NetCost::totalFlops() const
{
    double total = 0.0;
    for (const auto &k : kernels)
        total += k.flops;
    return total;
}

double
NetCost::totalBytes() const
{
    double total = 0.0;
    for (const auto &k : kernels)
        total += k.weightBytes + k.activationBytes;
    return total;
}

int64_t
NetCost::totalLaunches() const
{
    int64_t total = 0;
    for (const auto &k : kernels)
        total += k.launches;
    return total;
}

NetCost
analyzeNetwork(const nn::Network &net, int64_t batch)
{
    if (batch <= 0)
        fatal("analyzeNetwork: batch must be positive, got %lld",
              static_cast<long long>(batch));
    NetCost cost;
    cost.network = net.name();
    cost.batch = batch;

    for (size_t i = 0; i < net.layerCount(); ++i) {
        const nn::Layer &layer = net.layer(i);
        KernelCost k;
        using nn::LayerKind;
        switch (layer.kind()) {
          case LayerKind::InnerProduct:
            k = fcCost(static_cast<const nn::InnerProductLayer &>(
                layer), batch);
            break;
          case LayerKind::Convolution:
            k = convCost(static_cast<const nn::ConvolutionLayer &>(
                layer), batch);
            break;
          case LayerKind::LocallyConnected:
            k = localCost(
                static_cast<const nn::LocallyConnectedLayer &>(layer),
                batch);
            break;
          case LayerKind::MaxPool:
          case LayerKind::AvgPool:
          case LayerKind::LRN:
          case LayerKind::Softmax:
          case LayerKind::ReLU:
          case LayerKind::Tanh:
          case LayerKind::Sigmoid:
          case LayerKind::HardTanh:
          case LayerKind::Dropout:
          case LayerKind::Flatten:
            k = elementwiseCost(layer, batch);
            break;
        }
        k.flops = static_cast<double>(layer.flopsPerSample() *
                                      static_cast<uint64_t>(batch));
        k.layer = layer.name();
        k.kind = layer.kind();
        k.paramBytes = static_cast<double>(layer.paramCount()) *
                       sizeof(float);
        k.activationBytes = shapeBytes(layer.inputShape(), batch) +
                            shapeBytes(layer.outputShape(), batch);
        cost.kernels.push_back(std::move(k));
    }
    return cost;
}

} // namespace perf
} // namespace djinn
