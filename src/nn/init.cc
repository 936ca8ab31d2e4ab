#include "nn/init.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"

namespace djinn {
namespace nn {

namespace {

uint64_t
hashString(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

void
initializeWeights(Network &net, uint64_t seed)
{
    uint64_t base = mix64(seed ^ hashString(net.name()));
    // Each layer draws from its own Rng(mix64(base + i)), so layers
    // fill in parallel with bit-identical results. Largest first:
    // the pool hands chunks out in order, and one FC layer can hold
    // most of a model's weights.
    std::vector<size_t> order;
    for (size_t i = 0; i < net.layerCount(); ++i) {
        if (net.layer(i).paramCount() > 0)
            order.push_back(i);
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return net.layer(a).paramCount() > net.layer(b).paramCount();
    });
    common::computePool().parallelFor(
        0, static_cast<int64_t>(order.size()), 1,
        [&](int64_t o0, int64_t o1) {
            for (int64_t o = o0; o < o1; ++o) {
                size_t i = order[static_cast<size_t>(o)];
                Layer &layer = net.layer(i);
                auto params = layer.params();
                Rng rng(mix64(base + i));
                int64_t fan_in = layer.inputShape().sampleElems();
                float stddev = std::sqrt(2.0f / static_cast<float>(
                    std::max<int64_t>(fan_in, 1)));
                // The first tensor is weights; any later tensors
                // are biases and stay zero (the allocation default).
                Tensor *weights = params.front();
                float *data = weights->data();
                int64_t total = weights->elems();
                for (int64_t j = 0; j < total; ++j)
                    data[j] =
                        static_cast<float>(rng.gaussian(0.0, stddev));
                for (size_t p = 1; p < params.size(); ++p)
                    params[p]->fill(0.0f);
            }
        });
}

} // namespace nn
} // namespace djinn
