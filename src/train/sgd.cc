#include "train/sgd.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.hh"
#include "nn/gemm.hh"
#include "nn/layers/convolution.hh"
#include "nn/layers/inner_product.hh"
#include "nn/layers/pooling.hh"

namespace djinn {
namespace train {

namespace {

/** Softmax cross-entropy: fills @p grad with dL/dlogits, returns
 *  the mean loss. @p logits is (N x classes). */
double
softmaxCrossEntropy(const nn::Tensor &logits,
                    const std::vector<int> &labels,
                    nn::Tensor &grad)
{
    int64_t batch = logits.shape().n();
    int64_t classes = logits.shape().sampleElems();
    grad.resize(logits.shape());
    double loss = 0.0;
    for (int64_t n = 0; n < batch; ++n) {
        const float *row = logits.sample(n);
        float *g = grad.sample(n);
        float max = *std::max_element(row, row + classes);
        double sum = 0.0;
        for (int64_t c = 0; c < classes; ++c)
            sum += std::exp(static_cast<double>(row[c]) - max);
        int label = labels[static_cast<size_t>(n)];
        if (label < 0 || label >= classes)
            fatal("label %d out of range [0, %lld)", label,
                  static_cast<long long>(classes));
        double log_z = std::log(sum) + max;
        loss += log_z - row[label];
        double inv_batch = 1.0 / static_cast<double>(batch);
        for (int64_t c = 0; c < classes; ++c) {
            double p = std::exp(static_cast<double>(row[c]) -
                                log_z);
            g[c] = static_cast<float>(
                (p - (c == label ? 1.0 : 0.0)) * inv_batch);
        }
    }
    return loss / static_cast<double>(batch);
}

void
backwardInnerProduct(const nn::InnerProductLayer &fc,
                     const nn::Tensor &x, const nn::Tensor &dy,
                     nn::Tensor &dx, std::vector<nn::Tensor> &grads)
{
    int64_t batch = x.shape().n();
    int64_t in = fc.inputs();
    int64_t out = fc.outputs();
    // dW (out x in) += dy^T (out x N) * x (N x in)
    nn::sgemm(nn::Trans::Yes, nn::Trans::No, out, in, batch, 1.0f,
              dy.data(), out, x.data(), in, 1.0f, grads[0].data(),
              in);
    if (grads.size() > 1) {
        float *db = grads[1].data();
        for (int64_t n = 0; n < batch; ++n) {
            const float *row = dy.sample(n);
            for (int64_t o = 0; o < out; ++o)
                db[o] += row[o];
        }
    }
    // dx (N x in) = dy (N x out) * W (out x in)
    dx.resize(x.shape());
    nn::sgemm(nn::Trans::No, nn::Trans::No, batch, in, out, 1.0f,
              dy.data(), out, fc.weights().data(), in, 0.0f,
              dx.data(), in);
}

void
backwardConvolution(nn::ConvolutionLayer &conv, const nn::Tensor &x,
                    const nn::Tensor &dy, nn::Tensor &dx,
                    std::vector<nn::Tensor> &grads)
{
    const nn::Shape &is = conv.inputShape();
    const nn::Shape &os = conv.outputShape();
    int64_t groups = conv.groups();
    int64_t in_per_group = is.c() / groups;
    int64_t out_per_group = os.c() / groups;
    int64_t cols = os.h() * os.w();
    int64_t patch = in_per_group * conv.kernel() * conv.kernel();
    const float *weights = conv.params()[0]->data();

    dx.resize(x.shape());
    dx.fill(0.0f);
    std::vector<float> col(static_cast<size_t>(patch) * cols);
    std::vector<float> dcol(static_cast<size_t>(patch) * cols);

    for (int64_t n = 0; n < x.shape().n(); ++n) {
        for (int64_t g = 0; g < groups; ++g) {
            const float *x_g = x.sample(n) +
                               g * in_per_group * is.h() * is.w();
            const float *dy_g = dy.sample(n) +
                                g * out_per_group * cols;
            float *dw_g = grads[0].data() +
                          g * out_per_group * patch;
            nn::im2col(x_g, in_per_group, is.h(), is.w(),
                       conv.kernel(), conv.kernel(), conv.pad(),
                       conv.stride(), col.data());
            // dW_g (out_pg x patch) += dy_g (out_pg x cols) *
            //                          col^T (cols x patch)
            nn::sgemm(nn::Trans::No, nn::Trans::Yes, out_per_group,
                      patch, cols, 1.0f, dy_g, cols, col.data(),
                      cols, 1.0f, dw_g, patch);
            // dcol (patch x cols) = W_g^T (patch x out_pg) * dy_g
            const float *w_g = weights + g * out_per_group * patch;
            nn::sgemm(nn::Trans::Yes, nn::Trans::No, patch, cols,
                      out_per_group, 1.0f, w_g, patch, dy_g, cols,
                      0.0f, dcol.data(), cols);
            float *dx_g = dx.sample(n) +
                          g * in_per_group * is.h() * is.w();
            nn::col2im(dcol.data(), in_per_group, is.h(), is.w(),
                       conv.kernel(), conv.kernel(), conv.pad(),
                       conv.stride(), dx_g);
        }
        if (grads.size() > 1) {
            float *db = grads[1].data();
            const float *dy_n = dy.sample(n);
            for (int64_t oc = 0; oc < os.c(); ++oc) {
                double acc = 0.0;
                for (int64_t i = 0; i < cols; ++i)
                    acc += dy_n[oc * cols + i];
                db[oc] += static_cast<float>(acc);
            }
        }
    }
}

void
backwardActivation(const nn::Layer &layer, const nn::Tensor &x,
                   const nn::Tensor &y, const nn::Tensor &dy,
                   nn::Tensor &dx)
{
    dx.resize(x.shape());
    int64_t total = x.elems();
    switch (layer.kind()) {
      case nn::LayerKind::ReLU:
        for (int64_t i = 0; i < total; ++i)
            dx[i] = x[i] > 0.0f ? dy[i] : 0.0f;
        break;
      case nn::LayerKind::Tanh:
        for (int64_t i = 0; i < total; ++i)
            dx[i] = dy[i] * (1.0f - y[i] * y[i]);
        break;
      case nn::LayerKind::Sigmoid:
        for (int64_t i = 0; i < total; ++i)
            dx[i] = dy[i] * y[i] * (1.0f - y[i]);
        break;
      case nn::LayerKind::HardTanh:
        for (int64_t i = 0; i < total; ++i)
            dx[i] = (x[i] > -1.0f && x[i] < 1.0f) ? dy[i] : 0.0f;
        break;
      default:
        panic("backwardActivation: bad kind");
    }
}

void
backwardPooling(const nn::PoolingLayer &pool, const nn::Tensor &x,
                const nn::Tensor &dy, nn::Tensor &dx)
{
    const nn::Shape &is = pool.inputShape();
    const nn::Shape &os = pool.outputShape();
    bool is_max = pool.kind() == nn::LayerKind::MaxPool;
    dx.resize(x.shape());
    dx.fill(0.0f);

    for (int64_t n = 0; n < x.shape().n(); ++n) {
        for (int64_t c = 0; c < is.c(); ++c) {
            const float *plane =
                x.sample(n) + c * is.h() * is.w();
            float *dplane = dx.sample(n) + c * is.h() * is.w();
            const float *dout =
                dy.sample(n) + c * os.h() * os.w();
            for (int64_t oh = 0; oh < os.h(); ++oh) {
                for (int64_t ow = 0; ow < os.w(); ++ow) {
                    int64_t h0 = std::max<int64_t>(
                        oh * pool.stride() - pool.pad(), 0);
                    int64_t w0 = std::max<int64_t>(
                        ow * pool.stride() - pool.pad(), 0);
                    int64_t h1 = std::min(
                        oh * pool.stride() - pool.pad() +
                            pool.kernel(), is.h());
                    int64_t w1 = std::min(
                        ow * pool.stride() - pool.pad() +
                            pool.kernel(), is.w());
                    float g = dout[oh * os.w() + ow];
                    if (is_max) {
                        int64_t best_h = h0, best_w = w0;
                        float best =
                            -std::numeric_limits<float>::infinity();
                        for (int64_t h = h0; h < h1; ++h) {
                            for (int64_t w = w0; w < w1; ++w) {
                                if (plane[h * is.w() + w] > best) {
                                    best = plane[h * is.w() + w];
                                    best_h = h;
                                    best_w = w;
                                }
                            }
                        }
                        dplane[best_h * is.w() + best_w] += g;
                    } else {
                        int64_t count = std::max<int64_t>(
                            (h1 - h0) * (w1 - w0), 1);
                        float share = g / static_cast<float>(count);
                        for (int64_t h = h0; h < h1; ++h) {
                            for (int64_t w = w0; w < w1; ++w)
                                dplane[h * is.w() + w] += share;
                        }
                    }
                }
            }
        }
    }
}

} // namespace

SgdTrainer::SgdTrainer(nn::Network &net, const TrainConfig &config)
    : net_(net), config_(config)
{
    if (!net.finalized())
        fatal("SgdTrainer: network must be finalized");
    for (size_t i = 0; i < net.layerCount(); ++i) {
        nn::Layer &layer = net.layer(i);
        switch (layer.kind()) {
          case nn::LayerKind::LRN:
          case nn::LayerKind::LocallyConnected:
            fatal("SgdTrainer: layer '%s' (%s) is not trainable",
                  layer.name().c_str(),
                  nn::layerKindName(layer.kind()));
          case nn::LayerKind::Softmax:
            if (i + 1 != net.layerCount())
                fatal("SgdTrainer: softmax must be the final "
                      "layer");
            break;
          default:
            break;
        }
        std::vector<nn::Tensor> g, v;
        for (nn::Tensor *param : layer.params()) {
            g.emplace_back(param->shape());
            v.emplace_back(param->shape());
        }
        grads_.push_back(std::move(g));
        velocity_.push_back(std::move(v));
    }
}

double
SgdTrainer::forwardBackward(const nn::Tensor &input,
                            const std::vector<int> &labels,
                            bool update)
{
    int64_t batch = input.shape().n();
    if (static_cast<int64_t>(labels.size()) != batch)
        fatal("SgdTrainer: %zu labels for a batch of %lld",
              labels.size(), static_cast<long long>(batch));

    // Weights may have been written through pointers kept from an
    // earlier params() call (this trainer's updates, a gradient
    // check), so no packed copy of them may be reused.
    size_t layers = net_.layerCount();
    for (size_t i = 0; i < layers; ++i)
        net_.layer(i).invalidatePacked();

    // Forward, keeping every activation.
    std::vector<nn::Tensor> acts(layers + 1);
    acts[0] = input;
    for (size_t i = 0; i < layers; ++i)
        net_.layer(i).forward(acts[i], acts[i + 1]);

    // Fused softmax + cross-entropy: a trailing Softmax layer is
    // folded into the loss gradient computed on its *input*.
    size_t top = layers;
    if (net_.layer(layers - 1).kind() == nn::LayerKind::Softmax)
        top = layers - 1;

    nn::Tensor grad;
    double loss = softmaxCrossEntropy(acts[top], labels, grad);
    if (!update)
        return loss;

    for (auto &layer_grads : grads_) {
        for (auto &g : layer_grads)
            g.fill(0.0f);
    }

    // Backward below the (folded) softmax.
    nn::Tensor grad_in;
    for (size_t i = top; i-- > 0;) {
        nn::Layer &layer = net_.layer(i);
        const nn::Tensor &x = acts[i];
        const nn::Tensor &y = acts[i + 1];
        switch (layer.kind()) {
          case nn::LayerKind::InnerProduct:
            backwardInnerProduct(
                static_cast<nn::InnerProductLayer &>(layer), x,
                grad, grad_in, grads_[i]);
            break;
          case nn::LayerKind::Convolution:
            backwardConvolution(
                static_cast<nn::ConvolutionLayer &>(layer), x,
                grad, grad_in, grads_[i]);
            break;
          case nn::LayerKind::ReLU:
          case nn::LayerKind::Tanh:
          case nn::LayerKind::Sigmoid:
          case nn::LayerKind::HardTanh:
            backwardActivation(layer, x, y, grad, grad_in);
            break;
          case nn::LayerKind::MaxPool:
          case nn::LayerKind::AvgPool:
            backwardPooling(
                static_cast<nn::PoolingLayer &>(layer), x, grad,
                grad_in);
            break;
          case nn::LayerKind::Dropout:
          case nn::LayerKind::Flatten:
            grad_in.resize(x.shape());
            std::memcpy(grad_in.data(), grad.data(),
                        static_cast<size_t>(grad.elems()) *
                        sizeof(float));
            break;
          default:
            panic("unreachable trainable layer kind");
        }
        std::swap(grad, grad_in);
    }

    applyUpdates();
    ++steps_;
    return loss;
}

void
SgdTrainer::applyUpdates()
{
    float lr = static_cast<float>(config_.learningRate);
    float mu = static_cast<float>(config_.momentum);
    float wd = static_cast<float>(config_.weightDecay);
    for (size_t i = 0; i < net_.layerCount(); ++i) {
        auto params = net_.layer(i).params();
        for (size_t p = 0; p < params.size(); ++p) {
            float *w = params[p]->data();
            float *g = grads_[i][p].data();
            float *v = velocity_[i][p].data();
            int64_t total = params[p]->elems();
            for (int64_t j = 0; j < total; ++j) {
                v[j] = mu * v[j] - lr * (g[j] + wd * w[j]);
                w[j] += v[j];
            }
        }
    }
}

double
SgdTrainer::step(const nn::Tensor &input,
                 const std::vector<int> &labels)
{
    return forwardBackward(input, labels, true);
}

double
SgdTrainer::evaluate(const nn::Tensor &input,
                     const std::vector<int> &labels)
{
    return forwardBackward(input, labels, false);
}

double
accuracy(const nn::Network &net, const nn::Tensor &input,
         const std::vector<int> &labels)
{
    nn::Tensor output = net.forward(input);
    int64_t batch = input.shape().n();
    int64_t correct = 0;
    for (int64_t n = 0; n < batch; ++n) {
        if (output.argmaxSample(n) ==
            labels[static_cast<size_t>(n)]) {
            ++correct;
        }
    }
    return static_cast<double>(correct) /
           static_cast<double>(std::max<int64_t>(batch, 1));
}

} // namespace train
} // namespace djinn
