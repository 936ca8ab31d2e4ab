/**
 * @file
 * A forward pass a test can hold in flight: a pass-through layer
 * that parks a batch whose first input is kHoldMarker while the
 * hold is closed, so the model stays busy and later queries queue
 * behind it (work-conserving batching queues only then).
 */

#ifndef DJINN_TESTS_CORE_FORWARD_HOLD_HH
#define DJINN_TESTS_CORE_FORWARD_HOLD_HH

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>

#include "nn/layer.hh"
#include "nn/layers/inner_product.hh"
#include "nn/layers/softmax.hh"
#include "nn/network.hh"

namespace djinn {
namespace core {

/** First input value of a query whose forward HoldLayer parks. */
constexpr float kHoldMarker = 1e6f;

/** A latch a test closes to keep one forward pass in flight. */
struct ForwardHold {
    std::mutex mutex;
    std::condition_variable cv;
    bool closed = false;
    bool entered = false;

    void
    close()
    {
        std::lock_guard<std::mutex> lock(mutex);
        closed = true;
        entered = false;
    }

    void
    open()
    {
        std::lock_guard<std::mutex> lock(mutex);
        closed = false;
        cv.notify_all();
    }

    /** Block until a held forward is parked in HoldLayer (or 10 s
     * pass, so a broken test fails instead of hanging). */
    void
    awaitEntered()
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait_for(lock, std::chrono::seconds(10),
                    [this]() { return entered; });
    }
};

/**
 * Pass-through layer: a batch whose first input is kHoldMarker
 * parks here while the hold is closed, so the model has a forward
 * in flight and later queries queue behind it.
 */
class HoldLayer : public nn::Layer
{
  public:
    explicit HoldLayer(ForwardHold *hold)
        : Layer("hold", nn::LayerKind::Flatten), hold_(hold)
    {}

  protected:
    nn::Shape
    setupImpl(const nn::Shape &input) override
    {
        return input;
    }

    void
    forwardImpl(const nn::Tensor &in, nn::Tensor &out) const override
    {
        if (in[0] == kHoldMarker) {
            std::unique_lock<std::mutex> lock(hold_->mutex);
            hold_->entered = true;
            hold_->cv.notify_all();
            hold_->cv.wait(lock, [this]() { return !hold_->closed; });
        }
        std::copy(in.data(), in.data() + in.elems(), out.data());
    }

  private:
    ForwardHold *hold_;
};

/** A finalized 1x2x2 -> 3-way softmax classifier (weights still to
 * be initialized) whose forward @p hold can park. */
inline std::unique_ptr<nn::Network>
heldNetwork(const std::string &name, ForwardHold *hold)
{
    auto net = std::make_unique<nn::Network>(name, nn::Shape(1, 1, 2, 2));
    net->add(std::make_unique<HoldLayer>(hold));
    net->add(std::make_unique<nn::InnerProductLayer>("fc", 3));
    net->add(std::make_unique<nn::SoftmaxLayer>("prob"));
    net->finalize();
    return net;
}

} // namespace core
} // namespace djinn

#endif // DJINN_TESTS_CORE_FORWARD_HOLD_HH
