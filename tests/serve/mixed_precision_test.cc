/**
 * @file
 * End-to-end mixed-precision serving (DESIGN.md §14): one batching
 * DjiNN server hosting two zoo models at different compute
 * precisions. Verifies the full plumbing — ServerConfig precision
 * declarations validate against the registry, Describe advertises
 * each model's precision, the djinn_model_precision gauge carries
 * per-model labels in the exposition, and the bytes a client gets
 * back match an offline forward of the same quantized network.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "core/djinn_client.hh"
#include "core/djinn_server.hh"
#include "nn/zoo.hh"
#include "telemetry/exposition.hh"

namespace djinn {
namespace core {
namespace {

/** Restores the global pool to its automatic size on scope exit. */
struct PoolSizeGuard {
    ~PoolSizeGuard() { common::setComputeThreads(0); }
};

class MixedPrecisionTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // mnist lowered to int8, senna_pos to bf16 — two models,
        // two precisions, one server.
        ASSERT_TRUE(registry_
                        .addZooModel(nn::zoo::Model::Mnist, 42,
                                     nn::Precision::Int8)
                        .isOk());
        ASSERT_TRUE(registry_
                        .addZooModel(nn::zoo::Model::SennaPos, 42,
                                     nn::Precision::Bf16)
                        .isOk());
    }

    ServerConfig
    mixedConfig()
    {
        ServerConfig config;
        config.batching = true;
        config.batchOptions.maxQueries = 4;
        config.modelPrecisions["mnist"] = nn::Precision::Int8;
        config.modelPrecisions["senna_pos"] = nn::Precision::Bf16;
        return config;
    }

    void
    startServer(const ServerConfig &config)
    {
        server_ = std::make_unique<DjinnServer>(registry_, config);
        ASSERT_TRUE(server_->start().isOk());
    }

    Status
    connect(DjinnClient &client)
    {
        return client.connect("127.0.0.1", server_->port());
    }

    ModelRegistry registry_;
    std::unique_ptr<DjinnServer> server_;
};

TEST_F(MixedPrecisionTest, DescribeAdvertisesPerModelPrecision)
{
    startServer(mixedConfig());
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());

    auto mnist = client.describeModel("mnist");
    ASSERT_TRUE(mnist.isOk()) << mnist.status().toString();
    EXPECT_EQ(mnist.value().precision, "int8");
    EXPECT_EQ(mnist.value().inputElems(), 28 * 28);

    auto senna = client.describeModel("senna_pos");
    ASSERT_TRUE(senna.isOk());
    EXPECT_EQ(senna.value().precision, "bf16");
}

TEST_F(MixedPrecisionTest, MetricsCarryPerModelPrecisionLabels)
{
    startServer(mixedConfig());
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());

    auto exposition = client.metricsExposition();
    ASSERT_TRUE(exposition.isOk());
    auto samples = telemetry::parseExposition(exposition.value());
    ASSERT_TRUE(samples.isOk()) << samples.status().toString();

    auto mnist = telemetry::findSample(
        samples.value(), "djinn_model_precision",
        {{"model", "mnist"}, {"precision", "int8"}});
    ASSERT_TRUE(mnist.isOk())
        << "no djinn_model_precision{model=mnist,precision=int8}";
    EXPECT_EQ(mnist.value(), 1.0);

    auto senna = telemetry::findSample(
        samples.value(), "djinn_model_precision",
        {{"model", "senna_pos"}, {"precision", "bf16"}});
    ASSERT_TRUE(senna.isOk())
        << "no djinn_model_precision{model=senna_pos,precision=bf16}";
    EXPECT_EQ(senna.value(), 1.0);

    // Exactly one precision series per model: a model must never
    // report two precisions at once.
    int mnistSeries = 0;
    for (const auto &s : samples.value()) {
        if (s.name == "djinn_model_precision") {
            auto it = s.labels.find("model");
            if (it != s.labels.end() && it->second == "mnist")
                ++mnistSeries;
        }
    }
    EXPECT_EQ(mnistSeries, 1);
}

TEST_F(MixedPrecisionTest, ServedBytesMatchOfflineQuantizedForward)
{
    PoolSizeGuard guard;
    startServer(mixedConfig());
    DjinnClient client;
    ASSERT_TRUE(connect(client).isOk());

    struct ModelCase {
        nn::zoo::Model model;
        const char *name;
        nn::Precision precision;
    };
    const ModelCase cases[] = {
        {nn::zoo::Model::Mnist, "mnist", nn::Precision::Int8},
        {nn::zoo::Model::SennaPos, "senna_pos",
         nn::Precision::Bf16},
    };
    for (const ModelCase &mc : cases) {
        SCOPED_TRACE(mc.name);
        // Offline reference: an independently built quantized
        // network forwarded locally. Quantized kernels are
        // bit-deterministic, so served bytes must match exactly.
        auto offline = nn::zoo::build(mc.model, mc.precision, 42);
        nn::Tensor in = nn::zoo::calibrationBatch(*offline, 2);
        nn::Tensor want = offline->forward(in);

        std::vector<float> payload(
            in.data(), in.data() + in.shape().elems());
        auto got = client.infer(mc.name, in.shape().n(), payload);
        ASSERT_TRUE(got.isOk()) << got.status().toString();
        ASSERT_EQ(static_cast<int64_t>(got.value().size()),
                  want.elems());
        for (int64_t i = 0; i < want.elems(); ++i) {
            uint32_t wb, gb;
            std::memcpy(&wb, &want[i], sizeof(wb));
            std::memcpy(&gb, &got.value()[static_cast<size_t>(i)],
                        sizeof(gb));
            ASSERT_EQ(gb, wb) << "served bytes diverge at " << i;
        }
    }
}

TEST_F(MixedPrecisionTest, PrecisionMismatchFailsStartup)
{
    // The registry holds mnist at int8; declaring f32 must be
    // caught at start() rather than silently serving the wrong
    // numerics.
    ServerConfig config;
    config.modelPrecisions["mnist"] = nn::Precision::F32;
    DjinnServer server(registry_, config);
    Status s = server.start();
    ASSERT_FALSE(s.isOk());
    EXPECT_NE(s.message().find("mnist"), std::string::npos);
    EXPECT_NE(s.message().find("precision"), std::string::npos);
}

TEST_F(MixedPrecisionTest, UnknownModelInPrecisionMapFailsStartup)
{
    ServerConfig config;
    config.modelPrecisions["resnet"] = nn::Precision::Int8;
    DjinnServer server(registry_, config);
    Status s = server.start();
    ASSERT_FALSE(s.isOk());
    EXPECT_NE(s.message().find("resnet"), std::string::npos);
}

} // namespace
} // namespace core
} // namespace djinn
