#include "nn/serialize.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "nn/init.hh"
#include "nn/net_def.hh"

namespace djinn {
namespace nn {
namespace {

class SerializeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One file per test: ctest -j runs the tests of this suite
        // as concurrent processes.
        path_ = ::testing::TempDir() + "/weights_test_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".djw";
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    std::shared_ptr<Network>
    makeNet(uint64_t seed)
    {
        auto net = parseNetDefOrDie(
            "name s\ninput 1 4 4\n"
            "layer conv conv out 2 kernel 3\n"
            "layer fc fc out 5\n");
        initializeWeights(*net, seed);
        return net;
    }

    std::string path_;
};

TEST_F(SerializeTest, RoundTripPreservesWeights)
{
    auto src = makeNet(11);
    ASSERT_TRUE(saveWeights(*src, path_).isOk());

    auto dst = makeNet(99); // different weights before load
    ASSERT_TRUE(loadWeights(*dst, path_).isOk());

    for (size_t l = 0; l < src->layerCount(); ++l) {
        auto ps = src->layer(l).params();
        auto pd = dst->layer(l).params();
        ASSERT_EQ(ps.size(), pd.size());
        for (size_t p = 0; p < ps.size(); ++p) {
            for (int64_t i = 0; i < ps[p]->elems(); ++i)
                ASSERT_FLOAT_EQ((*ps[p])[i], (*pd[p])[i]);
        }
    }
}

TEST_F(SerializeTest, LoadedNetworkComputesSameOutputs)
{
    auto src = makeNet(21);
    ASSERT_TRUE(saveWeights(*src, path_).isOk());
    auto dst = makeNet(22);
    ASSERT_TRUE(loadWeights(*dst, path_).isOk());

    Tensor in(Shape(1, 1, 4, 4), 0.3f);
    Tensor a = src->forward(in);
    Tensor b = dst->forward(in);
    for (int64_t i = 0; i < a.elems(); ++i)
        EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST_F(SerializeTest, MissingFileReportsIoError)
{
    auto net = makeNet(1);
    Status s = loadWeights(*net, path_ + ".nope");
    EXPECT_EQ(s.code(), StatusCode::IoError);
}

TEST_F(SerializeTest, BadMagicRejected)
{
    std::ofstream os(path_, std::ios::binary);
    os << "NOTAWEIGHTFILE";
    os.close();
    auto net = makeNet(1);
    Status s = loadWeights(*net, path_);
    EXPECT_EQ(s.code(), StatusCode::ProtocolError);
}

TEST_F(SerializeTest, TruncatedFileRejected)
{
    auto src = makeNet(5);
    ASSERT_TRUE(saveWeights(*src, path_).isOk());
    // Truncate the file to half its size.
    std::ifstream is(path_, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    is.close();
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os.write(data.data(),
             static_cast<std::streamsize>(data.size() / 2));
    os.close();

    auto dst = makeNet(5);
    Status s = loadWeights(*dst, path_);
    EXPECT_FALSE(s.isOk());
}

TEST_F(SerializeTest, StructureMismatchRejected)
{
    auto src = makeNet(5);
    ASSERT_TRUE(saveWeights(*src, path_).isOk());

    auto other = parseNetDefOrDie(
        "name o\ninput 1 4 4\nlayer fc fc out 5\n");
    Status s = loadWeights(*other, path_);
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
    EXPECT_NE(s.message().find("layers"), std::string::npos);
}

TEST_F(SerializeTest, LayerNameMismatchRejected)
{
    auto src = makeNet(5);
    ASSERT_TRUE(saveWeights(*src, path_).isOk());

    auto other = parseNetDefOrDie(
        "name o\ninput 1 4 4\n"
        "layer convX conv out 2 kernel 3\n"
        "layer fc fc out 5\n");
    Status s = loadWeights(*other, path_);
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
    EXPECT_NE(s.message().find("name mismatch"),
              std::string::npos);
}

TEST_F(SerializeTest, ElementCountMismatchRejected)
{
    auto src = makeNet(5);
    ASSERT_TRUE(saveWeights(*src, path_).isOk());

    auto other = parseNetDefOrDie(
        "name o\ninput 1 4 4\n"
        "layer conv conv out 2 kernel 3\n"
        "layer fc fc out 6\n"); // 6 outputs instead of 5
    Status s = loadWeights(*other, path_);
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
}

TEST_F(SerializeTest, QuantizationTrailerRoundTrips)
{
    for (Precision p : {Precision::Bf16, Precision::Int8}) {
        SCOPED_TRACE(precisionName(p));
        auto src = makeNet(31);
        Tensor calib(Shape(2, 1, 4, 4), 0.25f);
        src->quantize(p, calib);
        ASSERT_EQ(src->precision(), p);
        ASSERT_TRUE(saveWeights(*src, path_).isOk());

        // An f32 load target picks up the QNT1 trailer: precision,
        // activation mappings, and weight scales all restored.
        auto dst = makeNet(77);
        ASSERT_TRUE(loadWeights(*dst, path_).isOk());
        ASSERT_EQ(dst->precision(), p);
        for (size_t l = 0; l < src->layerCount(); ++l) {
            ASSERT_EQ(dst->layer(l).precision(),
                      src->layer(l).precision())
                << "layer " << l;
            ASSERT_TRUE(dst->layer(l).quant().act ==
                        src->layer(l).quant().act)
                << "layer " << l;
            ASSERT_EQ(dst->layer(l).quant().weightScales,
                      src->layer(l).quant().weightScales)
                << "layer " << l;
        }

        Tensor in(Shape(1, 1, 4, 4), 0.3f);
        Tensor a = src->forward(in);
        Tensor b = dst->forward(in);
        for (int64_t i = 0; i < a.elems(); ++i)
            EXPECT_EQ(a[i], b[i]) << "output diverges at " << i;
    }
}

TEST_F(SerializeTest, PlainFileLoadsIntoF32)
{
    // A pre-quantization .djw (no trailer) must keep loading, and
    // leave the target at f32.
    auto src = makeNet(8);
    ASSERT_TRUE(saveWeights(*src, path_).isOk());
    auto dst = makeNet(9);
    ASSERT_TRUE(loadWeights(*dst, path_).isOk());
    EXPECT_EQ(dst->precision(), Precision::F32);
}

TEST_F(SerializeTest, CorruptQuantTrailerRejected)
{
    auto src = makeNet(13);
    Tensor calib(Shape(2, 1, 4, 4), 0.25f);
    src->quantize(Precision::Int8, calib);
    ASSERT_TRUE(saveWeights(*src, path_).isOk());

    // Flip the trailer tag: trailing garbage must not be silently
    // ignored as "no trailer".
    std::ifstream is(path_, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    is.close();
    size_t tag = data.rfind("QNT1");
    ASSERT_NE(tag, std::string::npos);
    data[tag] = 'X';
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os.write(data.data(),
             static_cast<std::streamsize>(data.size()));
    os.close();

    auto dst = makeNet(13);
    Status s = loadWeights(*dst, path_);
    EXPECT_EQ(s.code(), StatusCode::ProtocolError);
}

} // namespace
} // namespace nn
} // namespace djinn
