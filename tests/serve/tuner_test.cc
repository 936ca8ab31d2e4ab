#include "serve/tuner.hh"

#include <gtest/gtest.h>

namespace djinn {
namespace serve {
namespace {

SimConfig
fastBase()
{
    SimConfig config;
    config.warmupTime = 0.1;
    config.measureTime = 0.5;
    return config;
}

TEST(Tuner, NlpTunesToLargeBatch)
{
    TunerResult result = tuneBatchSize(App::POS, fastBase());
    // The paper lands on 64; accept the 32-128 neighbourhood.
    EXPECT_GE(result.batch, 32);
    EXPECT_LE(result.batch, 128);
}

TEST(Tuner, AsrTunesToTinyBatch)
{
    TunerResult result = tuneBatchSize(App::ASR, fastBase());
    EXPECT_LE(result.batch, 2); // paper: 2
}

TEST(Tuner, FaceTunesToTinyBatch)
{
    TunerResult result = tuneBatchSize(App::FACE, fastBase());
    EXPECT_LE(result.batch, 4); // paper: 2
}

TEST(Tuner, SweepCoversAllCandidates)
{
    TunerResult result = tuneBatchSize(App::DIG, fastBase());
    ASSERT_EQ(result.sweep.size(), 8u);
    EXPECT_EQ(result.sweep[0].batch, 1);
    EXPECT_EQ(result.sweep[7].batch, 128);
    for (const auto &point : result.sweep)
        EXPECT_GT(point.throughputQps, 0.0);
}

TEST(Tuner, ChosenBatchIsAdmissible)
{
    TunerResult result = tuneBatchSize(App::IMC, fastBase());
    for (const auto &point : result.sweep) {
        if (point.batch == result.batch) {
            EXPECT_TRUE(point.admissible);
        }
    }
}

} // namespace
} // namespace serve
} // namespace djinn
