/**
 * @file
 * End-to-end Tonic application tests: a live DjiNN server on
 * loopback serving the full model set, driven by each of the seven
 * applications. The DIG/NLP tests run at full query shape; the
 * heavier image/ASR tests use reduced inputs to stay fast.
 */

#include "tonic/apps.hh"

#include <gtest/gtest.h>

#include <memory>

#include "common/logging.hh"
#include "core/djinn_server.hh"
#include "nn/init.hh"
#include "nn/net_def.hh"
#include "tonic/audio.hh"
#include "tonic/labels.hh"
#include "tonic/text.hh"

namespace djinn {
namespace tonic {
namespace {

/** One registry + server + client shared by the whole suite. */
class AppsTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        registry_ = new core::ModelRegistry();
        registerTonicModels(*registry_, 42);
        core::ServerConfig config;
        server_ = new core::DjinnServer(*registry_, config);
        ASSERT_TRUE(server_->start().isOk());
    }

    static void
    TearDownTestSuite()
    {
        delete server_;
        delete registry_;
        server_ = nullptr;
        registry_ = nullptr;
    }

    void
    SetUp() override
    {
        ASSERT_TRUE(
            client_.connect("127.0.0.1", server_->port()).isOk());
    }

    core::DjinnClient client_;
    static core::ModelRegistry *registry_;
    static core::DjinnServer *server_;
};

core::ModelRegistry *AppsTest::registry_ = nullptr;
core::DjinnServer *AppsTest::server_ = nullptr;

TEST_F(AppsTest, RegistryHoldsAllSevenModelsWorth)
{
    // Five distinct networks back the seven applications.
    EXPECT_EQ(registry_->size(), 7u);
    EXPECT_NE(registry_->find("alexnet"), nullptr);
    EXPECT_NE(registry_->find("senna_ner"), nullptr);
    // Weights resident once, shared by all workers: roughly the
    // sum of Table 1's parameter counts (~213M params).
    EXPECT_GT(registry_->totalWeightBytes(), 700e6);
    EXPECT_LT(registry_->totalWeightBytes(), 1100e6);
}

TEST_F(AppsTest, DigRecognizesBatchOf100)
{
    DigApp app(client_);
    Rng rng(7);
    std::vector<Image> digits;
    for (int i = 0; i < 100; ++i)
        digits.push_back(synthesizeDigit(i % 10, rng));
    auto result = app.recognize(digits);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    const AppOutput &out = result.value();
    EXPECT_EQ(out.labels.size(), 100u);
    EXPECT_EQ(out.text.size(), 100u);
    for (int label : out.labels) {
        EXPECT_GE(label, 0);
        EXPECT_LE(label, 9);
    }
    EXPECT_GT(out.times.service, 0.0);
}

TEST_F(AppsTest, DigRejectsWrongGeometry)
{
    DigApp app(client_);
    Rng rng(7);
    std::vector<Image> bad{synthesizePhoto(32, 32, 1, rng)};
    EXPECT_FALSE(app.recognize(bad).isOk());
    EXPECT_FALSE(app.recognize({}).isOk());
}

TEST_F(AppsTest, PosTagsEveryToken)
{
    PosApp app(client_);
    auto result = app.tag("the quick brown fox jumps over the "
                          "lazy dog");
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    const AppOutput &out = result.value();
    EXPECT_EQ(out.labels.size(), 9u);
    for (int tag : out.labels) {
        EXPECT_GE(tag, 0);
        EXPECT_LT(tag, static_cast<int>(posTagNames().size()));
    }
    // Output format "word/TAG word/TAG ...".
    EXPECT_NE(out.text.find("fox/"), std::string::npos);
}

TEST_F(AppsTest, PosDeterministicAcrossCalls)
{
    PosApp app(client_);
    auto a = app.tag("servers process queries");
    auto b = app.tag("servers process queries");
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    EXPECT_EQ(a.value().labels, b.value().labels);
}

TEST_F(AppsTest, PosRejectsEmptySentence)
{
    PosApp app(client_);
    EXPECT_FALSE(app.tag("").isOk());
    EXPECT_FALSE(app.tag("   ").isOk());
}

TEST_F(AppsTest, ChkIssuesInternalPosRequestFirst)
{
    uint64_t before = server_->requestsServed();
    ChkApp app(client_);
    auto result = app.chunk("engineers design large systems");
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    // Two service requests: one POS, one CHK (paper Section 3.2.3).
    EXPECT_EQ(server_->requestsServed() - before, 2u);
    for (int tag : result.value().labels) {
        EXPECT_GE(tag, 0);
        EXPECT_LT(tag, static_cast<int>(chunkTagNames().size()));
    }
}

TEST_F(AppsTest, ChkDependsOnPosTags)
{
    // CHK features fold POS tags in, so its DNN request payload
    // differs from a plain POS request payload for the same text.
    ChkApp app(client_);
    auto result = app.chunk("the dog runs");
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value().labels.size(), 3u);
}

TEST_F(AppsTest, NerLabelsEveryToken)
{
    NerApp app(client_);
    auto result = app.recognize("john visited paris on monday");
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_EQ(result.value().labels.size(), 5u);
    for (int tag : result.value().labels) {
        EXPECT_GE(tag, 0);
        EXPECT_LT(tag, static_cast<int>(nerTagNames().size()));
    }
}

TEST_F(AppsTest, ImcClassifiesSyntheticPhoto)
{
    ImcApp app(client_);
    Rng rng(11);
    Image photo = synthesizePhoto(320, 240, 3, rng);
    auto result = app.classify(photo);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    const AppOutput &out = result.value();
    ASSERT_EQ(out.labels.size(), 1u);
    EXPECT_GE(out.labels[0], 0);
    EXPECT_LT(out.labels[0], 1000);
    EXPECT_NE(out.text.find("synset_"), std::string::npos);
    EXPECT_GT(out.times.service, 0.0);
}

TEST_F(AppsTest, FaceIdentifiesSyntheticPhoto)
{
    FaceApp app(client_);
    Rng rng(13);
    Image photo = synthesizePhoto(200, 200, 3, rng);
    auto result = app.identify(photo);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    ASSERT_EQ(result.value().labels.size(), 1u);
    EXPECT_GE(result.value().labels[0], 0);
    EXPECT_LT(result.value().labels[0], 83);
    EXPECT_NE(result.value().text.find("celebrity_"),
              std::string::npos);
}

TEST_F(AppsTest, AsrTranscribesShortUtterance)
{
    AsrApp app(client_);
    Rng rng(17);
    // Half a second keeps the pure-C++ 30M-param forward pass fast
    // enough for a unit test; the full 5.5 s query shape is
    // exercised by the benchmarks.
    auto samples = synthesizeUtterance(0.5, rng);
    auto result = app.transcribe(samples);
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    const AppOutput &out = result.value();
    // The sigmoid-stack zoo net with seeded weights settles on one
    // phone for this utterance.
    EXPECT_EQ(out.labels, std::vector<int>({11}));
    EXPECT_EQ(out.text, "er");
    EXPECT_GT(out.times.preprocess, 0.0);
    EXPECT_GT(out.times.postprocess, 0.0);
}

TEST_F(AppsTest, PhaseTimesSumToTotal)
{
    PosApp app(client_);
    auto result = app.tag("quick check");
    ASSERT_TRUE(result.isOk());
    const PhaseTimes &t = result.value().times;
    EXPECT_NEAR(t.total(),
                t.preprocess + t.service + t.postprocess, 1e-12);
}

/**
 * A loopback server over its own registry of small nets: each is
 * "name <name>, input <input>", an optional <pool> x <pool> max pool
 * to keep image inputs cheap, then one fc layer of <out> outputs.
 */
struct NetServer {
    struct Net {
        const char *name;
        const char *input;
        int out;
        int pool = 1;
    };

    explicit NetServer(const std::vector<Net> &nets)
    {
        for (const Net &n : nets) {
            std::string def =
                strprintf("name %s\ninput %s\n", n.name, n.input);
            if (n.pool > 1) {
                def += strprintf("layer pool maxpool kernel %d "
                                 "stride %d\n",
                                 n.pool, n.pool);
            }
            def += strprintf("layer fc fc out %d\n", n.out);
            auto net = nn::parseNetDefOrDie(def);
            nn::initializeWeights(*net, 3);
            EXPECT_TRUE(registry.add(std::move(net)).isOk());
        }
        server = std::make_unique<core::DjinnServer>(
            registry, core::ServerConfig{});
        EXPECT_TRUE(server->start().isOk());
        EXPECT_TRUE(
            client.connect("127.0.0.1", server->port()).isOk());
    }

    // Declared in teardown order: the client goes first, the
    // registry outlives the server serving it.
    core::ModelRegistry registry;
    std::unique_ptr<core::DjinnServer> server;
    core::DjinnClient client;
};

TEST(AsrPipeline, TranscriptPinnedThroughLinearNet)
{
    // One linear 440 -> 4000 layer keeps the senone scores tracking
    // the log-mel features, so the phone sequence moves with any
    // change to the FFT front end or the senone fold.
    NetServer served({{"kaldi_asr", "440 1 1", 4000}});
    AsrApp app(served.client);
    Rng rng(17);
    auto result = app.transcribe(synthesizeUtterance(0.5, rng));
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_EQ(result.value().labels,
              std::vector<int>({12, 18, 12, 4, 32, 2, 12}));
    EXPECT_EQ(result.value().text, "ey jh ey aw uh ah ey");
}

TEST(WrongWidth, EveryAppRejectsAMisSizedResponse)
{
    // Each net answers with a row width its app does not expect,
    // narrower or wider; every app must fail rather than read past
    // the response or into a too-small score matrix.
    for (int delta : {-1, 1}) {
        NetServer served({{"alexnet", "3 227 227", 1000 + delta, 8},
                          {"mnist", "1 28 28", 10 + delta},
                          {"deepface", "3 152 152", 83 + delta, 8},
                          {"kaldi_asr", "440 1 1", 4000 + delta},
                          {"senna_pos", "250 1 1", 45 + delta},
                          {"senna_ner", "250 1 1", 9 + delta}});
        SCOPED_TRACE(delta);
        Rng rng(5);
        Image photo = synthesizePhoto(64, 48, 3, rng);
        std::vector<Image> digits{synthesizeDigit(3, rng)};

        ImcApp imc(served.client);
        FaceApp face(served.client);
        DigApp dig(served.client);
        AsrApp asr(served.client);
        PosApp pos(served.client);
        NerApp ner(served.client);
        auto asr_out = asr.transcribe(synthesizeUtterance(0.1, rng));
        auto pos_out = pos.tag("the dog runs");
        EXPECT_FALSE(imc.classify(photo).isOk());
        EXPECT_FALSE(face.identify(photo).isOk());
        EXPECT_FALSE(dig.recognize(digits).isOk());
        ASSERT_FALSE(asr_out.isOk());
        EXPECT_EQ(asr_out.status().code(), StatusCode::Internal);
        ASSERT_FALSE(pos_out.isOk());
        EXPECT_EQ(pos_out.status().code(), StatusCode::Internal);
        EXPECT_FALSE(ner.recognize("john visited paris").isOk());
    }
}

TEST(WrongWidth, ChkRejectsAMisSizedResponseAfterItsPosRequest)
{
    // POS answers correctly, so the failure is CHK's own check.
    NetServer served({{"senna_pos", "250 1 1", 45},
                      {"senna_chk", "250 1 1", 24}});
    ChkApp app(served.client);
    auto result = app.chunk("engineers design systems");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::Internal);
}

TEST(Labels, TagSetSizesMatchNetworks)
{
    EXPECT_EQ(posTagNames().size(), 45u);
    EXPECT_EQ(chunkTagNames().size(), 23u);
    EXPECT_EQ(nerTagNames().size(), 9u);
    EXPECT_EQ(phoneNames().size(), 40u);
}

TEST(Labels, SyntheticNames)
{
    EXPECT_EQ(imagenetClassName(7), "synset_0007");
    EXPECT_EQ(celebrityName(82), "celebrity_82");
    EXPECT_THROW(imagenetClassName(-1), FatalError);
}

} // namespace
} // namespace tonic
} // namespace djinn
