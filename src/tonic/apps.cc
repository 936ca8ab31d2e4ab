#include "tonic/apps.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>

#include "common/logging.hh"
#include "tonic/audio.hh"
#include "tonic/labels.hh"
#include "tonic/viterbi.hh"

namespace djinn {
namespace tonic {

namespace {

double
nowSeconds()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
        Clock::now().time_since_epoch()).count();
}

/** Argmax of one row of a flat (rows x dim) score matrix. */
int
rowArgmax(const std::vector<float> &data, int64_t row, int64_t dim)
{
    const float *base = data.data() + row * dim;
    return static_cast<int>(
        std::max_element(base, base + dim) - base);
}

/** Wrap a flat (rows x dim) score matrix into a tensor. */
nn::Tensor
toScoreTensor(const std::vector<float> &data, int64_t rows,
              int64_t dim)
{
    nn::Tensor t(nn::Shape(rows, dim));
    std::memcpy(t.data(), data.data(), t.elems() * sizeof(float));
    return t;
}

/** Senone outputs of the Kaldi acoustic model per frame. */
constexpr int64_t kSenones = 4000;

} // namespace

TonicApp::TonicApp(core::DjinnClient &client, std::string model)
    : client_(client), model_(std::move(model))
{}

Result<std::vector<float>>
TonicApp::invoke(int64_t rows, int64_t width,
                 const std::vector<float> &data, PhaseTimes &times)
{
    double start = nowSeconds();
    auto result = client_.infer(model_, rows, data);
    times.service += nowSeconds() - start;
    if (result.isOk() &&
        static_cast<int64_t>(result.value().size()) != rows * width) {
        return Status::internal(strprintf(
            "%s returned %zu outputs, expected %lld rows x %lld",
            model_.c_str(), result.value().size(),
            static_cast<long long>(rows),
            static_cast<long long>(width)));
    }
    return result;
}

// IMC ---------------------------------------------------------------

ImcApp::ImcApp(core::DjinnClient &client)
    : TonicApp(client, "alexnet")
{}

Result<AppOutput>
ImcApp::classify(const Image &image)
{
    AppOutput out;
    double start = nowSeconds();
    Image scaled = resize(image, 227, 227);
    nn::Tensor input = toTensor(scaled, 118.0f);
    std::vector<float> data(input.data(),
                            input.data() + input.elems());
    out.times.preprocess = nowSeconds() - start;

    auto result = invoke(1, 1000, data, out.times);
    if (!result.isOk())
        return result.status();

    start = nowSeconds();
    const auto &probs = result.value();
    int best = rowArgmax(probs, 0, 1000);
    out.labels.push_back(best);
    out.text = strprintf("%s (p=%.3f)",
                         imagenetClassName(best).c_str(),
                         probs[best]);
    out.times.postprocess = nowSeconds() - start;
    return out;
}

// DIG ---------------------------------------------------------------

DigApp::DigApp(core::DjinnClient &client)
    : TonicApp(client, "mnist")
{}

Result<AppOutput>
DigApp::recognize(const std::vector<Image> &digits)
{
    if (digits.empty())
        return Status::invalidArgument("no digit images");
    AppOutput out;
    double start = nowSeconds();
    std::vector<float> data;
    data.reserve(digits.size() * 28 * 28);
    for (const Image &digit : digits) {
        if (digit.width != 28 || digit.height != 28 ||
            digit.channels != 1) {
            return Status::invalidArgument(
                "digit images must be 28x28 grayscale");
        }
        for (uint8_t p : digit.pixels)
            data.push_back(static_cast<float>(p) / 255.0f);
    }
    out.times.preprocess = nowSeconds() - start;

    auto result = invoke(static_cast<int64_t>(digits.size()), 10,
                         data, out.times);
    if (!result.isOk())
        return result.status();

    start = nowSeconds();
    const auto &logits = result.value();
    for (size_t i = 0; i < digits.size(); ++i) {
        int best = rowArgmax(logits, static_cast<int64_t>(i), 10);
        out.labels.push_back(best);
        out.text += static_cast<char>('0' + best);
    }
    out.times.postprocess = nowSeconds() - start;
    return out;
}

// FACE --------------------------------------------------------------

FaceApp::FaceApp(core::DjinnClient &client)
    : TonicApp(client, "deepface")
{}

Result<AppOutput>
FaceApp::identify(const Image &image)
{
    AppOutput out;
    double start = nowSeconds();
    Image scaled = resize(image, 152, 152);
    nn::Tensor input = toTensor(scaled, 128.0f);
    std::vector<float> data(input.data(),
                            input.data() + input.elems());
    out.times.preprocess = nowSeconds() - start;

    auto result = invoke(1, 83, data, out.times);
    if (!result.isOk())
        return result.status();

    start = nowSeconds();
    int best = rowArgmax(result.value(), 0, 83);
    out.labels.push_back(best);
    out.text = celebrityName(best);
    out.times.postprocess = nowSeconds() - start;
    return out;
}

// ASR ---------------------------------------------------------------

AsrApp::AsrApp(core::DjinnClient &client)
    : TonicApp(client, "kaldi_asr")
{}

Result<AppOutput>
AsrApp::transcribe(const std::vector<float> &samples)
{
    AppOutput out;
    double start = nowSeconds();
    FeatureConfig config;
    nn::Tensor features = filterbankFeatures(samples, config);
    nn::Tensor spliced = spliceFrames(features,
                                      config.spliceContext);
    int64_t frames = spliced.shape().n();
    std::vector<float> data(spliced.data(),
                            spliced.data() + spliced.elems());
    out.times.preprocess = nowSeconds() - start;

    auto result = invoke(frames, kSenones, data, out.times);
    if (!result.isOk())
        return result.status();

    start = nowSeconds();
    // Fold the senone activations down to the 40-phone inventory
    // (senone s belongs to phone s % 40), one 40-wide stride of the
    // row at a time, then Viterbi with a self-loop bonus and run
    // collapsing.
    const auto &senones = result.value();
    int64_t phones = static_cast<int64_t>(phoneNames().size());
    nn::Tensor phone_scores(nn::Shape(frames, phones),
                            -1e30f);
    for (int64_t f = 0; f < frames; ++f) {
        const float *row = senones.data() + f * kSenones;
        float *dst = phone_scores.sample(f);
        for (int64_t base = 0; base < kSenones; base += phones) {
            int64_t width = std::min(phones, kSenones - base);
            for (int64_t p = 0; p < width; ++p)
                dst[p] = std::max(dst[p], row[base + p]);
        }
    }
    auto transitions = selfLoopTransitions(phones, 2.0f);
    auto path = viterbiDecode(phone_scores, transitions);
    auto collapsed = collapseRuns(path);
    for (size_t i = 0; i < collapsed.size(); ++i) {
        if (i)
            out.text += ' ';
        out.text += phoneNames()[collapsed[i]];
        out.labels.push_back(collapsed[i]);
    }
    out.times.postprocess = nowSeconds() - start;
    return out;
}

// NLP helpers --------------------------------------------------------

namespace {

/** TonicApp::invoke, bound to the calling app. */
using InvokeFn = std::function<Result<std::vector<float>>(
    int64_t, int64_t, const std::vector<float> &, PhaseTimes &)>;

/**
 * Shared NLP flow: window features -> service -> Viterbi over the
 * tag scores (flat transitions).
 */
Result<AppOutput>
tagSentence(const std::string &sentence,
            const std::vector<std::string> &tag_names,
            const std::vector<int> *aux_tags, PhaseTimes seed_times,
            const InvokeFn &invoke)
{
    AppOutput out;
    out.times = seed_times;
    double start = nowSeconds();
    auto tokens = tokenize(sentence);
    if (tokens.empty())
        return Status::invalidArgument("empty sentence");
    TextConfig config;
    nn::Tensor features = aux_tags
        ? windowFeaturesWithTags(tokens, *aux_tags, config)
        : windowFeatures(tokens, config);
    int64_t rows = features.shape().n();
    std::vector<float> data(features.data(),
                            features.data() + features.elems());
    out.times.preprocess += nowSeconds() - start;

    int64_t tags = static_cast<int64_t>(tag_names.size());
    auto result = invoke(rows, tags, data, out.times);
    if (!result.isOk())
        return result.status();

    start = nowSeconds();
    nn::Tensor scores = toScoreTensor(result.value(), rows, tags);
    std::vector<float> transitions(
        static_cast<size_t>(tags * tags), 0.0f);
    auto path = viterbiDecode(scores, transitions);
    for (size_t i = 0; i < path.size(); ++i) {
        if (i)
            out.text += ' ';
        out.text += tokens[i] + "/" + tag_names[path[i]];
        out.labels.push_back(path[i]);
    }
    out.times.postprocess += nowSeconds() - start;
    return out;
}

} // namespace

// POS ---------------------------------------------------------------

PosApp::PosApp(core::DjinnClient &client)
    : TonicApp(client, "senna_pos")
{}

Result<AppOutput>
PosApp::tag(const std::string &sentence)
{
    return tagSentence(
        sentence, posTagNames(), nullptr, PhaseTimes{},
        [this](int64_t rows, int64_t width,
               const std::vector<float> &data, PhaseTimes &times) {
            return invoke(rows, width, data, times);
        });
}

// CHK ---------------------------------------------------------------

ChkApp::ChkApp(core::DjinnClient &client)
    : TonicApp(client, "senna_chk"), pos_(client)
{}

Result<AppOutput>
ChkApp::chunk(const std::string &sentence)
{
    // Internal POS request first (paper Section 3.2.3).
    auto pos_result = pos_.tag(sentence);
    if (!pos_result.isOk())
        return pos_result.status();
    const AppOutput &pos_out = pos_result.value();

    return tagSentence(
        sentence, chunkTagNames(), &pos_out.labels, pos_out.times,
        [this](int64_t rows, int64_t width,
               const std::vector<float> &data, PhaseTimes &times) {
            return invoke(rows, width, data, times);
        });
}

// NER ---------------------------------------------------------------

NerApp::NerApp(core::DjinnClient &client)
    : TonicApp(client, "senna_ner")
{}

Result<AppOutput>
NerApp::recognize(const std::string &sentence)
{
    return tagSentence(
        sentence, nerTagNames(), nullptr, PhaseTimes{},
        [this](int64_t rows, int64_t width,
               const std::vector<float> &data, PhaseTimes &times) {
            return invoke(rows, width, data, times);
        });
}

void
registerTonicModels(core::ModelRegistry &registry, uint64_t seed)
{
    for (nn::zoo::Model model : nn::zoo::allModels()) {
        Status s = registry.addZooModel(model, seed);
        if (!s.isOk())
            fatal("registerTonicModels: %s", s.toString().c_str());
    }
}

} // namespace tonic
} // namespace djinn
