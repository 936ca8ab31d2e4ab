#include "tonic/audio.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace djinn {
namespace tonic {
namespace {

/**
 * Reference log-mel features through a direct-form real DFT of each
 * windowed frame: O(frames * nbins * frameLength), every twiddle
 * evaluated in place. filterbankFeatures must agree with it.
 */
nn::Tensor
directDftFeatures(const std::vector<float> &samples,
                  const FeatureConfig &config)
{
    int64_t frame_len = static_cast<int64_t>(
        config.frameLength * config.sampleRate);
    int64_t shift = static_cast<int64_t>(
        config.frameShift * config.sampleRate);
    int64_t frames = frameCount(
        static_cast<int64_t>(samples.size()), config);
    int64_t nfft = 1;
    while (nfft < frame_len)
        nfft <<= 1;
    int64_t nbins = nfft / 2 + 1;

    std::vector<double> window(static_cast<size_t>(frame_len));
    for (int64_t i = 0; i < frame_len; ++i) {
        window[i] = 0.54 - 0.46 * std::cos(2 * M_PI * i /
                                           (frame_len - 1));
    }
    auto hz_to_mel = [](double hz) {
        return 1127.0 * std::log(1.0 + hz / 700.0);
    };
    auto mel_to_hz = [](double mel) {
        return 700.0 * (std::exp(mel / 1127.0) - 1.0);
    };
    double mel_lo = hz_to_mel(20.0);
    double mel_hi = hz_to_mel(config.sampleRate / 2.0);
    std::vector<double> centers(
        static_cast<size_t>(config.melBins) + 2);
    for (int64_t m = 0; m < config.melBins + 2; ++m) {
        double mel = mel_lo + (mel_hi - mel_lo) * m /
                     (config.melBins + 1);
        centers[m] = mel_to_hz(mel) / (config.sampleRate / 2.0) *
                     (nbins - 1);
    }

    nn::Tensor features(nn::Shape(frames, config.melBins));
    std::vector<double> re(static_cast<size_t>(nbins));
    std::vector<double> im(static_cast<size_t>(nbins));
    std::vector<double> frame(static_cast<size_t>(frame_len));
    for (int64_t f = 0; f < frames; ++f) {
        const float *src = samples.data() + f * shift;
        frame[0] = src[0] * window[0];
        for (int64_t i = 1; i < frame_len; ++i) {
            frame[i] = (src[i] - config.preEmphasis * src[i - 1]) *
                       window[i];
        }
        for (int64_t k = 0; k < nbins; ++k) {
            double sr = 0.0, si = 0.0;
            double w = -2.0 * M_PI * k / nfft;
            for (int64_t i = 0; i < frame_len; ++i) {
                sr += frame[i] * std::cos(w * i);
                si += frame[i] * std::sin(w * i);
            }
            re[k] = sr;
            im[k] = si;
        }
        for (int64_t m = 0; m < config.melBins; ++m) {
            double left = centers[m];
            double center = centers[m + 1];
            double right = centers[m + 2];
            double acc = 0.0;
            int64_t k0 = std::max<int64_t>(
                static_cast<int64_t>(std::ceil(left)), 0);
            int64_t k1 = std::min<int64_t>(
                static_cast<int64_t>(std::floor(right)), nbins - 1);
            for (int64_t k = k0; k <= k1; ++k) {
                double weight = k <= center
                    ? (k - left) / std::max(center - left, 1e-9)
                    : (right - k) / std::max(right - center, 1e-9);
                weight = std::clamp(weight, 0.0, 1.0);
                acc += weight * (re[k] * re[k] + im[k] * im[k]);
            }
            features.at(f, m, 0, 0) =
                static_cast<float>(std::log(acc + 1e-10));
        }
    }
    return features;
}

/** Max |fft - direct| over every log-mel feature of @p samples. */
double
maxFftDeviation(const std::vector<float> &samples,
                const FeatureConfig &config)
{
    nn::Tensor fft = filterbankFeatures(samples, config);
    nn::Tensor direct = directDftFeatures(samples, config);
    EXPECT_EQ(fft.shape(), direct.shape());
    double worst = 0.0;
    for (int64_t i = 0; i < fft.elems(); ++i) {
        worst = std::max(
            worst, std::fabs(static_cast<double>(fft[i]) - direct[i]));
    }
    return worst;
}

/** @p seconds of a 0.5-amplitude sine at @p freq Hz. */
std::vector<float>
pureTone(double freq, double seconds, double sample_rate)
{
    std::vector<float> s(static_cast<size_t>(seconds * sample_rate));
    for (size_t i = 0; i < s.size(); ++i) {
        s[i] = static_cast<float>(
            0.5 * std::sin(2 * M_PI * freq * i / sample_rate));
    }
    return s;
}

TEST(Synthesize, UtteranceLengthMatchesDuration)
{
    Rng rng(1);
    auto samples = synthesizeUtterance(1.5, rng);
    EXPECT_EQ(samples.size(), 24000u);
}

TEST(Synthesize, UtteranceDeterministicPerSeed)
{
    Rng a(4), b(4);
    auto sa = synthesizeUtterance(0.2, a);
    auto sb = synthesizeUtterance(0.2, b);
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i)
        ASSERT_FLOAT_EQ(sa[i], sb[i]);
}

TEST(Synthesize, UtteranceBounded)
{
    Rng rng(2);
    auto samples = synthesizeUtterance(1.0, rng);
    for (float s : samples)
        ASSERT_LT(std::fabs(s), 2.0f);
}

TEST(Synthesize, NonPositiveDurationFatal)
{
    Rng rng(1);
    EXPECT_THROW(synthesizeUtterance(0.0, rng), FatalError);
}

TEST(FrameCount, StandardWindows)
{
    FeatureConfig config;
    // 1 second at 16 kHz, 25 ms frames, 10 ms shift: 98 frames.
    EXPECT_EQ(frameCount(16000, config), 98);
    // Shorter than a frame: none.
    EXPECT_EQ(frameCount(100, config), 0);
    // Exactly one frame.
    EXPECT_EQ(frameCount(400, config), 1);
}

TEST(Filterbank, OutputGeometry)
{
    FeatureConfig config;
    Rng rng(3);
    auto samples = synthesizeUtterance(0.5, rng);
    nn::Tensor features = filterbankFeatures(samples, config);
    EXPECT_EQ(features.shape().n(),
              frameCount(static_cast<int64_t>(samples.size()),
                         config));
    EXPECT_EQ(features.shape().c(), config.melBins);
}

TEST(Filterbank, FeaturesFiniteAndVarying)
{
    FeatureConfig config;
    Rng rng(5);
    auto samples = synthesizeUtterance(0.3, rng);
    nn::Tensor features = filterbankFeatures(samples, config);
    double lo = 1e30, hi = -1e30;
    for (int64_t i = 0; i < features.elems(); ++i) {
        ASSERT_TRUE(std::isfinite(features[i]));
        lo = std::min(lo, static_cast<double>(features[i]));
        hi = std::max(hi, static_cast<double>(features[i]));
    }
    EXPECT_GT(hi - lo, 1.0);
}

TEST(Filterbank, SilenceGivesLowEnergy)
{
    FeatureConfig config;
    std::vector<float> silence(8000, 0.0f);
    Rng rng(5);
    auto speech = synthesizeUtterance(0.5, rng);
    nn::Tensor fs = filterbankFeatures(silence, config);
    nn::Tensor fv = filterbankFeatures(speech, config);
    EXPECT_LT(fs.sum() / fs.elems(), fv.sum() / fv.elems());
}

TEST(Filterbank, ToneActivatesMatchingBand)
{
    FeatureConfig config;
    // A pure 1 kHz tone: the most energetic mel bin for the tone
    // should sit below the most energetic bin of a 4 kHz tone.
    auto tone = [&](double freq) {
        nn::Tensor f =
            filterbankFeatures(pureTone(freq, 0.5, 16000.0), config);
        // Use the middle frame.
        int64_t frame = f.shape().n() / 2;
        int64_t best = 0;
        for (int64_t m = 1; m < config.melBins; ++m) {
            if (f.at(frame, m, 0, 0) > f.at(frame, best, 0, 0))
                best = m;
        }
        return best;
    };
    EXPECT_LT(tone(500.0), tone(4000.0));
}

TEST(Filterbank, FftMatchesDirectDft)
{
    const double bound = 1e-5;
    FeatureConfig config;
    for (uint64_t seed : {1, 2, 3, 17}) {
        Rng rng(seed);
        EXPECT_LE(maxFftDeviation(synthesizeUtterance(0.3, rng),
                                  config),
                  bound)
            << "seed " << seed;
    }
    EXPECT_LE(maxFftDeviation(std::vector<float>(4000, 0.0f), config),
              bound);
    // Tones at exact centres of the 512-point transform's bins.
    for (int bin : {1, 37, 128, 255}) {
        EXPECT_LE(maxFftDeviation(pureTone(bin * 16000.0 / 512, 0.1,
                                           16000.0),
                                  config),
                  bound)
            << "bin " << bin;
    }

    // 8 kHz: 200-sample frames on a 256-point transform.
    FeatureConfig narrow;
    narrow.sampleRate = 8000.0;
    Rng rng(9);
    EXPECT_LE(maxFftDeviation(synthesizeUtterance(0.3, rng, 8000.0),
                              narrow),
              bound);
    EXPECT_LE(maxFftDeviation(pureTone(40 * 8000.0 / 256, 0.2, 8000.0),
                              narrow),
              bound);

    // A frame that already fills its transform (512 samples) and
    // one padded from 320 samples.
    for (double frame_length : {0.032, 0.020}) {
        FeatureConfig sized;
        sized.frameLength = frame_length;
        Rng srng(11);
        EXPECT_LE(maxFftDeviation(synthesizeUtterance(0.3, srng),
                                  sized),
                  bound)
            << "frameLength " << frame_length;
    }
}

TEST(Filterbank, TooShortUtteranceFatal)
{
    FeatureConfig config;
    std::vector<float> tiny(10, 0.0f);
    EXPECT_THROW(filterbankFeatures(tiny, config), FatalError);
}

TEST(Splice, WidthAndCenterCopy)
{
    nn::Tensor features(nn::Shape(10, 8));
    for (int64_t f = 0; f < 10; ++f) {
        for (int64_t d = 0; d < 8; ++d)
            features.at(f, d, 0, 0) = static_cast<float>(f * 100 +
                                                         d);
    }
    nn::Tensor spliced = spliceFrames(features, 2);
    EXPECT_EQ(spliced.shape(), nn::Shape(10, 40));
    // Center slot (offset 2) of frame 5 holds frame 5.
    for (int64_t d = 0; d < 8; ++d)
        EXPECT_FLOAT_EQ(spliced.sample(5)[2 * 8 + d],
                        features.at(5, d, 0, 0));
    // Left-most slot of frame 5 holds frame 3.
    for (int64_t d = 0; d < 8; ++d)
        EXPECT_FLOAT_EQ(spliced.sample(5)[d],
                        features.at(3, d, 0, 0));
}

TEST(Splice, EdgesClampToFirstAndLastFrames)
{
    nn::Tensor features(nn::Shape(4, 2));
    for (int64_t f = 0; f < 4; ++f) {
        features.at(f, 0, 0, 0) = static_cast<float>(f);
        features.at(f, 1, 0, 0) = static_cast<float>(f);
    }
    nn::Tensor spliced = spliceFrames(features, 3);
    // Frame 0's left context slots all clamp to frame 0.
    for (int64_t slot = 0; slot < 3; ++slot)
        EXPECT_FLOAT_EQ(spliced.sample(0)[slot * 2], 0.0f);
    // Frame 3's right context slots all clamp to frame 3.
    for (int64_t slot = 4; slot < 7; ++slot)
        EXPECT_FLOAT_EQ(spliced.sample(3)[slot * 2], 3.0f);
}

TEST(Splice, KaldiGeometryYields440Features)
{
    FeatureConfig config;
    Rng rng(6);
    auto samples = synthesizeUtterance(0.5, rng);
    nn::Tensor features = filterbankFeatures(samples, config);
    nn::Tensor spliced = spliceFrames(features,
                                      config.spliceContext);
    // 11-frame splice of 40 mel bins = the Kaldi net's 440 inputs.
    EXPECT_EQ(spliced.shape().sampleElems(), 440);
}

TEST(Splice, PaperQueryShape548Frames)
{
    // Table 3: one ASR query carries 548 feature vectors, which is
    // about 5.5 seconds of audio at a 10 ms shift.
    FeatureConfig config;
    int64_t samples_needed = static_cast<int64_t>(
        (547 * config.frameShift + config.frameLength) *
        config.sampleRate);
    EXPECT_EQ(frameCount(samples_needed, config), 548);
}

} // namespace
} // namespace tonic
} // namespace djinn
