#include "tonic/audio.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.hh"

namespace djinn {
namespace tonic {

namespace {

double
hzToMel(double hz)
{
    return 1127.0 * std::log(1.0 + hz / 700.0);
}

double
melToHz(double mel)
{
    return 700.0 * (std::exp(mel / 1127.0) - 1.0);
}

} // namespace

std::vector<float>
synthesizeUtterance(double seconds, Rng &rng, double sample_rate)
{
    if (seconds <= 0.0)
        fatal("synthesizeUtterance: non-positive duration %f",
              seconds);
    int64_t n = static_cast<int64_t>(seconds * sample_rate);
    std::vector<float> out(static_cast<size_t>(n));

    // Speech-like: a pitch contour with harmonics, amplitude
    // modulated into syllable-like bursts, plus breath noise.
    double f0 = rng.uniform(90.0, 220.0);
    double drift = rng.uniform(-20.0, 20.0);
    double syllable_rate = rng.uniform(3.0, 5.0);
    double phase[5] = {0, 0, 0, 0, 0};
    for (int64_t i = 0; i < n; ++i) {
        double t = static_cast<double>(i) / sample_rate;
        double pitch = f0 + drift * t +
                       10.0 * std::sin(2 * M_PI * 2.3 * t);
        double envelope =
            0.4 + 0.6 * std::pow(
                std::fabs(std::sin(M_PI * syllable_rate * t)), 2.0);
        double sample = 0.0;
        for (int h = 0; h < 5; ++h) {
            phase[h] += 2 * M_PI * pitch * (h + 1) / sample_rate;
            sample += std::sin(phase[h]) / (h + 1.5);
        }
        sample = sample * envelope * 0.25 +
                 0.02 * rng.gaussian();
        out[static_cast<size_t>(i)] = static_cast<float>(sample);
    }
    return out;
}

int64_t
frameCount(int64_t samples, const FeatureConfig &config)
{
    int64_t frame_len = static_cast<int64_t>(
        config.frameLength * config.sampleRate);
    int64_t shift = static_cast<int64_t>(
        config.frameShift * config.sampleRate);
    if (samples < frame_len)
        return 0;
    return (samples - frame_len) / shift + 1;
}

nn::Tensor
filterbankFeatures(const std::vector<float> &samples,
                   const FeatureConfig &config)
{
    int64_t frame_len = static_cast<int64_t>(
        config.frameLength * config.sampleRate);
    int64_t shift = static_cast<int64_t>(
        config.frameShift * config.sampleRate);
    int64_t frames = frameCount(
        static_cast<int64_t>(samples.size()), config);
    if (frames <= 0)
        fatal("filterbankFeatures: utterance shorter than one frame");

    // FFT length: next power of two >= frame length.
    int64_t nfft = 1;
    int bits = 0;
    while (nfft < frame_len) {
        nfft <<= 1;
        ++bits;
    }
    int64_t nbins = nfft / 2 + 1;

    // Precompute the Hamming window.
    std::vector<double> window(static_cast<size_t>(frame_len));
    for (int64_t i = 0; i < frame_len; ++i) {
        window[i] = 0.54 - 0.46 * std::cos(2 * M_PI * i /
                                           (frame_len - 1));
    }

    // Precompute the FFT's twiddles exp(-2*pi*i*j/nfft) and the
    // bit-reversal permutation its input is loaded through.
    std::vector<double> cos_tw(static_cast<size_t>(nfft / 2));
    std::vector<double> sin_tw(static_cast<size_t>(nfft / 2));
    for (int64_t j = 0; j < nfft / 2; ++j) {
        double w = -2.0 * M_PI * j / nfft;
        cos_tw[j] = std::cos(w);
        sin_tw[j] = std::sin(w);
    }
    std::vector<int64_t> reversed(static_cast<size_t>(nfft), 0);
    for (int64_t i = 0; i < nfft; ++i) {
        for (int b = 0; b < bits; ++b) {
            if (i & (int64_t{1} << b))
                reversed[i] |= int64_t{1} << (bits - 1 - b);
        }
    }

    // Precompute triangular mel filters over the power bins: filter
    // m weights bins [first[m], first[m] + weights[m].size()).
    double mel_lo = hzToMel(20.0);
    double mel_hi = hzToMel(config.sampleRate / 2.0);
    std::vector<double> centers(
        static_cast<size_t>(config.melBins) + 2);
    for (int64_t m = 0; m < config.melBins + 2; ++m) {
        double mel = mel_lo + (mel_hi - mel_lo) * m /
                     (config.melBins + 1);
        centers[m] = melToHz(mel) / (config.sampleRate / 2.0) *
                     (nbins - 1);
    }
    std::vector<int64_t> first(static_cast<size_t>(config.melBins));
    std::vector<std::vector<double>> weights(
        static_cast<size_t>(config.melBins));
    for (int64_t m = 0; m < config.melBins; ++m) {
        double left = centers[m];
        double center = centers[m + 1];
        double right = centers[m + 2];
        int64_t k0 = std::max<int64_t>(
            static_cast<int64_t>(std::ceil(left)), 0);
        int64_t k1 = std::min<int64_t>(
            static_cast<int64_t>(std::floor(right)), nbins - 1);
        first[m] = k0;
        for (int64_t k = k0; k <= k1; ++k) {
            double weight = k <= center
                ? (k - left) / std::max(center - left, 1e-9)
                : (right - k) / std::max(right - center, 1e-9);
            weights[m].push_back(std::clamp(weight, 0.0, 1.0));
        }
    }

    nn::Tensor features(nn::Shape(frames, config.melBins));

    std::vector<double> re(static_cast<size_t>(nfft));
    std::vector<double> im(static_cast<size_t>(nfft));
    std::vector<double> power(static_cast<size_t>(nbins));

    for (int64_t f = 0; f < frames; ++f) {
        const float *src = samples.data() + f * shift;
        // Pre-emphasis + window, zero-padded to nfft and loaded in
        // bit-reversed order.
        std::fill(re.begin(), re.end(), 0.0);
        std::fill(im.begin(), im.end(), 0.0);
        re[reversed[0]] = src[0] * window[0];
        for (int64_t i = 1; i < frame_len; ++i) {
            re[reversed[i]] =
                (src[i] - config.preEmphasis * src[i - 1]) *
                window[i];
        }
        // Iterative radix-2 FFT: log2(nfft) butterfly stages.
        for (int64_t len = 2; len <= nfft; len <<= 1) {
            int64_t half = len / 2;
            int64_t stride = nfft / len;
            for (int64_t base = 0; base < nfft; base += len) {
                for (int64_t j = 0; j < half; ++j) {
                    int64_t a = base + j;
                    int64_t b = a + half;
                    double wr = cos_tw[j * stride];
                    double wi = sin_tw[j * stride];
                    double vr = re[b] * wr - im[b] * wi;
                    double vi = re[b] * wi + im[b] * wr;
                    re[b] = re[a] - vr;
                    im[b] = im[a] - vi;
                    re[a] += vr;
                    im[a] += vi;
                }
            }
        }
        for (int64_t k = 0; k < nbins; ++k)
            power[k] = re[k] * re[k] + im[k] * im[k];
        // Mel filterbank over the power spectrum, log compressed.
        for (int64_t m = 0; m < config.melBins; ++m) {
            double acc = 0.0;
            for (size_t k = 0; k < weights[m].size(); ++k)
                acc += weights[m][k] * power[first[m] + k];
            features.at(f, m, 0, 0) =
                static_cast<float>(std::log(acc + 1e-10));
        }
    }
    return features;
}

nn::Tensor
spliceFrames(const nn::Tensor &features, int64_t splice_context)
{
    int64_t frames = features.shape().n();
    int64_t dims = features.shape().sampleElems();
    int64_t width = 2 * splice_context + 1;
    nn::Tensor out(nn::Shape(frames, width * dims));
    for (int64_t f = 0; f < frames; ++f) {
        for (int64_t c = -splice_context; c <= splice_context; ++c) {
            int64_t src = std::clamp<int64_t>(f + c, 0, frames - 1);
            std::memcpy(
                out.sample(f) + (c + splice_context) * dims,
                features.sample(src),
                static_cast<size_t>(dims) * sizeof(float));
        }
    }
    return out;
}

} // namespace tonic
} // namespace djinn
