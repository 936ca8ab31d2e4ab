/**
 * @file
 * Audio front end for the ASR task: waveform synthesis plus a real
 * log-mel filterbank feature pipeline (pre-emphasis, framing,
 * Hamming window, zero-padded radix-2 FFT power spectrum, mel
 * filterbank, log compression, context splicing), the role Kaldi's
 * feature extraction plays in the paper's ASR preprocessing.
 */

#ifndef DJINN_TONIC_AUDIO_HH
#define DJINN_TONIC_AUDIO_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "nn/tensor.hh"

namespace djinn {
namespace tonic {

/** Feature pipeline configuration (Kaldi-style defaults). */
struct FeatureConfig {
    /** Input sample rate, Hz. */
    double sampleRate = 16000.0;

    /** Frame length, seconds (25 ms). */
    double frameLength = 0.025;

    /** Frame shift, seconds (10 ms). */
    double frameShift = 0.010;

    /** Mel filterbank size. */
    int64_t melBins = 40;

    /** Pre-emphasis coefficient. */
    double preEmphasis = 0.97;

    /** Context frames spliced on each side (11-frame window). */
    int64_t spliceContext = 5;
};

/**
 * Synthesize @p seconds of deterministic speech-like audio: a
 * wandering fundamental with harmonics and noise bursts.
 */
std::vector<float> synthesizeUtterance(double seconds, Rng &rng,
                                       double sample_rate = 16000.0);

/**
 * Compute log-mel filterbank features. Each frame is transformed by
 * an iterative radix-2 FFT over the frame zero-padded to the next
 * power of two, so one utterance costs O(frames * nfft log nfft).
 *
 * @param samples mono waveform.
 * @param config pipeline parameters.
 * @return (frames x melBins) feature matrix as a Tensor with shape
 *         (frames, melBins, 1, 1).
 */
nn::Tensor filterbankFeatures(const std::vector<float> &samples,
                              const FeatureConfig &config);

/**
 * Splice each frame with +/- spliceContext neighbours (edges
 * clamped), producing the (frames x (2*ctx+1)*melBins) input the
 * acoustic model consumes.
 */
nn::Tensor spliceFrames(const nn::Tensor &features,
                        int64_t splice_context);

/** Number of frames the pipeline yields for a sample count. */
int64_t frameCount(int64_t samples, const FeatureConfig &config);

} // namespace tonic
} // namespace djinn

#endif // DJINN_TONIC_AUDIO_HH
