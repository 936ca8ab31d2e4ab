/**
 * @file
 * The seven end-to-end Tonic applications (paper Section 3.2). Each
 * application owns its pre-processing, issues a DjiNN inference
 * request through a client, and post-processes the returned
 * predictions. Per-phase wall-clock timings are recorded so the
 * DNN/non-DNN breakdown (paper Figure 4) can be measured on the
 * live system too.
 */

#ifndef DJINN_TONIC_APPS_HH
#define DJINN_TONIC_APPS_HH

#include <string>
#include <vector>

#include "common/status.hh"
#include "core/djinn_client.hh"
#include "core/model_registry.hh"
#include "tonic/image.hh"
#include "tonic/text.hh"

namespace djinn {
namespace tonic {

/** Wall-clock phase breakdown of one application query. */
struct PhaseTimes {
    double preprocess = 0.0;
    double service = 0.0;
    double postprocess = 0.0;

    double
    total() const
    {
        return preprocess + service + postprocess;
    }
};

/** Result of one end-to-end application query. */
struct AppOutput {
    /** Human-readable prediction. */
    std::string text;

    /** Predicted label indices (per input unit). */
    std::vector<int> labels;

    /** Phase timings for this query. */
    PhaseTimes times;
};

/**
 * Base class wiring an application to a DjiNN client. The client
 * must stay connected for the app's lifetime.
 */
class TonicApp
{
  public:
    /**
     * @param client a connected DjiNN client.
     * @param model the service model this app queries.
     */
    TonicApp(core::DjinnClient &client, std::string model);

    virtual ~TonicApp() = default;

    /** The service model name this application queries. */
    const std::string &model() const { return model_; }

  protected:
    /**
     * Issue the DNN service request and time it. A response that is
     * not exactly @p rows x @p width floats is an internal error, so
     * post-processing never reads past it.
     */
    Result<std::vector<float>> invoke(int64_t rows, int64_t width,
                                      const std::vector<float> &data,
                                      PhaseTimes &times);

    core::DjinnClient &client_;
    std::string model_;
};

/** Image classification over AlexNet (IMC). */
class ImcApp : public TonicApp
{
  public:
    explicit ImcApp(core::DjinnClient &client);

    /** Classify one image. */
    Result<AppOutput> classify(const Image &image);
};

/** Handwritten digit recognition over the MNIST CNN (DIG). */
class DigApp : public TonicApp
{
  public:
    explicit DigApp(core::DjinnClient &client);

    /** Recognize a batch of digit images (the paper sends 100). */
    Result<AppOutput> recognize(const std::vector<Image> &digits);
};

/** Facial recognition over DeepFace (FACE). */
class FaceApp : public TonicApp
{
  public:
    explicit FaceApp(core::DjinnClient &client);

    /** Identify the face in one image. */
    Result<AppOutput> identify(const Image &image);
};

/** Speech-to-text over the Kaldi acoustic model (ASR). */
class AsrApp : public TonicApp
{
  public:
    explicit AsrApp(core::DjinnClient &client);

    /**
     * Transcribe a mono 16 kHz waveform to a phone string via
     * filterbank features, the DNN service, and Viterbi decoding.
     */
    Result<AppOutput> transcribe(const std::vector<float> &samples);
};

/** Part-of-speech tagging over SENNA (POS). */
class PosApp : public TonicApp
{
  public:
    explicit PosApp(core::DjinnClient &client);

    /** Tag every token of a sentence. */
    Result<AppOutput> tag(const std::string &sentence);
};

/**
 * Word chunking over SENNA (CHK). Per the paper, CHK first makes an
 * internal POS service request, folds the POS tags into its
 * features, then issues its own DNN request.
 */
class ChkApp : public TonicApp
{
  public:
    explicit ChkApp(core::DjinnClient &client);

    /** Chunk a sentence into phrase segments. */
    Result<AppOutput> chunk(const std::string &sentence);

  private:
    PosApp pos_;
};

/** Named entity recognition over SENNA (NER). */
class NerApp : public TonicApp
{
  public:
    explicit NerApp(core::DjinnClient &client);

    /** Label every token with an entity category. */
    Result<AppOutput> recognize(const std::string &sentence);
};

/**
 * Register the full Tonic model set with a registry (the paper's
 * DjiNN initialization step).
 */
void registerTonicModels(core::ModelRegistry &registry,
                         uint64_t seed = 42);

} // namespace tonic
} // namespace djinn

#endif // DJINN_TONIC_APPS_HH
