#include "nn/quant.hh"

#include <algorithm>

#include "common/logging.hh"

namespace djinn {
namespace nn {

const char *
precisionName(Precision p)
{
    switch (p) {
      case Precision::F32: return "f32";
      case Precision::Bf16: return "bf16";
      case Precision::Int8: return "int8";
    }
    return "unknown";
}

Precision
precisionFromName(const std::string &name)
{
    if (name == "f32" || name == "fp32" || name == "float")
        return Precision::F32;
    if (name == "bf16" || name == "bfloat16")
        return Precision::Bf16;
    if (name == "int8" || name == "s8")
        return Precision::Int8;
    fatal("unknown precision '%s' (expected f32, bf16, or int8)",
          name.c_str());
}

QuantParams
QuantParams::symmetricS8(float maxAbs)
{
    QuantParams p;
    p.scale = maxAbs > 0.0f ? maxAbs / 127.0f : 1.0f;
    p.zeroPoint = 0;
    p.qmin = -127;
    p.qmax = 127;
    return p;
}

namespace {

/** Affine mapping over [lo, hi] onto integer codes [qmin, qmax]. */
QuantParams
affine(float lo, float hi, int32_t qmin, int32_t qmax)
{
    // Widen the range to include 0 so real zero (and conv padding)
    // is exactly representable, and guard against a degenerate
    // single-value range.
    lo = std::min(lo, 0.0f);
    hi = std::max(hi, 0.0f);
    // The span is computed in double: a range calibrated near
    // ±FLT_MAX would overflow hi - lo in float and poison the scale
    // with inf.
    double span = static_cast<double>(hi) - static_cast<double>(lo);
    if (span <= 0.0) {
        QuantParams p;
        p.scale = 1.0f;
        p.zeroPoint = qmin;
        p.qmin = qmin;
        p.qmax = qmax;
        return p;
    }
    QuantParams p;
    p.qmin = qmin;
    p.qmax = qmax;
    p.scale =
        static_cast<float>(span / static_cast<double>(qmax - qmin));
    // The zero point is the code real zero maps to; rounding keeps
    // it an integer so zero round-trips exactly.
    float zp = static_cast<float>(qmin) - lo / p.scale;
    p.zeroPoint = static_cast<int32_t>(std::lround(
        std::min(std::max(zp, static_cast<float>(qmin)),
                 static_cast<float>(qmax))));
    return p;
}

} // namespace

QuantParams
QuantParams::affineU8(float lo, float hi)
{
    return affine(lo, hi, 0, 255);
}

QuantParams
QuantParams::affineS8(float lo, float hi)
{
    return affine(lo, hi, -128, 127);
}

void
minMax(const float *data, int64_t n, float *lo, float *hi)
{
    if (n <= 0) {
        *lo = 0.0f;
        *hi = 0.0f;
        return;
    }
    float mn = data[0];
    float mx = data[0];
    for (int64_t i = 1; i < n; ++i) {
        mn = std::min(mn, data[i]);
        mx = std::max(mx, data[i]);
    }
    *lo = mn;
    *hi = mx;
}

float
maxAbs(const float *data, int64_t n)
{
    float m = 0.0f;
    for (int64_t i = 0; i < n; ++i)
        m = std::max(m, std::fabs(data[i]));
    return m;
}

std::vector<float>
channelScales(const float *w, int64_t rows, int64_t cols)
{
    std::vector<float> scales(static_cast<size_t>(rows));
    for (int64_t r = 0; r < rows; ++r) {
        scales[static_cast<size_t>(r)] =
            QuantParams::symmetricS8(maxAbs(w + r * cols, cols)).scale;
    }
    return scales;
}

} // namespace nn
} // namespace djinn
