/**
 * @file
 * Binary weight serialization so a DjiNN deployment loads pre-trained
 * model bytes (the paper ships pre-trained .caffemodel files; we ship
 * .djw files). Weights load before the first forward(), which seals
 * them (Layer::packWeights).
 *
 * Format: magic "DJW1", u32 layer count, then per layer: u32 name
 * length, name bytes, u32 param tensor count, and per tensor u64
 * element count followed by raw little-endian fp32 data. Lowered
 * networks (DESIGN.md §14) append a "QNT1" trailer carrying the
 * precision and per-layer quantization state; files without the
 * trailer load as f32.
 */

#ifndef DJINN_NN_SERIALIZE_HH
#define DJINN_NN_SERIALIZE_HH

#include <string>

#include "common/status.hh"
#include "nn/network.hh"

namespace djinn {
namespace nn {

/** Write all of @p net's parameters to @p path. */
Status saveWeights(const Network &net, const std::string &path);

/**
 * Load parameters into @p net from @p path. Layer names, tensor
 * counts, and element counts must all match the network's structure.
 */
Status loadWeights(Network &net, const std::string &path);

} // namespace nn
} // namespace djinn

#endif // DJINN_NN_SERIALIZE_HH
