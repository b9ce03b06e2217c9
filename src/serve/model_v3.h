// Binary model format v3 writer.
//
// Lives in serve (not spire/model_io) on purpose: the flat tables a v3
// artifact appends are DEFINED as the serving tables, and this writer is
// the one place an ensemble is flattened into them. serve::MappedModel
// serves either a file this writer produced or the same bytes kept in
// memory (MappedModel::compile), so file tables equal in-memory tables by
// construction — there is no second flattening implementation to drift.
// The v2-compatible prefix is produced by model::append_model_bin_body,
// byte-identical to a v2 file of the same ensemble, so v2-era readers'
// stream path keeps working.
//
// Readers: model::load_model_bin (stream deserialize, any host) and
// serve::MappedModel (zero-copy mmap, little-endian hosts).
#pragma once

#include <string>

#include "spire/ensemble.h"

namespace spire::serve {

/// The complete v3 artifact for `ensemble`, as bytes. Deterministic: the
/// same ensemble always serializes to the same bytes (which is what makes
/// fnv1a64 content addressing in the registry meaningful).
std::string model_v3_bytes(const model::Ensemble& ensemble);

/// Writes the v3 artifact to `path`. Throws std::runtime_error on I/O
/// failure.
void save_model_v3_file(const model::Ensemble& ensemble,
                        const std::string& path);

}  // namespace spire::serve
