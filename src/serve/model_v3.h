// Binary model image writer (format v4; the file and function names
// predate it and are kept for the benchmark that includes them).
//
// Lives in serve (not spire/model_io) on purpose: the tables an image
// holds are DEFINED as the serving tables, and this writer is the one
// place an ensemble is flattened into them. serve::MappedModel serves
// either a file this writer produced or the same bytes kept in memory
// (MappedModel::compile), so file tables equal in-memory tables by
// construction — there is no second flattening implementation to drift.
//
// Readers: model::bin::load_model_image (rebuilds the Ensemble) and
// serve::MappedModel (zero-copy mmap).
#pragma once

#include <string>

#include "spire/ensemble.h"

namespace spire::serve {

/// The complete v4 image for `ensemble`, as bytes. Deterministic: the
/// same ensemble always serializes to the same bytes (which is what makes
/// fnv1a64 content addressing in the registry meaningful).
std::string model_v3_bytes(const model::Ensemble& ensemble);

/// Writes the v4 image to `path`. Throws std::runtime_error on I/O
/// failure.
void save_model_v3_file(const model::Ensemble& ensemble,
                        const std::string& path);

}  // namespace spire::serve
