// Ensemble persistence. Two formats:
//
// Text v1 — line-oriented, diffable, hand-editable; the only format
// checked in:
//
//   spire-model v1
//   metric <perf-event-name> trained_on=<n> apex=<I> <P>
//   left <k> x0 y0 x1 y1 ... (knots; "left 0" when absent)
//   right <k> x0 y0 x1 y1 ... (piece corners; x of the last corner may be
//                              "inf"; pieces may be discontinuous)
//
// Binary v4 — the deployment image: the flattened serving tables plus a
// per-metric apex/trained_on record, opening with the magic line
// "spire-model-bin v4\n" (spire/model_bin.h has the wire layout).
// serve::MappedModel serves it zero-copy; bin::load_model_image rebuilds
// the Ensemble from it. The writer is serve::model_v3_bytes, the one
// flatten walk, so file tables equal in-memory tables by construction.
//
// Conversion between the two is lossless in both directions: text values
// are written with max precision (shortest-17 round-trips every double)
// and binary values are the raw bit patterns. Earlier binary versions (v2,
// v3) are not read; they are rejected with a message naming their version
// and saying to recompile from text.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "spire/ensemble.h"

namespace spire::model {

/// Format version this build reads and writes. Bump when the on-disk shape
/// changes; load_model rejects other versions with a message naming both,
/// and the lint `format-version` rule flags them statically.
inline constexpr int kModelFormatVersion = 1;

/// Exact first line of a model file ("spire-model v1").
inline constexpr std::string_view kModelHeader = "spire-model v1";

void save_model(const Ensemble& ensemble, std::ostream& out);

/// Throws std::runtime_error on malformed input or unknown metric names.
/// Hardened against adversarial files: region sizes are bounded before any
/// allocation, values must be finite except the documented trailing "inf"
/// right corner, and every error message carries the 1-based line number.
Ensemble load_model(std::istream& in);

/// Convenience file wrappers; throw std::runtime_error on I/O failure.
void save_model_file(const Ensemble& ensemble, const std::string& path);
Ensemble load_model_file(const std::string& path);

/// The one binary format version this build reads and writes.
inline constexpr int kModelBinFormatVersion = 4;

/// Exact leading bytes of a binary v4 image.
inline constexpr std::string_view kModelImageMagic = "spire-model-bin v4\n";

/// The binary sniff: N when `head` starts with "spire-model-bin vN\n" (N a
/// decimal without leading zeros), else 0. Any N, not just the one this
/// build reads, so a stale or future image is reported as binary.
int binary_model_version(std::string_view head);

/// binary_model_version of the leading bytes of `path`; 0 for text
/// models, missing files and short files.
int binary_model_file_version(const std::string& path);

/// The one message for a binary version this build does not read.
std::string unsupported_binary_version(int version);

/// Loads text v1 or binary v4, sniffing the leading bytes of the file. A
/// binary image is fully verified before the Ensemble is rebuilt.
Ensemble load_model_any_file(const std::string& path);

}  // namespace spire::model
