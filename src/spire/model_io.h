// Ensemble persistence. Two formats:
//
// Text v1 — line-oriented, diffable, hand-editable:
//
//   spire-model v1
//   metric <perf-event-name> trained_on=<n> apex=<I> <P>
//   left <k> x0 y0 x1 y1 ... (knots; "left 0" when absent)
//   right <k> x0 y0 x1 y1 ... (piece corners; x of the last corner may be
//                              "inf"; pieces may be discontinuous)
//
// Binary v2 — the compact deployment body (loads in one pass, no float
// parsing; serve::MappedModel::compile turns the loaded ensemble into a
// servable v3 image). Layout, all integers and IEEE-754 doubles
// little-endian fixed-width:
//
//   magic line  "spire-model-bin v2\n" (19 bytes, file(1)-friendly)
//   u32         metric section count
//   per metric section:
//     u32       section byte count (everything after this field; validated
//               against both a hard cap and the declared table sizes BEFORE
//               any allocation — a corrupt count can never balloon memory)
//     u32       metric name length, then the perf-style name bytes
//     u64       trained_on
//     f64 f64   apex intensity, apex throughput
//     u32 u32   left knot count, right piece count
//     f64 pairs left knots (x y)...
//     f64 quads right pieces (x0 y0 x1 y1)...
//
// Conversion between the two is lossless in both directions: text values
// are written with max precision (shortest-17 round-trips every double)
// and binary values are the raw bit patterns.
//
// Binary v3 — v2 plus an appended flattened-tables region laid out for
// zero-copy mmap serving (see spire/model_bin_v3.h for the wire layout and
// serve/mapped_model.h for the reader). load_model_bin accepts v2 and v3;
// for v3 it additionally validates the flat region (per-section CRCs,
// whole-file CRC, structural and semantic checks) and cross-checks the
// flat header's counts against the parsed metric sections, so a v3 file
// that stream-loads is also guaranteed mappable. The v3 WRITER lives in
// serve/model_v3.h: it is the one flatten walk, and serve::MappedModel
// serves its bytes from a file or from memory, which makes file tables
// equal compiled tables by construction.
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

/// Binary format version this build reads and writes.
inline constexpr int kModelBinFormatVersion = 2;

/// Exact leading bytes of a binary v2 model file.
inline constexpr std::string_view kModelBinMagic = "spire-model-bin v2\n";

void save_model_bin(const Ensemble& ensemble, std::ostream& out);

/// Throws std::runtime_error ("model-bin: ...", with the metric section and
/// byte offset) on malformed input. Hardened like the text loader: every
/// section byte count is bounded and cross-checked against the declared
/// table sizes before allocation, values must be finite except the
/// documented apex/tail infinities, and truncation at any byte is a clean
/// rejection, never a crash or over-allocation.
Ensemble load_model_bin(std::istream& in);

void save_model_bin_file(const Ensemble& ensemble, const std::string& path);
Ensemble load_model_bin_file(const std::string& path);

/// Newest binary format version this build writes (via serve/model_v3.h).
inline constexpr int kModelBinV3FormatVersion = 3;

/// Exact leading bytes of a binary v3 model file.
inline constexpr std::string_view kModelBinMagicV3 = "spire-model-bin v3\n";

/// Appends the shared v2/v3 body (u32 metric count + per-metric sections,
/// everything after the magic line) to `out`. save_model_bin and the v3
/// writer both serialize through this, so the v2-compatible prefix of a v3
/// file is byte-identical to a v2 file of the same ensemble.
void append_model_bin_body(std::string& out, const Ensemble& ensemble);

/// True when `path` starts with the binary magic (any binary version).
bool is_binary_model_file(const std::string& path);

/// Sniffs the leading bytes of `path`: returns 2 or 3 for binary model
/// files, 0 for anything else (text models, missing files, short files).
int binary_model_file_version(const std::string& path);

/// Loads either format, sniffing the leading bytes of the file.
Ensemble load_model_any_file(const std::string& path);

}  // namespace spire::model
