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
// It has one reader, read_text_model, which is lenient: it keeps every
// value as written and records what breaks the block grammar as
// ParseIssues. Two policies sit on it. load_model is strict and stops at
// the earliest defect; the lint rules (lint/model_source.h) report every
// violation at once.
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

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "counters/events.h"
#include "geom/piecewise_linear.h"
#include "geom/point.h"
#include "spire/ensemble.h"

namespace spire::model {

/// Format version this build reads and writes. Bump when the on-disk shape
/// changes; load_model rejects other versions with a message naming both,
/// and the lint `format-version` rule flags them statically.
inline constexpr int kModelFormatVersion = 1;

/// Exact first line of a model file ("spire-model v1").
inline constexpr std::string_view kModelHeader = "spire-model v1";

/// A line that breaks the metric/left/right block grammar. Invariant
/// violations are not issues; the lint rules judge those. `line` is
/// 1-based; 0 means the input had no lines.
struct ParseIssue {
  std::size_t line = 0;
  std::string message;
};

/// One metric block ("metric" + "left" + "right" lines), exactly as written.
struct TextMetric {
  std::string name;                        // metric name token
  std::optional<counters::Event> event;    // nullopt when not in the catalog
  std::size_t line = 0;                    // "metric" line number
  std::uint64_t trained_on = 0;
  bool trained_on_valid = false;
  double apex_x = 0.0;
  double apex_y = 0.0;

  std::vector<geom::Point> left_knots;     // may be empty ("left 0")
  std::size_t left_line = 0;               // 0 when the line was not read
  bool left_complete = false;              // all declared knots were present

  std::vector<geom::LinearPiece> right_pieces;
  std::size_t right_line = 0;              // 0 when the line was not read
  bool right_complete = false;             // all declared pieces were present
};

/// A whole text file, raw.
struct TextModel {
  std::string header;                      // first non-empty line, verbatim
  int version = -1;                        // N from "spire-model vN"; -1 when
                                           // the header is not in that shape
  std::size_t header_line = 0;             // 0 when the file was empty
  std::vector<TextMetric> metrics;
  std::vector<ParseIssue> issues;          // in line order

  bool structurally_sound() const { return issues.empty(); }
};

/// The one reader of text v1. Never throws on malformed content. Values
/// parse through even when they are NaN, infinite, negative or out of
/// order, but only when spelled "inf", "-inf", "nan" or "-nan"; any other
/// spelling of a non-finite value is an issue. Region sizes are bounded by
/// bin::kMaxRegionCorners before any allocation. Reading stops at a line
/// that is not where the block structure expects it.
TextModel read_text_model(std::istream& in);

void save_model(const Ensemble& ensemble, std::ostream& out);

/// read_text_model, then the strict policy: the header must name v1, and
/// the earliest defect throws std::runtime_error naming its 1-based line.
/// A defect is a ParseIssue, an unknown or duplicate metric, a non-finite
/// value (only the apex intensity and the last right x1 may be "inf"), or
/// a region PiecewiseLinear / MetricRoofline refuses.
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
