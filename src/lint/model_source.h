// Lint's view of a model file. A text file is read by the one text
// reader, model::read_text_model (spire/model_io.h): it keeps whatever the
// file says, however broken, so the lint rules can point at the exact line
// that violates an invariant, where model::load_model stops at the first.
// Lines that break the block grammar are ParseIssues, reported by the
// model-structure rule. A binary image adds the fields below.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "spire/model_io.h"

namespace spire::lint {

using ParseIssue = model::ParseIssue;
using RawMetricModel = model::TextMetric;

/// A whole model file: the text reader's result, plus the binary fields.
struct RawModel : model::TextModel {
  /// True when the file starts with a binary magic line;
  /// `binary_version` is its N ("spire-model-bin vN"). Only v4 is read
  /// further — any other N is left for the format-version rule. A v4 image
  /// has no lenient line structure, so it is linted through the strict
  /// reader plus a lossless conversion to the text form: on success the
  /// TextModel fields describe the converted text (line numbers refer to it).
  /// On failure everything else stays empty and the reader's diagnostic
  /// (with section and byte offset) lands in one of two places:
  /// `flat_issues` when the image opens but fails full verification
  /// (section or whole-file CRC, value policy; the flat-structure rule),
  /// `binary_error` for everything else — an image that cannot be opened
  /// (truncated, reshaped) or whose tables do not rebuild into rooflines
  /// (the binary-load rule).
  bool binary = false;
  int binary_version = 0;
  std::string binary_error;
  std::vector<std::string> flat_issues;
};

/// model::read_text_model as a RawModel; never throws on malformed content.
RawModel parse_raw_model(std::istream& in);

/// File wrapper; an unreadable path becomes a single ParseIssue at line 0.
RawModel parse_raw_model_file(const std::string& path);

}  // namespace spire::lint
