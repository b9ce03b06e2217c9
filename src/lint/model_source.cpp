#include "lint/model_source.h"

#include <array>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>
#include <utility>

#include "spire/model_bin.h"
#include "spire/model_io.h"
#include "util/mmap_file.h"

namespace spire::lint {

namespace {

// Mirrors model_io's allocation bound: a lint run over an adversarial file
// must not balloon memory either.
constexpr std::size_t kMaxRegionCorners = 65'536;

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  return tokens;
}

/// Parses a double leniently: accepts "inf", "-inf", and "nan" (they are
/// exactly what some rules exist to detect). Returns nullopt only for
/// tokens that are not number-shaped at all.
std::optional<double> parse_value(const std::string& token) {
  if (token == "inf") return std::numeric_limits<double>::infinity();
  if (token == "-inf") return -std::numeric_limits<double>::infinity();
  if (token == "nan" || token == "-nan") {
    return std::numeric_limits<double>::quiet_NaN();
  }
  double v = 0.0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), v);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::uint64_t> parse_count(const std::string& token) {
  std::uint64_t n = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), n);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    return std::nullopt;
  }
  return n;
}

struct LineReader {
  std::istream& in;
  std::size_t line_no = 0;
  std::string line;

  bool next() {
    while (std::getline(in, line)) {
      ++line_no;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) return true;
    }
    return false;
  }
};

}  // namespace

RawModel parse_raw_model(std::istream& in) {
  RawModel model;
  LineReader reader{in};
  const auto issue = [&model](std::size_t line, std::string message) {
    model.issues.push_back({line, std::move(message)});
  };

  if (!reader.next()) {
    issue(0, "empty file");
    return model;
  }
  model.header = reader.line;
  model.header_line = reader.line_no;
  // "spire-model vN" — parsed leniently; the format-version rule judges N.
  {
    std::istringstream hs(model.header);
    std::string word, ver;
    if (hs >> word >> ver && word == "spire-model" && ver.size() >= 2 &&
        ver[0] == 'v') {
      if (const auto n = parse_count(ver.substr(1));
          n && *n <= std::numeric_limits<int>::max()) {
        std::string rest;
        if (!(hs >> rest)) model.version = static_cast<int>(*n);
      }
    }
  }

  while (reader.next()) {
    // --- metric line ----------------------------------------------------
    auto tokens = tokenize(reader.line);
    if (tokens.empty() || tokens[0] != "metric") {
      issue(reader.line_no,
            "expected a 'metric' line, got '" +
                (tokens.empty() ? std::string() : tokens[0]) + "'");
      // Resynchronization is hopeless without the block structure: stop.
      return model;
    }
    RawMetricModel metric;
    metric.line = reader.line_no;
    if (tokens.size() < 2) {
      issue(reader.line_no, "metric line without a name");
      return model;
    }
    metric.name = tokens[1];
    metric.event = counters::event_by_name(metric.name);

    // trained_on=N and apex=I P, tolerated in glued or split form.
    std::size_t next_token = 2;
    if (next_token < tokens.size() &&
        tokens[next_token].rfind("trained_on=", 0) == 0) {
      if (const auto n = parse_count(tokens[next_token].substr(11))) {
        metric.trained_on = *n;
        metric.trained_on_valid = true;
      } else {
        issue(reader.line_no,
              "bad trained_on count '" + tokens[next_token] + "'");
      }
      ++next_token;
    } else {
      issue(reader.line_no, "missing trained_on field");
    }

    std::vector<double> apex_values;
    for (; next_token < tokens.size(); ++next_token) {
      std::string token = tokens[next_token];
      if (token.rfind("apex=", 0) == 0) token = token.substr(5);
      if (token.empty()) continue;
      if (const auto v = parse_value(token)) {
        apex_values.push_back(*v);
      } else {
        issue(reader.line_no, "unparseable apex token '" + token + "'");
      }
    }
    if (apex_values.size() == 2) {
      metric.apex_x = apex_values[0];
      metric.apex_y = apex_values[1];
    } else {
      issue(reader.line_no, "expected apex intensity and throughput, got " +
                                std::to_string(apex_values.size()) +
                                " value(s)");
    }

    // --- left line ------------------------------------------------------
    if (!reader.next() || tokenize(reader.line).empty() ||
        tokenize(reader.line)[0] != "left") {
      issue(reader.line_no + 1, "missing left region for " + metric.name);
      model.metrics.push_back(std::move(metric));
      return model;
    }
    metric.left_line = reader.line_no;
    {
      const auto left_tokens = tokenize(reader.line);
      std::uint64_t declared = 0;
      if (left_tokens.size() < 2) {
        issue(reader.line_no, "left line without a knot count");
      } else if (const auto n = parse_count(left_tokens[1]);
                 n && *n <= kMaxRegionCorners) {
        declared = *n;
      } else {
        issue(reader.line_no, "bad left knot count '" + left_tokens[1] + "'");
      }
      std::size_t cursor = 2;
      metric.left_complete = true;
      for (std::uint64_t k = 0; k < declared; ++k) {
        if (cursor + 1 >= left_tokens.size()) {
          issue(reader.line_no, "left region truncated: knot " +
                                    std::to_string(k) + " of " +
                                    std::to_string(declared) + " missing");
          metric.left_complete = false;
          break;
        }
        const auto x = parse_value(left_tokens[cursor]);
        const auto y = parse_value(left_tokens[cursor + 1]);
        if (!x || !y) {
          issue(reader.line_no,
                "unparseable left knot '" + left_tokens[cursor] + " " +
                    left_tokens[cursor + 1] + "'");
          metric.left_complete = false;
          break;
        }
        metric.left_knots.push_back({*x, *y});
        cursor += 2;
      }
      if (metric.left_complete && cursor < left_tokens.size()) {
        issue(reader.line_no, "trailing garbage after left region: '" +
                                  left_tokens[cursor] + "'");
      }
    }

    // --- right line -----------------------------------------------------
    if (!reader.next() || tokenize(reader.line).empty() ||
        tokenize(reader.line)[0] != "right") {
      issue(reader.line_no + 1, "missing right region for " + metric.name);
      model.metrics.push_back(std::move(metric));
      return model;
    }
    metric.right_line = reader.line_no;
    {
      const auto right_tokens = tokenize(reader.line);
      std::uint64_t declared = 0;
      if (right_tokens.size() < 2) {
        issue(reader.line_no, "right line without a piece count");
      } else if (const auto n = parse_count(right_tokens[1]);
                 n && *n <= kMaxRegionCorners) {
        declared = *n;
      } else {
        issue(reader.line_no,
              "bad right piece count '" + right_tokens[1] + "'");
      }
      std::size_t cursor = 2;
      metric.right_complete = true;
      for (std::uint64_t k = 0; k < declared; ++k) {
        if (cursor + 3 >= right_tokens.size()) {
          issue(reader.line_no, "right region truncated: piece " +
                                    std::to_string(k) + " of " +
                                    std::to_string(declared) + " missing");
          metric.right_complete = false;
          break;
        }
        geom::LinearPiece piece;
        bool ok = true;
        const std::array<double*, 4> fields = {&piece.x0, &piece.y0,
                                               &piece.x1, &piece.y1};
        for (std::size_t f = 0; f < 4; ++f) {
          if (const auto v = parse_value(right_tokens[cursor + f])) {
            *fields[f] = *v;
          } else {
            issue(reader.line_no, "unparseable right piece value '" +
                                      right_tokens[cursor + f] + "'");
            ok = false;
          }
        }
        if (!ok) {
          metric.right_complete = false;
          break;
        }
        metric.right_pieces.push_back(piece);
        cursor += 4;
      }
      if (metric.right_complete && cursor < right_tokens.size()) {
        issue(reader.line_no, "trailing garbage after right region: '" +
                                  right_tokens[cursor] + "'");
      }
    }

    model.metrics.push_back(std::move(metric));
  }
  return model;
}

namespace {

/// v4 lint path: open at the structure tier, verify in full, rebuild the
/// Ensemble, then lint its lossless text form.
RawModel parse_raw_image(const std::string& path) {
  RawModel raw;
  raw.binary = true;
  raw.binary_version = model::kModelBinFormatVersion;
  std::stringstream text;
  try {
    const util::MmapFile image = util::MmapFile::open_readonly(path);
    model::bin::check_flat_region(image.bytes(), model::bin::Verify::kStructure);
    try {
      model::bin::check_flat_region(image.bytes(), model::bin::Verify::kFull);
    } catch (const std::exception& e) {
      raw.flat_issues.push_back(e.what());
      return raw;
    }
    model::save_model(model::bin::load_model_image(image.bytes()), text);
  } catch (const std::exception& e) {
    raw.binary_error = e.what();
    return raw;
  }
  raw = parse_raw_model(text);
  raw.binary = true;
  raw.binary_version = model::kModelBinFormatVersion;
  return raw;
}

}  // namespace

RawModel parse_raw_model_file(const std::string& path) {
  if (const int version = model::binary_model_file_version(path)) {
    if (version == model::kModelBinFormatVersion) return parse_raw_image(path);
    RawModel raw;
    raw.binary = true;
    raw.binary_version = version;
    return raw;
  }
  std::ifstream in(path);
  if (!in) {
    RawModel model;
    model.issues.push_back({0, "cannot read " + path});
    return model;
  }
  return parse_raw_model(in);
}

}  // namespace spire::lint
