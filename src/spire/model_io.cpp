#include "spire/model_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "spire/model_bin.h"

namespace spire::model {

using counters::Event;
using geom::LinearPiece;
using geom::PiecewiseLinear;

namespace {

void write_value(std::ostream& out, double v) {
  if (std::isinf(v)) {
    out << (v > 0 ? "inf" : "-inf");
  } else {
    out << v;
  }
}

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("model: line " + std::to_string(line_no) + ": " +
                           what);
}

/// Splits a line at the whitespace `std::istream >> std::string` skips.
std::vector<std::string_view> split(std::string_view line) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";
  std::vector<std::string_view> tokens;
  for (auto at = line.find_first_not_of(kSpace); at != line.npos;) {
    const auto end = std::min(line.find_first_of(kSpace, at), line.size());
    tokens.push_back(line.substr(at, end - at));
    at = line.find_first_not_of(kSpace, end);
  }
  return tokens;
}

/// A value token: a finite decimal, or one of the four literal spellings
/// of a non-finite value ("inf", "-inf", "nan", "-nan"). nullopt for
/// anything else, including "Infinity" and "1e999".
std::optional<double> parse_value(std::string_view token) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (token == "inf") return kInf;
  if (token == "-inf") return -kInf;
  if (token == "nan" || token == "-nan") {
    return std::numeric_limits<double>::quiet_NaN();
  }
  double v = 0.0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), v);
  if (ec != std::errc{} || ptr != token.data() + token.size() ||
      !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::optional<std::uint64_t> parse_count(std::string_view token) {
  std::uint64_t n = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), n);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    return std::nullopt;
  }
  return n;
}

}  // namespace

TextModel read_text_model(std::istream& in) {
  TextModel model;
  std::size_t line_no = 0;
  std::string line;
  std::vector<std::string_view> tokens;  // the current line's
  const auto next_line = [&] {
    while (std::getline(in, line)) {
      ++line_no;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) {
        tokens = split(line);
        return true;
      }
    }
    return false;
  };
  const auto issue = [&](std::size_t at, std::string message) {
    model.issues.push_back({at, std::move(message)});
  };
  const auto quoted = [](std::string_view token) {
    return "'" + std::string(token) + "'";
  };

  if (!next_line()) {
    issue(0, "empty file");
    return model;
  }
  model.header = line;
  model.header_line = line_no;
  // "spire-model vN", N a decimal without leading zeros; the format-version
  // rule and load_model judge N.
  if (tokens.size() == 2 && tokens[0] == "spire-model" &&
      tokens[1].starts_with('v')) {
    const std::string_view digits = tokens[1].substr(1);
    if (const auto n = parse_count(digits);
        n && *n <= std::numeric_limits<int>::max() &&
        std::to_string(*n) == digits) {
      model.version = static_cast<int>(*n);
    }
  }

  // Reads the region line after a metric line: "<keyword> K v v ...", K
  // groups of `width` values. False when the line is missing or is not a
  // `keyword` line; block structure is lost then, so reading stops.
  std::vector<double> values;
  const auto read_region = [&](const std::string& keyword, std::size_t width,
                               const std::string& metric, std::size_t& at,
                               bool& complete) {
    const bool present = next_line();
    if (!present || tokens.empty() || tokens[0] != keyword) {
      issue(present ? line_no : line_no + 1,
            "missing " + keyword + " region for " + metric);
      return false;
    }
    at = line_no;
    values.clear();
    if (tokens.size() < 2) {
      issue(line_no, keyword + " line without a count");
      complete = true;  // of the zero values declared
      return true;
    }
    std::uint64_t declared = 0;
    if (const auto n = parse_count(tokens[1]);
        n && *n <= bin::kMaxRegionCorners) {
      declared = *n;
    } else {
      issue(line_no, "bad " + keyword + " count " + quoted(tokens[1]));
    }
    const std::size_t end = 2 + declared * width;
    for (std::size_t i = 2; i < std::min(end, tokens.size()); ++i) {
      const auto v = parse_value(tokens[i]);
      if (!v) {
        issue(line_no,
              "unparseable " + keyword + " value " + quoted(tokens[i]));
        break;
      }
      values.push_back(*v);
    }
    complete = values.size() == declared * width;
    if (tokens.size() < end) {
      issue(line_no, keyword + " region truncated: " +
                         std::to_string(declared) + " declared, " +
                         std::to_string((tokens.size() - 2) / width) +
                         " present");
    } else if (tokens.size() > end) {
      issue(line_no, "trailing garbage after " + keyword + " region: " +
                         quoted(tokens[end]));
    }
    return true;
  };

  while (next_line()) {
    // --- metric line: "metric NAME trained_on=N apex=I P" ---------------
    if (tokens.empty() || tokens[0] != "metric") {
      issue(line_no, "expected a 'metric' line, got " +
                         quoted(tokens.empty() ? "" : tokens[0]));
      return model;  // resynchronization is hopeless without the blocks
    }
    if (tokens.size() < 2) {
      issue(line_no, "metric line without a name");
      return model;
    }
    TextMetric& metric = model.metrics.emplace_back();
    metric.name = tokens[1];
    metric.event = counters::event_by_name(metric.name);
    metric.line = line_no;

    std::size_t next = 2;
    if (next < tokens.size() && tokens[next].starts_with("trained_on=")) {
      if (const auto n = parse_count(tokens[next].substr(11))) {
        metric.trained_on = *n;
        metric.trained_on_valid = true;
      } else {
        issue(line_no, "bad trained_on count " + quoted(tokens[next]));
      }
      ++next;
    } else {
      issue(line_no, "missing trained_on field");
    }
    // The writer glues apex= to the intensity; a lone "apex=" is accepted
    // for hand-written files.
    if (next == tokens.size() || !tokens[next].starts_with("apex=")) {
      issue(line_no, "expected apex= field, got " +
                         quoted(next < tokens.size() ? tokens[next] : ""));
    } else if (tokens[next].remove_prefix(5); tokens[next].empty()) {
      ++next;
    }
    std::vector<double> apex;
    for (; next < tokens.size(); ++next) {
      if (tokens[next].starts_with("apex=")) {
        issue(line_no, "stray apex= field " + quoted(tokens[next]));
      } else if (const auto v = parse_value(tokens[next])) {
        apex.push_back(*v);
      } else {
        issue(line_no, "unparseable apex value " + quoted(tokens[next]));
      }
    }
    if (apex.size() == 2) {
      metric.apex_x = apex[0];
      metric.apex_y = apex[1];
    } else {
      issue(line_no, "expected apex intensity and throughput, got " +
                         std::to_string(apex.size()) + " value(s)");
    }

    // --- left line: "left K x0 y0 x1 y1 ...", K knots --------------------
    if (!read_region("left", 2, metric.name, metric.left_line,
                     metric.left_complete)) {
      return model;
    }
    for (std::size_t i = 0; i + 1 < values.size(); i += 2) {
      metric.left_knots.push_back({values[i], values[i + 1]});
    }
    // --- right line: "right K x0 y0 x1 y1 ...", K pieces -----------------
    if (!read_region("right", 4, metric.name, metric.right_line,
                     metric.right_complete)) {
      return model;
    }
    for (std::size_t i = 0; i + 3 < values.size(); i += 4) {
      metric.right_pieces.push_back(
          {values[i], values[i + 1], values[i + 2], values[i + 3]});
    }
  }
  return model;
}

void save_model(const Ensemble& ensemble, std::ostream& out) {
  out.precision(17);
  out << kModelHeader << '\n';
  for (const auto& [metric, roofline] : ensemble.rooflines()) {
    out << "metric " << counters::event_name(metric)
        << " trained_on=" << roofline.training_sample_count() << " apex=";
    write_value(out, roofline.apex_intensity());
    out << ' ';
    write_value(out, roofline.apex_throughput());
    out << '\n';

    if (roofline.left().has_value()) {
      const auto& pieces = roofline.left()->pieces();
      out << "left " << pieces.size() + 1;
      out << ' ' << pieces.front().x0 << ' ' << pieces.front().y0;
      for (const auto& p : pieces) out << ' ' << p.x1 << ' ' << p.y1;
      out << '\n';
    } else {
      out << "left 0\n";
    }

    const auto& pieces = roofline.right().pieces();
    out << "right " << pieces.size();
    for (const auto& p : pieces) {
      out << ' ';
      write_value(out, p.x0);
      out << ' ';
      write_value(out, p.y0);
      out << ' ';
      write_value(out, p.x1);
      out << ' ';
      write_value(out, p.y1);
    }
    out << '\n';
  }
}

Ensemble load_model(std::istream& in) {
  const TextModel text = read_text_model(in);
  if (text.version < 0) {
    fail(std::max<std::size_t>(text.header_line, 1),
         "bad header (expected '" + std::string(kModelHeader) + "')");
  }
  if (text.version != kModelFormatVersion) {
    fail(text.header_line, "unsupported model format version v" +
                               std::to_string(text.version) +
                               " (this build reads v" +
                               std::to_string(kModelFormatVersion) + ")");
  }
  // Checks run in line order, and each first reaches its line: when the
  // first reader issue is on or before that line (0: a region line never
  // read), the issue is the earliest defect and is thrown instead.
  const auto reach = [&text](std::size_t line) {
    if (!text.issues.empty() &&
        (line == 0 || text.issues.front().line <= line)) {
      fail(text.issues.front().line, text.issues.front().message);
    }
  };
  using std::isfinite;

  std::map<Event, MetricRoofline> rooflines;
  for (const TextMetric& m : text.metrics) {
    reach(m.line);
    if (!m.event) fail(m.line, "unknown metric '" + m.name + "'");
    if (rooflines.contains(*m.event)) {
      fail(m.line, "duplicate metric '" + m.name + "'");
    }
    if (!(isfinite(m.apex_x) || m.apex_x == geom::kInfinity) ||
        !isfinite(m.apex_y)) {
      fail(m.line, "apex values must be finite (the intensity may be inf)");
    }

    reach(m.left_line);
    std::optional<PiecewiseLinear> left;
    if (!m.left_knots.empty()) {
      for (const geom::Point& k : m.left_knots) {
        if (!isfinite(k.x) || !isfinite(k.y)) {
          fail(m.left_line, "left knots must be finite");
        }
      }
      try {
        left = PiecewiseLinear::from_knots(m.left_knots);
      } catch (const std::exception& e) {
        fail(m.left_line, std::string("invalid left region: ") + e.what());
      }
    }

    reach(m.right_line);
    if (m.right_pieces.empty()) fail(m.right_line, "empty right region");
    for (const LinearPiece& p : m.right_pieces) {
      // Only the final piece's right corner may sit at infinity (the
      // documented horizontal tail).
      const bool tail =
          &p == &m.right_pieces.back() && p.x1 == geom::kInfinity;
      if (!isfinite(p.x0) || !isfinite(p.y0) || !isfinite(p.y1) ||
          !(isfinite(p.x1) || tail)) {
        fail(m.right_line,
             "right values must be finite (the last x1 may be inf)");
      }
    }
    try {
      rooflines.emplace(*m.event,
                        MetricRoofline(std::move(left),
                                       PiecewiseLinear(m.right_pieces),
                                       {m.apex_x, m.apex_y}, m.trained_on));
    } catch (const std::exception& e) {
      fail(m.right_line, std::string("invalid right region: ") + e.what());
    }
  }
  reach(0);  // an issue after the last whole block
  if (rooflines.empty()) throw std::runtime_error("model: no metrics");
  return Ensemble(std::move(rooflines));
}

void save_model_file(const Ensemble& ensemble, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("model: cannot write " + path);
  save_model(ensemble, out);
}

Ensemble load_model_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("model: cannot read " + path);
  return load_model(in);
}

}  // namespace spire::model
