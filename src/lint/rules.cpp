// The built-in lint rules. Each rule enforces one invariant the paper
// assumes (DESIGN.md §8 maps every id to its figure/equation). Rules are
// deliberately independent: a file violating five invariants yields five
// findings, each pointing at its own line.
#include <cmath>
#include <set>
#include <sstream>
#include <string>

#include "geom/piecewise_linear.h"
#include "lint/lint.h"
#include "spire/model_io.h"

namespace spire::lint {
namespace {

using geom::LinearPiece;
using geom::PiecewiseLinear;
using geom::Point;

double rel_tol(double tolerance, double magnitude) {
  return tolerance * std::max(1.0, std::abs(magnitude));
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void add_finding(LintReport& report, std::string_view id,
                 LintSeverity severity, const std::string& metric,
                 std::size_t line, std::string message) {
  report.findings.push_back(
      {std::string(id), severity, metric, line, std::move(message)});
}

/// Left region as a continuous knot chain, right region as pieces — both
/// re-validated through the REAL geometry type so the bound rule evaluates
/// exactly what estimation would. nullopt when the region is too broken to
/// evaluate (other rules will have flagged why).
std::optional<PiecewiseLinear> strict_left(const RawMetricModel& m) {
  if (m.left_knots.size() < 2 || !m.left_complete) return std::nullopt;
  try {
    return PiecewiseLinear::from_knots(m.left_knots);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<PiecewiseLinear> strict_right(const RawMetricModel& m) {
  if (m.right_pieces.empty() || !m.right_complete) return std::nullopt;
  try {
    return PiecewiseLinear(m.right_pieces);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

// --------------------------------------------------------------------------
// File-level rules
// --------------------------------------------------------------------------

/// Structural parse problems, surfaced as findings so one broken line does
/// not hide every other invariant violation in the file.
class ModelStructureRule final : public LintRule {
 public:
  std::string_view id() const override { return "model-structure"; }
  std::string_view summary() const override {
    return "file follows the metric/left/right block structure";
  }
  void check(const LintContext& context, LintReport& report) const override {
    for (const ParseIssue& issue : context.model.issues) {
      add_finding(report, id(), LintSeverity::kError, "", issue.line,
                  issue.message);
    }
  }
};

/// The format-version header must name a version this build understands
/// (PR 1 hardened the parser; this rule makes version drift visible instead
/// of letting a future writer's file silently mis-parse).
class FormatVersionRule final : public LintRule {
 public:
  std::string_view id() const override { return "format-version"; }
  std::string_view summary() const override {
    return "header declares a supported model format version";
  }
  void check(const LintContext& context, LintReport& report) const override {
    const RawModel& model = context.model;
    if (model.binary &&
        model.binary_version != spire::model::kModelBinFormatVersion) {
      add_finding(report, id(), LintSeverity::kError, "", 1,
                  spire::model::unsupported_binary_version(
                      model.binary_version));
      return;
    }
    if (model.header_line == 0) return;  // empty file: model-structure fired
    if (model.version < 0) {
      add_finding(report, id(), LintSeverity::kError, "", model.header_line,
                  "bad header '" + model.header + "' (expected '" +
                      std::string(spire::model::kModelHeader) + "')");
    } else if (model.version != spire::model::kModelFormatVersion) {
      add_finding(
          report, id(), LintSeverity::kError, "", model.header_line,
          "model format version v" + std::to_string(model.version) +
              " is not supported (this build reads v" +
              std::to_string(spire::model::kModelFormatVersion) + ")");
    }
  }
};

/// A model with no metric blocks estimates nothing.
class EmptyModelRule final : public LintRule {
 public:
  std::string_view id() const override { return "empty-model"; }
  std::string_view summary() const override {
    return "model contains at least one metric roofline";
  }
  void check(const LintContext& context, LintReport& report) const override {
    if (context.model.metrics.empty() && context.model.header_line != 0) {
      add_finding(report, id(), LintSeverity::kError, "",
                  context.model.header_line, "model has no metrics");
    }
  }
};

/// Binary images are linted through the strict reader plus a lossless
/// conversion to the text form (model_source.h). When the image cannot be
/// opened or its tables do not rebuild into rooflines there is no lenient
/// line structure for the other rules to point at, so the reader's
/// message — which carries the section and byte offset — becomes the
/// file's one typed finding.
class BinaryLoadRule final : public LintRule {
 public:
  std::string_view id() const override { return "binary-load"; }
  std::string_view summary() const override {
    return "binary artifacts pass the strict loader";
  }
  void check(const LintContext& context, LintReport& report) const override {
    const RawModel& model = context.model;
    if (!model.binary || model.binary_error.empty()) return;
    add_finding(report, id(), LintSeverity::kError, "", 0, model.binary_error);
  }
};

/// An image that opens (its layout is sound) but fails full verification —
/// a section or whole-file CRC mismatch, a value the policy forbids — gets
/// the byte-level validator's own section/offset finding: the checks
/// serve::MappedModel runs at Verify::kFull and publish runs on entry.
class FlatStructureRule final : public LintRule {
 public:
  std::string_view id() const override { return "flat-structure"; }
  std::string_view summary() const override {
    return "binary image tables pass full byte-level verification";
  }
  void check(const LintContext& context, LintReport& report) const override {
    for (const std::string& message : context.model.flat_issues) {
      add_finding(report, id(), LintSeverity::kError, "", 0, message);
    }
  }
};

/// Every metric name must exist in the event catalog — the ensemble keys
/// rooflines by Event, so an unknown name can never be estimated against.
class UnknownMetricRule final : public LintRule {
 public:
  std::string_view id() const override { return "unknown-metric"; }
  std::string_view summary() const override {
    return "metric names resolve against the event catalog";
  }
  void check(const LintContext& context, LintReport& report) const override {
    for (const RawMetricModel& m : context.model.metrics) {
      if (!m.event.has_value()) {
        add_finding(report, id(), LintSeverity::kError, m.name, m.line,
                    "metric '" + m.name + "' is not in the event catalog");
      }
    }
  }
};

/// Duplicate blocks would silently shadow each other on load.
class DuplicateMetricRule final : public LintRule {
 public:
  std::string_view id() const override { return "duplicate-metric"; }
  std::string_view summary() const override {
    return "each metric appears at most once";
  }
  void check(const LintContext& context, LintReport& report) const override {
    std::set<std::string> seen;
    for (const RawMetricModel& m : context.model.metrics) {
      if (!seen.insert(m.name).second) {
        add_finding(report, id(), LintSeverity::kError, m.name, m.line,
                    "metric '" + m.name + "' defined more than once");
      }
    }
  }
};

// --------------------------------------------------------------------------
// Value-domain rules
// --------------------------------------------------------------------------

/// NaN poisons every comparison downstream; infinities are legal in exactly
/// two places (the apex intensity and the final right piece's x1 — the
/// documented horizontal tail).
class NonFiniteValueRule final : public LintRule {
 public:
  std::string_view id() const override { return "non-finite-value"; }
  std::string_view summary() const override {
    return "all values finite except the sanctioned apex/tail infinities";
  }
  void check(const LintContext& context, LintReport& report) const override {
    for (const RawMetricModel& m : context.model.metrics) {
      if (std::isnan(m.apex_x) || std::isnan(m.apex_y) ||
          std::isinf(m.apex_y) || m.apex_x == -geom::kInfinity) {
        add_finding(report, id(), LintSeverity::kError, m.name, m.line,
                    "apex (" + fmt(m.apex_x) + ", " + fmt(m.apex_y) +
                        ") must be finite (intensity may be +inf)");
      }
      for (std::size_t i = 0; i < m.left_knots.size(); ++i) {
        const Point& k = m.left_knots[i];
        if (!std::isfinite(k.x) || !std::isfinite(k.y)) {
          add_finding(report, id(), LintSeverity::kError, m.name, m.left_line,
                      "left knot " + std::to_string(i) + " (" + fmt(k.x) +
                          ", " + fmt(k.y) + ") is not finite");
        }
      }
      for (std::size_t i = 0; i < m.right_pieces.size(); ++i) {
        const LinearPiece& p = m.right_pieces[i];
        const bool tail_inf_ok =
            i + 1 == m.right_pieces.size() && p.x1 == geom::kInfinity;
        if (!std::isfinite(p.x0) || !std::isfinite(p.y0) ||
            !std::isfinite(p.y1) || (!std::isfinite(p.x1) && !tail_inf_ok)) {
          add_finding(report, id(), LintSeverity::kError, m.name,
                      m.right_line,
                      "right piece " + std::to_string(i) + " (" + fmt(p.x0) +
                          ", " + fmt(p.y0) + ") -> (" + fmt(p.x1) + ", " +
                          fmt(p.y1) +
                          ") has a non-finite value outside the horizontal "
                          "tail");
        }
      }
    }
  }
};

/// Intensities and throughputs are ratios of non-negative counters; a
/// negative coordinate means the artifact was corrupted or hand-edited.
class NegativeValueRule final : public LintRule {
 public:
  std::string_view id() const override { return "negative-value"; }
  std::string_view summary() const override {
    return "intensities and throughputs are non-negative";
  }
  void check(const LintContext& context, LintReport& report) const override {
    for (const RawMetricModel& m : context.model.metrics) {
      if (m.apex_x < 0.0 || m.apex_y < 0.0) {
        add_finding(report, id(), LintSeverity::kError, m.name, m.line,
                    "apex (" + fmt(m.apex_x) + ", " + fmt(m.apex_y) +
                        ") has a negative coordinate");
      }
      for (std::size_t i = 0; i < m.left_knots.size(); ++i) {
        const Point& k = m.left_knots[i];
        if (k.x < 0.0 || k.y < 0.0) {
          add_finding(report, id(), LintSeverity::kError, m.name, m.left_line,
                      "left knot " + std::to_string(i) + " (" + fmt(k.x) +
                          ", " + fmt(k.y) + ") has a negative coordinate");
        }
      }
      for (std::size_t i = 0; i < m.right_pieces.size(); ++i) {
        const LinearPiece& p = m.right_pieces[i];
        if (p.x0 < 0.0 || p.y0 < 0.0 || p.x1 < 0.0 || p.y1 < 0.0) {
          add_finding(report, id(), LintSeverity::kError, m.name,
                      m.right_line,
                      "right piece " + std::to_string(i) +
                          " has a negative coordinate");
        }
      }
    }
  }
};

// --------------------------------------------------------------------------
// Segment-structure rules
// --------------------------------------------------------------------------

/// Zero- or negative-width segments make evaluation ill-defined.
class DegenerateSegmentRule final : public LintRule {
 public:
  std::string_view id() const override { return "degenerate-segment"; }
  std::string_view summary() const override {
    return "every segment spans a positive intensity range";
  }
  void check(const LintContext& context, LintReport& report) const override {
    for (const RawMetricModel& m : context.model.metrics) {
      for (std::size_t i = 1; i < m.left_knots.size(); ++i) {
        if (!(m.left_knots[i].x > m.left_knots[i - 1].x)) {
          add_finding(report, id(), LintSeverity::kError, m.name, m.left_line,
                      "left knots " + std::to_string(i - 1) + " and " +
                          std::to_string(i) + " do not advance: x=" +
                          fmt(m.left_knots[i - 1].x) + " then x=" +
                          fmt(m.left_knots[i].x));
        }
      }
      for (std::size_t i = 0; i < m.right_pieces.size(); ++i) {
        const LinearPiece& p = m.right_pieces[i];
        if (std::isnan(p.x0) || std::isnan(p.x1)) continue;  // non-finite rule
        if (!(p.x0 < p.x1)) {
          add_finding(report, id(), LintSeverity::kError, m.name,
                      m.right_line,
                      "right piece " + std::to_string(i) +
                          " is degenerate: x0=" + fmt(p.x0) +
                          ", x1=" + fmt(p.x1));
        }
        if (p.x1 == geom::kInfinity && p.y1 != p.y0 && !std::isnan(p.y0) &&
            !std::isnan(p.y1)) {
          add_finding(report, id(), LintSeverity::kError, m.name,
                      m.right_line,
                      "infinite right piece " + std::to_string(i) +
                          " must be horizontal: y0=" + fmt(p.y0) +
                          ", y1=" + fmt(p.y1));
        }
      }
    }
  }
};

/// The right region must tile the intensity axis without gaps or overlaps.
class SegmentGapRule final : public LintRule {
 public:
  std::string_view id() const override { return "segment-gap"; }
  std::string_view summary() const override {
    return "right-region pieces are contiguous in intensity";
  }
  void check(const LintContext& context, LintReport& report) const override {
    for (const RawMetricModel& m : context.model.metrics) {
      for (std::size_t i = 1; i < m.right_pieces.size(); ++i) {
        const double prev_x1 = m.right_pieces[i - 1].x1;
        const double next_x0 = m.right_pieces[i].x0;
        if (std::isnan(prev_x1) || std::isnan(next_x0)) continue;
        if (prev_x1 != next_x0) {
          add_finding(report, id(), LintSeverity::kError, m.name,
                      m.right_line,
                      "gap between right pieces " + std::to_string(i - 1) +
                          " and " + std::to_string(i) + ": x1=" +
                          fmt(prev_x1) + " but next x0=" + fmt(next_x0));
        }
      }
    }
  }
};

// --------------------------------------------------------------------------
// Shape rules — the paper's Figs. 5/6 invariants
// --------------------------------------------------------------------------

/// Fig. 5: the left region rises monotonically from the origin to the apex.
class LeftNotIncreasingRule final : public LintRule {
 public:
  std::string_view id() const override { return "left-not-increasing"; }
  std::string_view summary() const override {
    return "left region is increasing (Fig. 5)";
  }
  void check(const LintContext& context, LintReport& report) const override {
    for (const RawMetricModel& m : context.model.metrics) {
      for (std::size_t i = 1; i < m.left_knots.size(); ++i) {
        const double prev = m.left_knots[i - 1].y;
        const double next = m.left_knots[i].y;
        if (std::isnan(prev) || std::isnan(next)) continue;
        if (next < prev - rel_tol(context.config.shape_tolerance, prev)) {
          add_finding(report, id(), LintSeverity::kError, m.name, m.left_line,
                      "left region drops between knots " +
                          std::to_string(i - 1) + " and " + std::to_string(i) +
                          ": P=" + fmt(prev) + " then P=" + fmt(next));
        }
      }
    }
  }
};

/// Fig. 5: the left region is concave-down — consecutive slopes must not
/// increase. A convex bulge means some training sample pokes above the
/// claimed ceiling.
class LeftNotConcaveRule final : public LintRule {
 public:
  std::string_view id() const override { return "left-not-concave"; }
  std::string_view summary() const override {
    return "left region is concave-down (Fig. 5)";
  }
  void check(const LintContext& context, LintReport& report) const override {
    for (const RawMetricModel& m : context.model.metrics) {
      for (std::size_t i = 2; i < m.left_knots.size(); ++i) {
        const Point& a = m.left_knots[i - 2];
        const Point& b = m.left_knots[i - 1];
        const Point& c = m.left_knots[i];
        if (!(a.x < b.x && b.x < c.x)) continue;  // degenerate rule's turf
        const double s_ab = geom::slope(a, b);
        const double s_bc = geom::slope(b, c);
        if (std::isnan(s_ab) || std::isnan(s_bc)) continue;
        if (s_bc > s_ab + rel_tol(context.config.shape_tolerance, s_ab)) {
          add_finding(report, id(), LintSeverity::kError, m.name, m.left_line,
                      "left region convex at knot " + std::to_string(i - 1) +
                          ": slope " + fmt(s_ab) + " then " + fmt(s_bc));
        }
      }
    }
  }
};

/// The fitted left region always starts at the origin (or a sample at
/// I = 0). Anything else suggests a truncated or hand-edited region.
class LeftOriginRule final : public LintRule {
 public:
  std::string_view id() const override { return "left-origin"; }
  std::string_view summary() const override {
    return "left region starts at I = 0";
  }
  void check(const LintContext& context, LintReport& report) const override {
    for (const RawMetricModel& m : context.model.metrics) {
      if (m.left_knots.empty()) continue;
      const Point& first = m.left_knots.front();
      if (std::isnan(first.x)) continue;
      if (first.x != 0.0) {
        add_finding(report, id(), LintSeverity::kWarning, m.name, m.left_line,
                    "left region starts at I=" + fmt(first.x) +
                        " instead of the origin");
      }
    }
  }
};

/// Fig. 6: right of the apex the bound must never rise — neither within a
/// piece nor across a boundary jump.
class RightNotDecreasingRule final : public LintRule {
 public:
  std::string_view id() const override { return "right-not-decreasing"; }
  std::string_view summary() const override {
    return "right region is non-increasing (Fig. 6)";
  }
  void check(const LintContext& context, LintReport& report) const override {
    for (const RawMetricModel& m : context.model.metrics) {
      const double tol = context.config.shape_tolerance;
      for (std::size_t i = 0; i < m.right_pieces.size(); ++i) {
        const LinearPiece& p = m.right_pieces[i];
        if (!std::isnan(p.y0) && !std::isnan(p.y1) &&
            p.y1 > p.y0 + rel_tol(tol, p.y0)) {
          add_finding(report, id(), LintSeverity::kError, m.name,
                      m.right_line,
                      "right piece " + std::to_string(i) + " rises: P=" +
                          fmt(p.y0) + " -> P=" + fmt(p.y1));
        }
        if (i > 0) {
          const double prev = m.right_pieces[i - 1].y1;
          if (!std::isnan(prev) && !std::isnan(p.y0) &&
              p.y0 > prev + rel_tol(tol, prev)) {
            add_finding(report, id(), LintSeverity::kError, m.name,
                        m.right_line,
                        "right region jumps up between pieces " +
                            std::to_string(i - 1) + " and " +
                            std::to_string(i) + ": P=" + fmt(prev) +
                            " -> P=" + fmt(p.y0));
          }
        }
      }
    }
  }
};

/// Fig. 6: walking right, slopes must not decrease (concave-up), with one
/// sanctioned exception — the horizontal apex cap as the FIRST piece (the
/// paper's "minor exception to the concave-up rule").
class RightNotConvexRule final : public LintRule {
 public:
  std::string_view id() const override { return "right-not-convex"; }
  std::string_view summary() const override {
    return "right region is concave-up, apex cap excepted (Fig. 6)";
  }
  void check(const LintContext& context, LintReport& report) const override {
    for (const RawMetricModel& m : context.model.metrics) {
      const auto& pieces = m.right_pieces;
      // Skip the sanctioned leading cap: a horizontal first piece.
      std::size_t start = 0;
      if (!pieces.empty() && pieces[0].y0 == pieces[0].y1) start = 1;
      for (std::size_t i = start + 1; i < pieces.size(); ++i) {
        const LinearPiece& a = pieces[i - 1];
        const LinearPiece& b = pieces[i];
        if (!(a.x0 < a.x1) || !(b.x0 < b.x1)) continue;  // degenerate turf
        const double s_a = a.slope();
        const double s_b = b.slope();
        if (std::isnan(s_a) || std::isnan(s_b)) continue;
        if (s_b < s_a - rel_tol(context.config.shape_tolerance, s_a)) {
          add_finding(report, id(), LintSeverity::kError, m.name,
                      m.right_line,
                      "right region convexity broken at piece " +
                          std::to_string(i) + ": slope " + fmt(s_a) +
                          " then " + fmt(s_b));
        }
      }
    }
  }
};

/// The writer always emits a horizontal tail to I = +inf; a finite domain
/// still evaluates (clamping) but means the artifact was not produced by
/// this toolchain.
class MissingTailRule final : public LintRule {
 public:
  std::string_view id() const override { return "missing-tail"; }
  std::string_view summary() const override {
    return "right region ends in the horizontal tail to I = +inf";
  }
  void check(const LintContext& context, LintReport& report) const override {
    for (const RawMetricModel& m : context.model.metrics) {
      if (m.right_pieces.empty()) continue;
      const LinearPiece& last = m.right_pieces.back();
      if (std::isnan(last.x1)) continue;
      if (last.x1 != geom::kInfinity) {
        add_finding(report, id(), LintSeverity::kWarning, m.name,
                    m.right_line,
                    "right region ends at finite I=" + fmt(last.x1) +
                        " (expected a horizontal tail to +inf)");
      }
    }
  }
};

/// The two regions must join continuously at the peak sample: the left
/// region ends at the apex, the right region starts there, and the apex is
/// the global maximum of the whole bound.
class PeakDiscontinuityRule final : public LintRule {
 public:
  std::string_view id() const override { return "peak-discontinuity"; }
  std::string_view summary() const override {
    return "left and right regions join continuously at the apex";
  }
  void check(const LintContext& context, LintReport& report) const override {
    for (const RawMetricModel& m : context.model.metrics) {
      if (std::isnan(m.apex_x) || std::isnan(m.apex_y)) continue;
      const double tol = rel_tol(context.config.shape_tolerance, m.apex_y);
      if (!m.left_knots.empty()) {
        const Point& last = m.left_knots.back();
        if (!std::isnan(last.y) && std::abs(last.y - m.apex_y) > tol) {
          add_finding(report, id(), LintSeverity::kError, m.name, m.left_line,
                      "left region ends at P=" + fmt(last.y) +
                          " but the apex is at P=" + fmt(m.apex_y));
        }
        if (!std::isnan(last.x) && std::isfinite(m.apex_x) &&
            last.x > m.apex_x +
                         rel_tol(context.config.shape_tolerance, m.apex_x)) {
          add_finding(report, id(), LintSeverity::kError, m.name, m.left_line,
                      "left region overruns the apex: ends at I=" +
                          fmt(last.x) + ", apex at I=" + fmt(m.apex_x));
        }
      }
      // A right region that is ONE horizontal level at-or-above the apex is
      // legitimate: samples at I = +inf (metric count 0) may run at higher
      // P than any finite-intensity sample, and the fitted bound is then a
      // single flat line covering them (the apex records the best FINITE
      // sample). Any other start must sit exactly at the apex.
      bool flat_right = !m.right_pieces.empty();
      const double flat_level =
          m.right_pieces.empty() ? 0.0 : m.right_pieces.front().y0;
      for (const LinearPiece& p : m.right_pieces) {
        if (std::isnan(p.y0) || p.y0 != flat_level || p.y1 != flat_level) {
          flat_right = false;
          break;
        }
      }
      const bool sanctioned_flat =
          flat_right && flat_level >= m.apex_y - tol;
      if (!m.right_pieces.empty() && !sanctioned_flat) {
        const LinearPiece& first = m.right_pieces.front();
        if (!std::isnan(first.y0) && std::abs(first.y0 - m.apex_y) > tol) {
          add_finding(report, id(), LintSeverity::kError, m.name,
                      m.right_line,
                      "right region starts at P=" + fmt(first.y0) +
                          " but the apex is at P=" + fmt(m.apex_y));
        }
      }
      // The apex must cap every knot and corner (it is the peak finite
      // sample) — except the sanctioned flat-above-apex right region.
      double max_y = m.apex_y;
      for (const Point& k : m.left_knots) {
        if (!std::isnan(k.y)) max_y = std::max(max_y, k.y);
      }
      if (!sanctioned_flat) {
        for (const LinearPiece& p : m.right_pieces) {
          if (!std::isnan(p.y0)) max_y = std::max(max_y, p.y0);
          if (!std::isnan(p.y1)) max_y = std::max(max_y, p.y1);
        }
      }
      if (max_y > m.apex_y + tol) {
        add_finding(report, id(), LintSeverity::kError, m.name, m.line,
                    "apex P=" + fmt(m.apex_y) +
                        " is below the region maximum P=" + fmt(max_y));
      }
    }
  }
};

// --------------------------------------------------------------------------
// Cross-artifact rules
// --------------------------------------------------------------------------

/// Eq. 1: the model is an UPPER bound — when a training (or regression)
/// dataset is supplied, no usable sample may poke above the fit. Runs only
/// for metrics whose geometry survives strict re-validation; broken shapes
/// are already error findings and cannot be evaluated meaningfully.
class BoundViolationRule final : public LintRule {
 public:
  std::string_view id() const override { return "bound-violation"; }
  std::string_view summary() const override {
    return "no sample in --against exceeds the model bound (Eq. 1)";
  }
  void check(const LintContext& context, LintReport& report) const override {
    if (!context.against.has_value()) return;
    for (const RawMetricModel& m : context.model.metrics) {
      if (!m.event.has_value()) continue;
      const auto left = strict_left(m);
      const auto right = strict_right(m);
      if (!right.has_value()) continue;
      const auto samples = context.against->samples(*m.event);
      std::size_t violations = 0;
      double worst_excess = 0.0;
      double worst_i = 0.0;
      double worst_p = 0.0;
      for (const auto& s : samples) {
        if (s.t <= 0.0 || !std::isfinite(s.t) || !std::isfinite(s.w) ||
            !std::isfinite(s.m) || s.w < 0.0 || s.m < 0.0) {
          continue;  // the quality layer's jurisdiction, not lint's
        }
        const double intensity = s.intensity();
        const double p = s.throughput();
        double bound = 0.0;
        if (left.has_value() && intensity <= left->domain_max()) {
          bound = left->at(intensity);
        } else {
          bound = right->at(intensity);
        }
        const double excess =
            p - bound - rel_tol(context.config.bound_tolerance, p);
        if (excess > 0.0) {
          ++violations;
          if (excess > worst_excess) {
            worst_excess = excess;
            worst_i = intensity;
            worst_p = p;
          }
        }
      }
      if (violations > 0) {
        add_finding(report, id(), LintSeverity::kError, m.name, m.line,
                    std::to_string(violations) +
                        " sample(s) exceed the bound; worst at (I=" +
                        fmt(worst_i) + ", P=" + fmt(worst_p) +
                        "), excess " + fmt(worst_excess));
      }
    }
  }
};

/// A roofline claiming to be trained on fewer samples than it has corners
/// (or on none at all) was not produced by the trainer.
class TrainedOnSuspiciousRule final : public LintRule {
 public:
  std::string_view id() const override { return "trained-on-suspicious"; }
  std::string_view summary() const override {
    return "trained_on counts are plausible";
  }
  void check(const LintContext& context, LintReport& report) const override {
    for (const RawMetricModel& m : context.model.metrics) {
      if (!m.trained_on_valid) continue;  // model-structure fired already
      if (m.trained_on < context.config.min_plausible_trained_on) {
        add_finding(report, id(), LintSeverity::kWarning, m.name, m.line,
                    "trained_on=" + std::to_string(m.trained_on) +
                        " is below the plausible minimum of " +
                        std::to_string(
                            context.config.min_plausible_trained_on));
        continue;
      }
      // Every fitted corner needed a distinct sample; the fitter adds at
      // most one synthetic point per region (the origin knot on the left,
      // the apex cap / tail on the right).
      const std::size_t corners =
          m.left_knots.size() + m.right_pieces.size();
      if (m.right_pieces.size() > m.trained_on + 1 ||
          m.left_knots.size() > m.trained_on + 1) {
        add_finding(report, id(), LintSeverity::kWarning, m.name, m.line,
                    "trained_on=" + std::to_string(m.trained_on) +
                        " cannot produce " + std::to_string(corners) +
                        " region corners");
      }
    }
  }
};

}  // namespace

LintRegistry LintRegistry::builtin() {
  LintRegistry registry;
  registry.add(std::make_unique<ModelStructureRule>());
  registry.add(std::make_unique<FormatVersionRule>());
  registry.add(std::make_unique<EmptyModelRule>());
  registry.add(std::make_unique<BinaryLoadRule>());
  registry.add(std::make_unique<FlatStructureRule>());
  registry.add(std::make_unique<UnknownMetricRule>());
  registry.add(std::make_unique<DuplicateMetricRule>());
  registry.add(std::make_unique<NonFiniteValueRule>());
  registry.add(std::make_unique<NegativeValueRule>());
  registry.add(std::make_unique<DegenerateSegmentRule>());
  registry.add(std::make_unique<SegmentGapRule>());
  registry.add(std::make_unique<LeftNotIncreasingRule>());
  registry.add(std::make_unique<LeftNotConcaveRule>());
  registry.add(std::make_unique<LeftOriginRule>());
  registry.add(std::make_unique<RightNotDecreasingRule>());
  registry.add(std::make_unique<RightNotConvexRule>());
  registry.add(std::make_unique<MissingTailRule>());
  registry.add(std::make_unique<PeakDiscontinuityRule>());
  registry.add(std::make_unique<BoundViolationRule>());
  registry.add(std::make_unique<TrainedOnSuspiciousRule>());
  return registry;
}

}  // namespace spire::lint
