// Tests for the static model analyzer (src/lint): the lenient raw parser,
// the rule registry, every builtin rule against a seeded violation, the
// checked-in fixture corpus, and robustness against corrupted input.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "lint/lint.h"
#include "lint/model_source.h"
#include "quality/fault_injector.h"
#include "sampling/dataset.h"
#include "spire/ensemble.h"
#include "spire/model_io.h"
#include "util/rng.h"

namespace spire {
namespace {

using lint::LintReport;
using lint::LintSeverity;

// A minimal model satisfying every invariant: left region (0,0)->(2,1.5)->
// (4,2) is increasing and concave-down ending at the apex (4,2); the right
// region falls at slope -0.25 and flattens into the infinite tail.
constexpr const char* kCleanModel =
    "spire-model v1\n"
    "metric baclears.any trained_on=10 apex=4 2\n"
    "left 3 0 0 2 1.5 4 2\n"
    "right 2 4 2 8 1 8 1 inf 1\n";

lint::RawModel parse(const std::string& text) {
  std::istringstream in(text);
  return lint::parse_raw_model(in);
}

LintReport run_lint(const std::string& text,
                    const sampling::Dataset* against = nullptr) {
  std::optional<sampling::DatasetView> view;
  if (against != nullptr) view = *against;
  return lint::lint_model(parse(text), "test", view);
}

/// True when the report contains a finding from `rule` with `severity`.
bool has_finding(const LintReport& report, std::string_view rule,
                 LintSeverity severity) {
  for (const auto& f : report.findings) {
    if (f.rule_id == rule && f.severity == severity) return true;
  }
  return false;
}

std::string testdata(const std::string& relative) {
  return std::string(SPIRE_TESTDATA_DIR) + "/" + relative;
}

// --- raw parser -----------------------------------------------------------

TEST(ModelSource, ParsesCleanModel) {
  const auto model = parse(kCleanModel);
  EXPECT_TRUE(model.structurally_sound());
  EXPECT_EQ(model.version, 1);
  ASSERT_EQ(model.metrics.size(), 1u);
  const auto& m = model.metrics[0];
  EXPECT_EQ(m.name, "baclears.any");
  EXPECT_TRUE(m.event.has_value());
  EXPECT_EQ(m.trained_on, 10u);
  EXPECT_EQ(m.apex_x, 4.0);
  EXPECT_EQ(m.apex_y, 2.0);
  ASSERT_EQ(m.left_knots.size(), 3u);
  ASSERT_EQ(m.right_pieces.size(), 2u);
  EXPECT_EQ(m.right_pieces[1].x1, geom::kInfinity);
}

TEST(ModelSource, RecordsLineNumbers) {
  const auto model = parse(kCleanModel);
  ASSERT_EQ(model.metrics.size(), 1u);
  EXPECT_EQ(model.header_line, 1u);
  EXPECT_EQ(model.metrics[0].line, 2u);
  EXPECT_EQ(model.metrics[0].left_line, 3u);
  EXPECT_EQ(model.metrics[0].right_line, 4u);
}

TEST(ModelSource, ParsesNonFiniteValuesThrough) {
  // load_model rejects NaN; the lint parser must keep it for the rules.
  const auto model = parse(
      "spire-model v1\n"
      "metric baclears.any trained_on=10 apex=nan -inf\n"
      "left 1 0 nan\n"
      "right 1 0 inf inf inf\n");
  ASSERT_EQ(model.metrics.size(), 1u);
  EXPECT_TRUE(std::isnan(model.metrics[0].apex_x));
  EXPECT_TRUE(std::isnan(model.metrics[0].left_knots[0].y));
  EXPECT_EQ(model.metrics[0].right_pieces[0].y0, geom::kInfinity);
}

TEST(ModelSource, UnknownHeaderYieldsNegativeVersion) {
  EXPECT_EQ(parse("roofline v1\n").version, -1);
  EXPECT_EQ(parse("spire-model one\n").version, -1);
  EXPECT_EQ(parse("spire-model v3\n").version, 3);
}

TEST(ModelSource, EmptyFileIsAnIssueNotACrash) {
  const auto model = parse("");
  EXPECT_EQ(model.header_line, 0u);
  ASSERT_FALSE(model.issues.empty());
}

TEST(ModelSource, TruncatedRegionRecordsIssue) {
  const auto model = parse(
      "spire-model v1\n"
      "metric baclears.any trained_on=10 apex=4 2\n"
      "left 3 0 0 2 1.5\n"
      "right 2 4 2 8 1 8 1 inf 1\n");
  ASSERT_EQ(model.metrics.size(), 1u);
  EXPECT_FALSE(model.metrics[0].left_complete);
  EXPECT_FALSE(model.structurally_sound());
}

TEST(ModelSource, UnreadablePathIsAnIssue) {
  const auto model =
      lint::parse_raw_model_file("/nonexistent/nowhere.model");
  ASSERT_EQ(model.issues.size(), 1u);
  EXPECT_EQ(model.issues[0].line, 0u);
}

TEST(ModelSource, MissingTrainedOnRecordsIssueButParsesOn) {
  const auto model = parse(
      "spire-model v1\n"
      "metric baclears.any apex=4 2\n"
      "left 0\n"
      "right 1 4 2 inf 2\n");
  ASSERT_EQ(model.metrics.size(), 1u);
  EXPECT_FALSE(model.metrics[0].trained_on_valid);
  EXPECT_EQ(model.metrics[0].apex_y, 2.0);
}

// --- registry and report --------------------------------------------------

TEST(LintRegistry, BuiltinHasUniqueIdsAndSummaries) {
  const auto registry = lint::LintRegistry::builtin();
  EXPECT_GE(registry.rules().size(), 10u);
  for (const auto& rule : registry.rules()) {
    EXPECT_FALSE(rule->id().empty());
    EXPECT_FALSE(rule->summary().empty());
    EXPECT_EQ(registry.find(rule->id()), rule.get());
  }
}

TEST(LintRegistry, DuplicateIdThrows) {
  auto registry = lint::LintRegistry::builtin();
  const auto& first = registry.rules().front();
  class Dup final : public lint::LintRule {
   public:
    explicit Dup(std::string id) : id_(std::move(id)) {}
    std::string_view id() const override { return id_; }
    std::string_view summary() const override { return "dup"; }
    void check(const lint::LintContext&, LintReport&) const override {}

   private:
    std::string id_;
  };
  EXPECT_THROW(registry.add(std::make_unique<Dup>(std::string(first->id()))),
               std::invalid_argument);
}

TEST(LintRegistry, FindUnknownIdReturnsNull) {
  EXPECT_EQ(lint::LintRegistry::builtin().find("no-such-rule"), nullptr);
}

TEST(LintReport, CleanModelProducesCleanReport) {
  const auto report = run_lint(kCleanModel);
  EXPECT_TRUE(report.clean()) << report.describe();
  EXPECT_FALSE(report.has_errors());
  EXPECT_EQ(report.metrics_scanned, 1u);
  EXPECT_GE(report.rules_run, 10u);
}

TEST(LintReport, DescribeNamesSourceRuleAndLine) {
  auto report = run_lint(
      "spire-model v1\n"
      "metric not.a.counter trained_on=10 apex=4 2\n"
      "left 3 0 0 2 1.5 4 2\n"
      "right 2 4 2 8 1 8 1 inf 1\n");
  report.source = "broken.model";
  const std::string text = report.describe();
  EXPECT_NE(text.find("broken.model:2:"), std::string::npos) << text;
  EXPECT_NE(text.find("[unknown-metric]"), std::string::npos) << text;
  EXPECT_NE(text.find("error"), std::string::npos) << text;
}

TEST(LintReport, CountsPerRule) {
  const auto report = run_lint(
      "spire-model v1\n"
      "metric not.a.counter trained_on=10 apex=4 2\n"
      "left 3 0 0 2 1.5 4 2\n"
      "right 2 4 2 8 1 8 1 inf 1\n"
      "metric also.not.real trained_on=10 apex=4 2\n"
      "left 3 0 0 2 1.5 4 2\n"
      "right 2 4 2 8 1 8 1 inf 1\n");
  EXPECT_EQ(report.count("unknown-metric"), 2u);
  EXPECT_EQ(report.count("duplicate-metric"), 0u);
}

// --- one test per builtin rule --------------------------------------------

TEST(LintRules, FormatVersion) {
  const auto report = run_lint(
      "spire-model v2\n"
      "metric baclears.any trained_on=10 apex=4 2\n"
      "left 3 0 0 2 1.5 4 2\n"
      "right 2 4 2 8 1 8 1 inf 1\n");
  EXPECT_TRUE(has_finding(report, "format-version", LintSeverity::kError));
  EXPECT_EQ(report.count("format-version"), 1u);
}

TEST(LintRules, BinaryVersionsThisBuildDoesNotReadAreFormatVersionErrors) {
  // A v3 image (the checked-in fixture) and a future v9 header alike: the
  // file is binary, so it must never reach the text parser, whose
  // model-structure finding would quote raw bytes. The one finding names
  // the version and the one this build reads.
  const std::string v9 = ::testing::TempDir() + "/future_v9.bin";
  {
    std::ofstream out(v9, std::ios::binary);
    out << "spire-model-bin v9\n" << std::string("\x01\x02\x03\x04", 4);
  }
  const std::pair<std::string, int> files[] = {
      {testdata("lint/v3_artifact.model"), 3}, {v9, 9}};
  for (const auto& [path, version] : files) {
    const auto report = lint::lint_model_file(path);
    EXPECT_EQ(report.count("format-version"), 1u) << report.describe();
    EXPECT_EQ(report.findings.size(), 1u) << report.describe();
    ASSERT_FALSE(report.findings.empty());
    EXPECT_NE(report.findings[0].message.find(
                  "binary model format v" + std::to_string(version) +
                  " is not supported (this build reads v4)"),
              std::string::npos)
        << report.findings[0].message;
    EXPECT_EQ(report.findings[0].message,
              model::unsupported_binary_version(version));
  }
}

TEST(LintRules, ModelStructure) {
  const auto report = run_lint(
      "spire-model v1\n"
      "metric baclears.any trained_on=10 apex=4 2\n"
      "left 3 0 0 2 1.5 4 2\n"
      "right 2 4 2 8 1 8 1 inf 1\n"
      "garbage\n");
  EXPECT_TRUE(has_finding(report, "model-structure", LintSeverity::kError));
}

TEST(LintRules, EmptyModel) {
  const auto report = run_lint("spire-model v1\n");
  EXPECT_TRUE(has_finding(report, "empty-model", LintSeverity::kError));
}

TEST(LintRules, UnknownMetric) {
  const auto report = run_lint(
      "spire-model v1\n"
      "metric not.a.counter trained_on=10 apex=4 2\n"
      "left 3 0 0 2 1.5 4 2\n"
      "right 2 4 2 8 1 8 1 inf 1\n");
  EXPECT_TRUE(has_finding(report, "unknown-metric", LintSeverity::kError));
}

TEST(LintRules, DuplicateMetric) {
  const std::string block =
      "metric baclears.any trained_on=10 apex=4 2\n"
      "left 3 0 0 2 1.5 4 2\n"
      "right 2 4 2 8 1 8 1 inf 1\n";
  const auto report = run_lint("spire-model v1\n" + block + block);
  EXPECT_TRUE(has_finding(report, "duplicate-metric", LintSeverity::kError));
  EXPECT_EQ(report.count("duplicate-metric"), 1u);
}

TEST(LintRules, NonFiniteValue) {
  const auto report = run_lint(
      "spire-model v1\n"
      "metric baclears.any trained_on=10 apex=4 2\n"
      "left 3 0 0 2 nan 4 2\n"
      "right 2 4 2 8 1 8 1 inf 1\n");
  EXPECT_TRUE(has_finding(report, "non-finite-value", LintSeverity::kError));
}

TEST(LintRules, NonFiniteValueAllowsSanctionedInfinities) {
  // apex intensity +inf and the tail's x1=inf are the documented cases.
  const auto report = run_lint(
      "spire-model v1\n"
      "metric baclears.any trained_on=10 apex=inf 2\n"
      "left 0\n"
      "right 1 0 2 inf 2\n");
  EXPECT_EQ(report.count("non-finite-value"), 0u) << report.describe();
}

TEST(LintRules, NegativeValue) {
  const auto report = run_lint(
      "spire-model v1\n"
      "metric baclears.any trained_on=10 apex=4 2\n"
      "left 3 0 -0.5 2 1.5 4 2\n"
      "right 2 4 2 8 1 8 1 inf 1\n");
  EXPECT_TRUE(has_finding(report, "negative-value", LintSeverity::kError));
}

TEST(LintRules, DegenerateSegment) {
  const auto report = run_lint(
      "spire-model v1\n"
      "metric baclears.any trained_on=10 apex=4 2\n"
      "left 3 0 0 2 1.5 4 2\n"
      "right 3 4 2 4 2 4 2 8 1 8 1 inf 1\n");
  EXPECT_TRUE(has_finding(report, "degenerate-segment",
                          LintSeverity::kError));
}

TEST(LintRules, DegenerateSegmentFlagsSlopedInfiniteTail) {
  const auto report = run_lint(
      "spire-model v1\n"
      "metric baclears.any trained_on=10 apex=4 2\n"
      "left 3 0 0 2 1.5 4 2\n"
      "right 2 4 2 8 1 8 1 inf 0.5\n");
  EXPECT_TRUE(has_finding(report, "degenerate-segment",
                          LintSeverity::kError));
}

TEST(LintRules, SegmentGap) {
  const auto report = run_lint(
      "spire-model v1\n"
      "metric baclears.any trained_on=10 apex=4 2\n"
      "left 3 0 0 2 1.5 4 2\n"
      "right 3 4 2 6 1.5 7 1.2 8 1 8 1 inf 1\n");
  EXPECT_TRUE(has_finding(report, "segment-gap", LintSeverity::kError));
}

TEST(LintRules, LeftNotIncreasing) {
  const auto report = run_lint(
      "spire-model v1\n"
      "metric baclears.any trained_on=10 apex=4 2\n"
      "left 4 0 0 2 2 3 1.9 4 2\n"
      "right 2 4 2 8 1 8 1 inf 1\n");
  EXPECT_TRUE(has_finding(report, "left-not-increasing",
                          LintSeverity::kError));
}

TEST(LintRules, LeftNotConcave) {
  const auto report = run_lint(
      "spire-model v1\n"
      "metric baclears.any trained_on=10 apex=4 2\n"
      "left 3 0 0 2 0.5 4 2\n"
      "right 2 4 2 8 1 8 1 inf 1\n");
  EXPECT_TRUE(has_finding(report, "left-not-concave", LintSeverity::kError));
  // The seeded shape stays monotone: only concavity is violated.
  EXPECT_EQ(report.count("left-not-increasing"), 0u);
}

TEST(LintRules, LeftOriginWarning) {
  const auto report = run_lint(
      "spire-model v1\n"
      "metric baclears.any trained_on=10 apex=4 2\n"
      "left 3 0.5 0.6 2 1.5 4 2\n"
      "right 2 4 2 8 1 8 1 inf 1\n");
  EXPECT_TRUE(has_finding(report, "left-origin", LintSeverity::kWarning));
  EXPECT_FALSE(report.has_errors()) << report.describe();
}

TEST(LintRules, RightNotDecreasing) {
  // The rise is an upward jump at a piece boundary — the shape every piece
  // slope check alone would miss.
  const auto report = run_lint(
      "spire-model v1\n"
      "metric baclears.any trained_on=10 apex=4 2\n"
      "left 3 0 0 2 1.5 4 2\n"
      "right 3 4 2 6 1 6 1.4 8 1.2 8 1.2 inf 1.2\n");
  EXPECT_TRUE(has_finding(report, "right-not-decreasing",
                          LintSeverity::kError));
}

TEST(LintRules, RightNotConvex) {
  const auto report = run_lint(
      "spire-model v1\n"
      "metric baclears.any trained_on=10 apex=4 2\n"
      "left 3 0 0 2 1.5 4 2\n"
      "right 3 4 2 6 1.8 6 1.8 8 1 8 1 inf 1\n");
  EXPECT_TRUE(has_finding(report, "right-not-convex", LintSeverity::kError));
}

TEST(LintRules, RightConvexAllowsApexCap) {
  // The paper's sanctioned exception: a horizontal first piece (the apex
  // cap) followed by steeper-then-flattening segments.
  const auto report = run_lint(
      "spire-model v1\n"
      "metric baclears.any trained_on=10 apex=4 2\n"
      "left 3 0 0 2 1.5 4 2\n"
      "right 3 4 2 6 2 6 1 8 0.8 8 0.8 inf 0.8\n");
  EXPECT_EQ(report.count("right-not-convex"), 0u) << report.describe();
}

TEST(LintRules, MissingTailWarning) {
  const auto report = run_lint(
      "spire-model v1\n"
      "metric baclears.any trained_on=10 apex=4 2\n"
      "left 3 0 0 2 1.5 4 2\n"
      "right 1 4 2 8 1\n");
  EXPECT_TRUE(has_finding(report, "missing-tail", LintSeverity::kWarning));
  EXPECT_FALSE(report.has_errors()) << report.describe();
}

TEST(LintRules, PeakDiscontinuity) {
  const auto report = run_lint(
      "spire-model v1\n"
      "metric baclears.any trained_on=10 apex=4 2\n"
      "left 3 0 0 2 1.5 4 1.7\n"
      "right 2 4 2 8 1 8 1 inf 1\n");
  EXPECT_TRUE(has_finding(report, "peak-discontinuity",
                          LintSeverity::kError));
}

TEST(LintRules, PeakAllowsFlatRightAboveApex) {
  // Samples at I = +inf can run faster than every finite-intensity sample;
  // the fitted bound is then one flat line above the (finite) apex.
  const auto report = run_lint(
      "spire-model v1\n"
      "metric baclears.any trained_on=10 apex=4 2\n"
      "left 3 0 0 2 1.5 4 2\n"
      "right 1 4 2.4 inf 2.4\n");
  EXPECT_EQ(report.count("peak-discontinuity"), 0u) << report.describe();
}

TEST(LintRules, BoundViolationRequiresDataset) {
  // Without --against the rule must stay silent.
  const auto report = run_lint(kCleanModel);
  EXPECT_EQ(report.count("bound-violation"), 0u);
}

TEST(LintRules, BoundViolationAgainstDataset) {
  sampling::Dataset data;
  const auto event = counters::event_by_name("baclears.any");
  ASSERT_TRUE(event.has_value());
  // I = 2, P = 3: the left region's value at I=2 is 1.5, so the sample
  // pokes 1.5 above the claimed upper bound.
  data.add(*event, {100.0, 300.0, 150.0});
  // And one compliant sample: I = 3, P = 0.9 under the bound 1.75.
  data.add(*event, {100.0, 90.0, 30.0});
  const auto report = run_lint(kCleanModel, &data);
  EXPECT_TRUE(has_finding(report, "bound-violation", LintSeverity::kError));
  EXPECT_EQ(report.count("bound-violation"), 1u);
}

TEST(LintRules, BoundHoldsForCompliantDataset) {
  sampling::Dataset data;
  const auto event = counters::event_by_name("baclears.any");
  ASSERT_TRUE(event.has_value());
  data.add(*event, {100.0, 90.0, 30.0});    // I=3,   P=0.9 (bound 1.75)
  data.add(*event, {100.0, 100.0, 0.0});    // I=inf, P=1.0 (tail level 1)
  const auto report = run_lint(kCleanModel, &data);
  EXPECT_EQ(report.count("bound-violation"), 0u) << report.describe();
}

TEST(LintRules, BoundViolationSkipsUnusableSamples) {
  sampling::Dataset data;
  const auto event = counters::event_by_name("baclears.any");
  ASSERT_TRUE(event.has_value());
  data.add(*event, {0.0, 300.0, 150.0});    // t = 0: undefined throughput
  data.add(*event, {100.0, -5.0, 10.0});    // negative work
  const auto report = run_lint(kCleanModel, &data);
  EXPECT_EQ(report.count("bound-violation"), 0u) << report.describe();
}

TEST(LintRules, TrainedOnSuspicious) {
  const auto report = run_lint(
      "spire-model v1\n"
      "metric baclears.any trained_on=0 apex=4 2\n"
      "left 3 0 0 2 1.5 4 2\n"
      "right 2 4 2 8 1 8 1 inf 1\n");
  EXPECT_TRUE(has_finding(report, "trained-on-suspicious",
                          LintSeverity::kWarning));
}

TEST(LintRules, TrainedOnTooFewForCorners) {
  const auto report = run_lint(
      "spire-model v1\n"
      "metric baclears.any trained_on=2 apex=8 2\n"
      "left 0\n"
      "right 4 8 2 10 1.5 10 1.5 12 1.2 12 1.2 14 1.05 14 1.05 inf 1.05\n");
  EXPECT_TRUE(has_finding(report, "trained-on-suspicious",
                          LintSeverity::kWarning));
}

// --- fixture corpus -------------------------------------------------------

TEST(LintFixtures, ManifestExpectationsHold) {
  std::ifstream manifest(testdata("lint/MANIFEST"));
  ASSERT_TRUE(manifest.is_open()) << "missing testdata/lint/MANIFEST";
  std::string line;
  std::size_t fixtures = 0;
  while (std::getline(manifest, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string file, rule, severity, against_csv;
    row >> file >> rule >> severity >> against_csv;
    SCOPED_TRACE(file);

    sampling::Dataset against;
    bool have_against = false;
    if (!against_csv.empty()) {
      std::ifstream csv(testdata("lint/" + against_csv));
      ASSERT_TRUE(csv.is_open()) << against_csv;
      against = sampling::Dataset::load_csv(csv);
      have_against = true;
    }
    std::optional<sampling::DatasetView> view;
    if (have_against) view = against;
    const auto report =
        lint::lint_model_file(testdata("lint/" + file), view);
    const auto expected = severity == "error" ? LintSeverity::kError
                                              : LintSeverity::kWarning;
    EXPECT_TRUE(has_finding(report, rule, expected)) << report.describe();
    EXPECT_EQ(report.has_errors(), severity == "error")
        << report.describe();
    ++fixtures;
  }
  EXPECT_GE(fixtures, 18u);
}

TEST(LintFixtures, EveryRuleHasAFixture) {
  std::ifstream manifest(testdata("lint/MANIFEST"));
  ASSERT_TRUE(manifest.is_open());
  std::string line;
  std::set<std::string> covered;
  while (std::getline(manifest, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string file, rule;
    row >> file >> rule;
    covered.insert(rule);
  }
  const auto registry = lint::LintRegistry::builtin();
  for (const auto& rule : registry.rules()) {
    EXPECT_TRUE(covered.contains(std::string(rule->id())))
        << "no fixture exercises rule '" << rule->id() << "'";
  }
}

TEST(LintFixtures, CheckedInExampleModelsAreClean) {
  for (const char* name :
       {"models/handwritten.model", "models/trained_parboil.model",
        "models/trained_multi.model"}) {
    const auto report = lint::lint_model_file(testdata(name));
    EXPECT_TRUE(report.clean()) << name << ":\n" << report.describe();
  }
}

TEST(LintFixtures, TrainedModelCleanAgainstItsTrainingData) {
  std::ifstream csv(testdata("models/parboil.samples.csv"));
  ASSERT_TRUE(csv.is_open());
  const auto data = sampling::Dataset::load_csv(csv);
  const auto report = lint::lint_model_file(
      testdata("models/trained_parboil.model"), sampling::DatasetView(data));
  EXPECT_TRUE(report.clean()) << report.describe();
}

// --- end-to-end and robustness --------------------------------------------

sampling::Dataset synthetic_dataset() {
  sampling::Dataset data;
  const auto event = counters::event_by_name("baclears.any");
  util::Rng rng(99);
  for (int i = 0; i < 60; ++i) {
    const double t = 1000.0;
    const double w = 100.0 + rng.uniform(0.0, 900.0);
    const double m = rng.below(4) == 0 ? 0.0 : rng.uniform(1.0, 400.0);
    data.add(*event, {t, w, m});
  }
  return data;
}

TEST(LintEndToEnd, FreshlyTrainedEnsemblePassesWithItsTrainingSet) {
  const auto data = synthetic_dataset();
  const auto ensemble = model::Ensemble::train(data, {});
  std::ostringstream out;
  model::save_model(ensemble, out);

  std::istringstream in(out.str());
  const auto report =
      lint::lint_model(lint::parse_raw_model(in), "trained",
                       sampling::DatasetView(data));
  EXPECT_TRUE(report.clean()) << report.describe();
}

TEST(LintEndToEnd, CorruptedModelsNeverCrashTheLinter) {
  const auto data = synthetic_dataset();
  const auto ensemble = model::Ensemble::train(data, {});
  std::ostringstream out;
  model::save_model(ensemble, out);
  const std::string clean = out.str();

  util::Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    const std::string mangled =
        round % 2 == 0 ? quality::flip_bits(clean, rng, 1 + rng.below(8))
                       : quality::truncate_tail(clean, rng);
    std::istringstream in(mangled);
    // Must terminate and never throw, whatever the bytes say.
    const auto report = lint::lint_model(lint::parse_raw_model(in), "mangled",
                                         sampling::DatasetView(data));
    (void)report.describe();
  }
}

TEST(LintEndToEnd, LoaderAndLinterAgreeOnVersionMismatch) {
  const std::string v9 =
      "spire-model v9\n"
      "metric baclears.any trained_on=10 apex=4 2\n"
      "left 3 0 0 2 1.5 4 2\n"
      "right 2 4 2 8 1 8 1 inf 1\n";
  const auto report = run_lint(v9);
  EXPECT_TRUE(has_finding(report, "format-version", LintSeverity::kError));

  std::istringstream in(v9);
  try {
    model::load_model(in);
    FAIL() << "load_model should reject v9";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("v9"), std::string::npos) << what;
    EXPECT_NE(what.find("v1"), std::string::npos) << what;
  }
}

TEST(LintEndToEnd, EveryLoadableModelLintsCleanOfStructureErrors) {
  // Anything load_model accepts must at minimum be structurally sound to
  // the linter (the reverse does not hold: lint parses what load rejects).
  const auto data = synthetic_dataset();
  const auto ensemble = model::Ensemble::train(data, {});
  std::ostringstream out;
  model::save_model(ensemble, out);
  std::istringstream reload(out.str());
  EXPECT_NO_THROW(model::load_model(reload));

  const auto raw = parse(out.str());
  EXPECT_TRUE(raw.structurally_sound());
}

}  // namespace
}  // namespace spire
