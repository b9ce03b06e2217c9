// Property tests for the serving evaluator (serve/model_eval.h).
//
// The contract under test: serve::estimate is bit-identical to the scalar
// reference estimate_tables — same ulps, ranking order, skip reasons, and
// exception text — and EstimationService::estimate_views is bit-identical
// to a serve::estimate loop with per-item error capture, over fuzzed
// tables that include
// duplicate and zero-width segments, infinite ceilings, single-piece
// metrics, missing left regions, regions from one piece up to the image
// format's cap, and sample streams that are clustered or full of
// NaN/inf/negative garbage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "counters/events.h"
#include "sampling/dataset.h"
#include "sampling/dataset_view.h"
#include "serve/mapped_model.h"
#include "serve/model_eval.h"
#include "serve/service.h"
#include "serving_fixtures.h"
#include "spire/ensemble.h"
#include "spire/model_bin.h"
#include "util/contract.h"
#include "util/thread_pool.h"

namespace spire {
namespace {

using counters::Event;
using model::Estimate;
using model::Merge;
using model::bin::MetricRange;
using sampling::Dataset;
using sampling::DatasetView;
using sampling::Sample;
using serve::EvalTables;
using test::expect_identical;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Largest region the fuzzer builds: the image format's per-region cap, less
/// one so it is a valid piece count for either region.
constexpr std::size_t kNearCapPieces = model::bin::kMaxRegionCorners - 1;

/// Owns fuzzable table columns and exposes them in the evaluator shape.
/// The image writer's invariants hold by construction: per-region x1 ascends
/// (lower_bound requirement), the right region is never empty, metrics
/// ascend by event id.
struct TableSet {
  std::vector<Event> metrics;
  std::vector<MetricRange> ranges;
  std::vector<double> x0, y0, x1, y1;

  EvalTables tables() const { return {metrics, ranges, x0, y0, x1, y1}; }
};

/// One region of contiguous pieces starting at `x`, with degeneracy dialed
/// in by the generator: zero-width pieces (x1 == x0), duplicate x1 runs,
/// and optionally an infinite last ceiling.
struct RegionSpec {
  std::size_t pieces = 1;
  double start = 0.0;
  bool infinite_tail = false;
};

void append_region(TableSet& set, const RegionSpec& spec, std::mt19937& rng) {
  std::uniform_real_distribution<double> width(0.0, 4.0);
  std::uniform_real_distribution<double> level(0.1, 8.0);
  std::bernoulli_distribution degenerate(0.25);
  double x = spec.start;
  for (std::size_t i = 0; i < spec.pieces; ++i) {
    const bool zero_width = degenerate(rng);
    const double w = zero_width ? 0.0 : width(rng);
    double next = x + w;
    if (spec.infinite_tail && i + 1 == spec.pieces) next = kInf;
    set.x0.push_back(x);
    set.y0.push_back(level(rng));
    set.x1.push_back(next);
    set.y1.push_back(level(rng));
    if (std::isfinite(next)) x = next;
  }
}

/// Appends one metric, next in event-id order: a left region of
/// `left_pieces` (none when 0) and a right region of `right_pieces`
/// starting where the left one ends.
void append_metric(TableSet& set, std::size_t left_pieces,
                   std::size_t right_pieces, bool infinite_tail,
                   std::mt19937& rng) {
  MetricRange range;
  range.left_begin = static_cast<std::uint32_t>(set.x0.size());
  double right_start = 0.0;
  if (left_pieces > 0) {
    append_region(set, {left_pieces, 0.0, false}, rng);
    right_start = set.x1.back();
    if (!std::isfinite(right_start)) right_start = set.x0.back();
    range.left_max = right_start;
  }
  range.left_end = static_cast<std::uint32_t>(set.x0.size());
  range.right_begin = range.left_end;
  append_region(set, {right_pieces, right_start, infinite_tail}, rng);
  range.right_end = static_cast<std::uint32_t>(set.x0.size());
  set.metrics.push_back(static_cast<Event>(set.metrics.size()));
  set.ranges.push_back(range);
}

/// A fuzzed model: 1-4 metrics, each with an optional left region and a
/// non-empty right region (single-piece metrics included).
TableSet fuzz_tables(std::mt19937& rng) {
  TableSet set;
  std::uniform_int_distribution<int> metric_count(1, 4);
  std::uniform_int_distribution<std::size_t> piece_count(1, 6);
  std::bernoulli_distribution with_left(0.6);
  std::bernoulli_distribution with_inf(0.5);
  const int metrics = metric_count(rng);
  for (int m = 0; m < metrics; ++m) {
    const std::size_t left = with_left(rng) ? piece_count(rng) : 0;
    const std::size_t right = piece_count(rng);
    append_metric(set, left, right, with_inf(rng), rng);
  }
  return set;
}

/// A model whose largest region has exactly `largest` pieces: metric 0's
/// right region is that big (with a left region of `largest / 2` pieces),
/// and two small fuzzed-size metrics ride along.
TableSet sized_tables(std::size_t largest, std::mt19937& rng) {
  TableSet set;
  for (int m = 0; m < 3; ++m) {
    const std::size_t right = m == 0 ? largest : 1 + rng() % 6;
    const std::size_t left = m == 0 ? largest / 2 : rng() % 4;
    append_metric(set, left, right, m == 1, rng);
  }
  return set;
}

/// Workload with clustered intensities, the shape collected windows have:
/// runs of 4-32 consecutive samples whose intensities sit in one narrow
/// band (so neighbours usually share a segment), the band centres spread
/// over each metric's whole piece range and past its last edge, and some
/// samples landing exactly on a piece boundary (the left-segment-wins
/// tie). Unless `clean`, a few garbage samples keep the structural filter
/// honest.
Dataset clustered_workload(const TableSet& set, std::size_t n,
                           std::mt19937& rng, bool clean = false) {
  Dataset data;
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> period(0.5, 4.0);
  for (std::size_t m = 0; m < set.metrics.size(); ++m) {
    const MetricRange& range = set.ranges[m];
    double top = 1.0;
    for (std::size_t i = range.left_begin; i < range.right_end; ++i) {
      if (std::isfinite(set.x1[i])) top = std::max(top, set.x1[i]);
    }
    std::size_t i = 0;
    while (i < n) {
      const double centre = unit(rng) * top * 1.1;
      const double spread = unit(rng) * 1e-3 * top;
      const std::size_t run = std::min<std::size_t>(4 + rng() % 29, n - i);
      for (std::size_t r = 0; r < run; ++r, ++i) {
        double x = centre + spread * unit(rng);
        if (rng() % 16 == 0) {
          x = set.x1[range.left_begin +
                     rng() % (range.right_end - range.left_begin)];
          if (!std::isfinite(x)) x = centre;
        }
        Sample s{period(rng), x, 1.0};  // intensity = w / m = x exactly
        if (!clean && rng() % 32 == 0) s.t = -1.0;  // filtered: t <= 0
        data.add(set.metrics[m], s);
      }
    }
  }
  return data;
}

/// A fuzzed workload: `n` samples per present metric, seasoned with the
/// full garbage menu — non-positive and non-finite t/w/m (the structural
/// filter must drop them), m = 0 (intensity = +inf), and huge intensities
/// past every ceiling.
Dataset fuzz_workload(const TableSet& set, std::size_t n, std::mt19937& rng) {
  Dataset data;
  std::uniform_real_distribution<double> pos(0.1, 40.0);
  std::uniform_int_distribution<int> garbage(0, 11);
  for (const Event metric : set.metrics) {
    for (std::size_t i = 0; i < n; ++i) {
      Sample s{pos(rng), pos(rng), pos(rng)};
      switch (garbage(rng)) {
        case 0: s.t = 0.0; break;           // filtered: t <= 0
        case 1: s.t = -pos(rng); break;     // filtered: t <= 0
        case 2: s.t = kNaN; break;          // filtered: !finite(t)
        case 3: s.w = kInf; break;          // filtered: !finite(w)
        case 4: s.w = -pos(rng); break;     // filtered: w < 0
        case 5: s.m = kNaN; break;          // filtered: !finite(m)
        case 6: s.m = -pos(rng); break;     // filtered: m < 0
        case 7: s.m = 0.0; break;           // kept: intensity = +inf
        case 8: s.w = 0.0; break;           // kept: intensity = 0
        case 9: s.w = pos(rng) * 1e12; break;  // kept: past every ceiling
        default: break;                     // kept: ordinary lane
      }
      data.add(metric, s);
    }
  }
  return data;
}

/// One workload's estimate or the text its evaluation threw; exactly one
/// is set.
struct Outcome {
  std::optional<Estimate> estimate;
  std::string error;

  bool ok() const { return estimate.has_value(); }
};

/// Scalar-reference outcome with per-item error capture.
Outcome scalar_outcome(const EvalTables& tables, DatasetView view,
                       Merge merge) {
  Outcome out;
  try {
    out.estimate = serve::estimate_tables(tables, view, merge);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

/// serve::estimate with the same per-item error capture; with `lanes`
/// set, the direct path with its pair kernel at that width instead of the
/// one this process chose.
Outcome direct_outcome(const EvalTables& tables, DatasetView view,
                       Merge merge, std::size_t lanes = 0) {
  Outcome out;
  try {
    out.estimate =
        lanes == 0
            ? serve::estimate(tables, view, merge)
            : serve::detail::estimate_with_lanes(tables, view, merge, lanes);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

void expect_identical(const Outcome& scalar, const Outcome& direct) {
  ASSERT_EQ(scalar.ok(), direct.ok()) << scalar.error << " vs " << direct.error;
  if (scalar.ok()) {
    expect_identical(*scalar.estimate, *direct.estimate);
  } else {
    EXPECT_EQ(scalar.error, direct.error);
  }
}

/// serve::estimate (or, with `lanes` set, the direct path at that pair
/// kernel width) on every workload (mixed merge modes), each bit-identical
/// to the per-item scalar loop.
void expect_direct_matches_scalar(const TableSet& set,
                                  const std::vector<Dataset>& datasets,
                                  std::size_t lanes = 0) {
  for (std::size_t j = 0; j < datasets.size(); ++j) {
    SCOPED_TRACE(testing::Message() << "item " << j);
    const DatasetView view(datasets[j]);
    const Merge merge = j % 3 ? Merge::kTimeWeighted : Merge::kUnweighted;
    expect_identical(scalar_outcome(set.tables(), view, merge),
                     direct_outcome(set.tables(), view, merge, lanes));
  }
}

// The pair kernel runs 4 lanes where the host has AVX2 and 2 elsewhere.
// The cases that pin its lane structure run once per width, so an AVX2
// host also tests the two-lane path, which its serve::estimate never
// takes.
constexpr const char* kNoFourLanes =
    "this host runs the pair kernel at 2 lanes only (no AVX2)";

void fuzzed_tables_match_scalar(std::size_t lanes) {
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<std::size_t> large(1025, 8192);
  for (int round = 0; round < 200; ++round) {
    // Every eighth shape gains a metric whose right region holds more
    // than 1024 pieces, and the first one a region near the image cap, so
    // the branchless search runs at every depth an image allows; those
    // rounds add a clustered workload, whose intensities reach the whole
    // big region rather than its first few hundred pieces.
    TableSet set = fuzz_tables(rng);
    const bool big = round % 8 == 0;
    if (big) {
      const std::size_t pieces = round == 0 ? kNearCapPieces : large(rng);
      append_metric(set, rng() % 2 ? pieces / 2 : 0, pieces, round % 16 == 0,
                    rng);
    }
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 48);
    const Merge merge = (round % 2) ? Merge::kUnweighted : Merge::kTimeWeighted;
    std::vector<Dataset> datasets;
    datasets.push_back(fuzz_workload(set, n, rng));
    if (big) datasets.push_back(clustered_workload(set, 4 * n, rng));
    for (const Dataset& data : datasets) {
      const DatasetView view(data);
      expect_identical(scalar_outcome(set.tables(), view, merge),
                       direct_outcome(set.tables(), view, merge, lanes));
    }
  }
}

TEST(EvalBatchProperty, FuzzedTablesMatchScalarReferenceBitForBit) {
  fuzzed_tables_match_scalar(2);
}

TEST(EvalBatchProperty, FuzzedTablesMatchScalarReferenceBitForBitFourLanes) {
  if (serve::eval_kernel_lanes() < 4) GTEST_SKIP() << kNoFourLanes;
  fuzzed_tables_match_scalar(4);
}

/// A model trained on random samples of `metrics` metrics, served from an
/// in-memory image.
serve::MappedModel trained_model(std::size_t metrics, std::mt19937& rng) {
  std::uniform_real_distribution<double> work(0.1, 4.0);
  std::uniform_real_distribution<double> exponent(-1.0, 3.0);
  Dataset train;
  for (std::size_t m = 0; m < metrics; ++m) {
    for (int i = 0; i < 60; ++i) {
      const double p = work(rng);
      train.add(static_cast<Event>(m),
                {1.0, p, p / std::pow(10.0, exponent(rng))});
    }
  }
  return serve::MappedModel::compile(
      model::Ensemble::train(DatasetView(train)));
}

/// The served tables copied into a TableSet, so the fuzzers draw
/// workloads over the model's own metrics and pieces.
TableSet copy_tables(const EvalTables& tables) {
  TableSet set;
  set.metrics.assign(tables.metrics.begin(), tables.metrics.end());
  set.ranges.assign(tables.ranges.begin(), tables.ranges.end());
  set.x0.assign(tables.x0.begin(), tables.x0.end());
  set.y0.assign(tables.y0.begin(), tables.y0.end());
  set.x1.assign(tables.x1.begin(), tables.x1.end());
  set.y1.assign(tables.y1.begin(), tables.y1.end());
  return set;
}

TEST(EvalBatchProperty, EstimateViewsMatchesPerItemDirectLoop) {
  // The shard pump's batch, with mixed merge modes: an empty workload
  // carries the no-shared-metric text as its own error without poisoning
  // the batch, and every other item is bit-identical to serve::estimate.
  std::mt19937 rng(977);
  std::size_t empty_items = 0;
  std::size_t estimated_items = 0;
  for (int round = 0; round < 10; ++round) {
    const auto model = std::make_shared<const serve::MappedModel>(
        trained_model(1 + rng() % 4, rng));
    const serve::EstimationService service(model);
    const TableSet set = copy_tables(model->tables());
    for (int batch = 0; batch < 5; ++batch) {
      const std::size_t jobs = 1 + rng() % 6;
      std::vector<Dataset> datasets;
      for (std::size_t j = 0; j < jobs; ++j) {
        const std::size_t n = rng() % 4 == 0 ? 0 : 1 + rng() % 24;
        datasets.push_back(j % 2 ? clustered_workload(set, n, rng)
                                 : fuzz_workload(set, n, rng));
      }
      const std::vector<DatasetView> views(datasets.begin(), datasets.end());
      std::vector<serve::ViewJob> view_jobs(jobs);
      for (std::size_t j = 0; j < jobs; ++j) {
        view_jobs[j].view = &views[j];
        view_jobs[j].merge =
            rng() % 2 ? Merge::kUnweighted : Merge::kTimeWeighted;
      }
      const auto results = service.estimate_views(view_jobs);
      ASSERT_EQ(results.size(), jobs);
      for (std::size_t j = 0; j < jobs; ++j) {
        SCOPED_TRACE(testing::Message() << "round " << round << " batch "
                                        << batch << " item " << j);
        EXPECT_FALSE(results[j].deadline_expired);
        EXPECT_EQ(results[j].samples, views[j].size());
        if (datasets[j].size() == 0) {
          EXPECT_FALSE(results[j].ok());
          EXPECT_EQ(results[j].error,
                    "ensemble: workload shares no metric with the model");
          ++empty_items;
          continue;
        }
        expect_identical(
            direct_outcome(model->tables(), views[j], view_jobs[j].merge),
            Outcome{results[j].estimate, results[j].error});
        estimated_items += results[j].ok();
      }
    }
  }
  EXPECT_GT(empty_items, 0u);
  EXPECT_GT(estimated_items, 0u);
}

TEST(EvalBatchProperty, SinglePieceAndDuplicateSegmentTables) {
  // Hand-built degenerate shapes the fuzzer only hits probabilistically:
  // a single zero-width piece, a run of duplicate x1 values, and an
  // infinite-ceiling-only metric.
  TableSet set;
  // Metric 0: one zero-width piece at x = 2 (right region only).
  set.metrics.push_back(static_cast<Event>(0));
  set.ranges.push_back({0, 0, 0, 1, 0.0});
  set.x0.push_back(2.0);
  set.y0.push_back(3.0);
  set.x1.push_back(2.0);
  set.y1.push_back(5.0);
  // Metric 1: three pieces sharing x1 = 4 then an infinite tail.
  MetricRange r1;
  r1.left_begin = r1.left_end = r1.right_begin = 1;
  for (double y : {1.0, 2.0, 3.0}) {
    set.x0.push_back(4.0);
    set.y0.push_back(y);
    set.x1.push_back(4.0);
    set.y1.push_back(y + 1.0);
  }
  set.x0.push_back(4.0);
  set.y0.push_back(9.0);
  set.x1.push_back(kInf);
  set.y1.push_back(11.0);
  r1.right_end = 5;
  set.metrics.push_back(static_cast<Event>(1));
  set.ranges.push_back(r1);

  std::mt19937 rng(7);
  for (int round = 0; round < 40; ++round) {
    const Dataset data = fuzz_workload(set, 1 + rng() % 40, rng);
    const DatasetView view(data);
    expect_identical(
        scalar_outcome(set.tables(), view, Merge::kTimeWeighted),
        direct_outcome(set.tables(), view, Merge::kTimeWeighted));
  }
}

TEST(EvalBatchProperty, ClusteredIntensitiesMatchPerItemScalarLoop) {
  // Consecutive samples sharing a segment, as collected windows do, on a
  // trained-size model and on one with a region past 1024 pieces.
  std::mt19937 rng(31337);
  for (const std::size_t largest : {std::size_t{14}, std::size_t{1088}}) {
    SCOPED_TRACE(testing::Message() << "largest region " << largest);
    const TableSet set = sized_tables(largest, rng);
    std::vector<Dataset> datasets;
    for (int j = 0; j < 24; ++j) {
      datasets.push_back(clustered_workload(set, 1 + rng() % 96, rng));
    }
    expect_direct_matches_scalar(set, datasets);
  }
}

TEST(EvalBatchProperty, RegionSizesAcrossDirectPlannedCrossover) {
  // 1024 pieces was where a retired batch kernel took over from the
  // direct path. Region sizes on both sides of it still match the scalar
  // loop bit for bit, on clustered and garbage-laden workloads alike.
  std::mt19937 rng(8086);
  for (std::size_t largest = 1022; largest <= 1026; ++largest) {
    SCOPED_TRACE(testing::Message() << "largest region " << largest);
    const TableSet set = sized_tables(largest, rng);
    std::vector<Dataset> datasets;
    for (int j = 0; j < 24; ++j) {
      datasets.push_back(j % 2 ? clustered_workload(set, 1 + rng() % 64, rng)
                               : fuzz_workload(set, rng() % 48, rng));
    }
    expect_direct_matches_scalar(set, datasets);
  }
}

TEST(EvalBatchProperty, GapBeforeZeroWidthPieceMatchesScalarReference) {
  // Image tables need not be contiguous: an intensity inside a gap resolves
  // to the next piece, and when that piece is zero-width the reference
  // answers its y0 rather than dividing by zero. Checked next to a small
  // model and next to one with a region past 1024 pieces.
  std::mt19937 rng(2718);
  for (const std::size_t largest : {std::size_t{6}, std::size_t{1025}}) {
    TableSet set = sized_tables(largest, rng);
    MetricRange gapped;
    gapped.left_begin = gapped.left_end = gapped.right_begin =
        static_cast<std::uint32_t>(set.x0.size());
    // [0, 2], gap, zero-width at 3, [3, 5], then a flat infinite tail.
    const double pieces[][4] = {{0.0, 1.0, 2.0, 4.0},
                                {3.0, 6.0, 3.0, 8.0},
                                {3.0, 5.0, 5.0, 7.0},
                                {5.0, 7.0, kInf, 7.0}};
    for (const auto& piece : pieces) {
      set.x0.push_back(piece[0]);
      set.y0.push_back(piece[1]);
      set.x1.push_back(piece[2]);
      set.y1.push_back(piece[3]);
    }
    gapped.right_end = static_cast<std::uint32_t>(set.x0.size());
    set.metrics.push_back(static_cast<Event>(set.metrics.size()));
    set.ranges.push_back(gapped);

    std::vector<Dataset> datasets;
    for (int j = 0; j < 12; ++j) {
      Dataset data = clustered_workload(set, 8 + rng() % 32, rng);
      for (const double x : {1.0, 2.0, 2.25, 2.5, 2.99, 3.0, 4.0, 9.0}) {
        data.add(set.metrics.back(), {1.0 + j, x, 1.0});
      }
      datasets.push_back(std::move(data));
    }
    expect_direct_matches_scalar(set, datasets);
  }
}

/// Intensities where the pair kernel's selects change answer for metric
/// `m`: every finite endpoint of both regions (breakpoints, each region's
/// x0[begin], left_max among them), the doubles either side of each, 0
/// and +inf.
std::vector<double> edge_intensities(const TableSet& set, std::size_t m) {
  const MetricRange& range = set.ranges[m];
  std::vector<double> xs = {0.0, kInf, range.left_max};
  for (std::size_t i = range.left_begin; i < range.right_end; ++i) {
    for (const double x : {set.x0[i], set.x1[i]}) {
      if (!std::isfinite(x)) continue;
      xs.push_back(x);
      xs.push_back(std::nextafter(x, kInf));
      if (x > 0.0) xs.push_back(std::nextafter(x, 0.0));
    }
  }
  return xs;
}

/// A sample whose intensity w / m is exactly `x` (m = 0 for +inf).
Sample at_intensity(double x, double t = 1.0) {
  return std::isinf(x) ? Sample{t, 1.0, 0.0} : Sample{t, x, 1.0};
}

void pair_kernel_edge_intensities_match_scalar(std::size_t lanes) {
  // One-sample workloads with t = 1, so p_bar is the lane's roofline value
  // itself (up to the sign of a zero, which Eq. 1's sum drops): each must
  // match the scalar reference at intensities on a breakpoint, on
  // left_max, on each region's x0[begin], and either side of each, for
  // metrics with and without a left region.
  std::mt19937 rng(4242);
  for (int round = 0; round < 20; ++round) {
    TableSet set = fuzz_tables(rng);
    append_metric(set, 0, 1 + rng() % 6, round % 2 == 0, rng);  // no left
    // At x0[begin] the front select answers y0 and interpolation
    // y0 + 0 * (y1 - y0): the same value but for a -0.0 y0, which only
    // the checked build's per-lane bit compare can see.
    set.y0[set.ranges.back().right_begin] = -0.0;
    append_metric(set, 1 + rng() % 6, 1 + rng() % 6, round % 2 == 1, rng);
    const EvalTables tables = set.tables();
    for (std::size_t m = 0; m < set.metrics.size(); ++m) {
      for (const double x : edge_intensities(set, m)) {
        SCOPED_TRACE(testing::Message()
                     << "round " << round << " metric " << m
                     << " intensity " << x);
        Dataset data;
        data.add(set.metrics[m], at_intensity(x));
        const DatasetView view(data);
        const Outcome direct =
            direct_outcome(tables, view, Merge::kTimeWeighted, lanes);
        ASSERT_TRUE(direct.ok()) << direct.error;
        ASSERT_EQ(direct.estimate->ranking.size(), 1u);
        EXPECT_EQ(direct.estimate->ranking[0].p_bar,
                  serve::eval_roofline(tables, set.ranges[m], x));
        expect_identical(scalar_outcome(tables, view, Merge::kTimeWeighted),
                         direct);
      }
    }
  }
}

TEST(EvalBatchProperty, PairKernelEdgeIntensitiesMatchScalarReference) {
  pair_kernel_edge_intensities_match_scalar(2);
}

TEST(EvalBatchProperty,
     PairKernelEdgeIntensitiesMatchScalarReferenceFourLanes) {
  if (serve::eval_kernel_lanes() < 4) GTEST_SKIP() << kNoFourLanes;
  pair_kernel_edge_intensities_match_scalar(4);
}

void pair_kernel_mixed_lanes_match_scalar(std::size_t lanes) {
  // Steps of `lanes` samples where exactly one lane is dropped by the
  // structural filter (NaN, negative, t <= 0) or has m == 0 (+inf
  // intensity), in each lane position, over 1-9 samples (so the last step
  // is short by every amount), under both merge modes.
  std::mt19937 rng(1234);
  const Sample odd_lanes[] = {
      {kNaN, 1.0, 1.0}, {1.0, kNaN, 1.0}, {1.0, 1.0, kNaN},
      {-1.0, 1.0, 1.0}, {1.0, -1.0, 1.0}, {1.0, 1.0, -1.0},
      {0.0, 1.0, 1.0},  {1.0, kInf, 1.0}, {1.0, 1.0, 0.0},
      {2.5, 0.0, 0.0}};
  for (int round = 0; round < 20; ++round) {
    TableSet set = fuzz_tables(rng);
    append_metric(set, 0, 1 + rng() % 6, true, rng);  // no left region
    const EvalTables tables = set.tables();
    for (std::size_t n = 1; n <= 9; ++n) {
      for (const Sample& odd : odd_lanes) {
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          Dataset data;
          for (std::size_t m = 0; m < set.metrics.size(); ++m) {
            const std::vector<double> xs = edge_intensities(set, m);
            for (std::size_t k = 0; k < n; ++k) {
              // Sample k % lanes == lane of every step is the odd one.
              data.add(set.metrics[m],
                       k % lanes == lane ? odd
                                     : at_intensity(xs[rng() % xs.size()],
                                                    0.5 + rng() % 4));
            }
          }
          const DatasetView view(data);
          for (const Merge merge : {Merge::kTimeWeighted, Merge::kUnweighted}) {
            SCOPED_TRACE(testing::Message()
                         << "round " << round << " n " << n << " lane "
                         << lane << " merge " << static_cast<int>(merge));
            expect_identical(scalar_outcome(tables, view, merge),
                             direct_outcome(tables, view, merge, lanes));
          }
        }
      }
    }
  }
}

TEST(EvalBatchProperty, PairKernelMixedLanesAndOddCountsMatchScalarReference) {
  pair_kernel_mixed_lanes_match_scalar(2);
}

TEST(EvalBatchProperty,
     PairKernelMixedLanesAndOddCountsMatchScalarReferenceFourLanes) {
  if (serve::eval_kernel_lanes() < 4) GTEST_SKIP() << kNoFourLanes;
  pair_kernel_mixed_lanes_match_scalar(4);
}

void regions_around_pair_kernel_bound_match_scalar(std::size_t lanes) {
  // Regions of K - 1 and K pieces take the pair kernel, K + 1 the one-lane
  // search; each matches the scalar loop bit for bit, at edge intensities,
  // on clustered and garbage-laden workloads, under both merge modes.
  std::mt19937 rng(4848);
  const std::size_t k = serve::kPairMaxRegionPieces;
  for (const std::size_t largest : {k - 1, k, k + 1}) {
    SCOPED_TRACE(testing::Message() << "largest region " << largest);
    TableSet set = sized_tables(largest, rng);
    append_metric(set, 0, largest, true, rng);  // no left region
    std::vector<Dataset> datasets;
    for (int j = 0; j < 24; ++j) {
      datasets.push_back(j % 2 ? clustered_workload(set, 1 + rng() % 64, rng)
                               : fuzz_workload(set, rng() % 48, rng));
    }
    Dataset edges;
    for (std::size_t m = 0; m < set.metrics.size(); ++m) {
      for (const double x : edge_intensities(set, m)) {
        edges.add(set.metrics[m], at_intensity(x, 0.5 + rng() % 4));
      }
    }
    datasets.push_back(std::move(edges));
    expect_direct_matches_scalar(set, datasets, lanes);
  }
}

TEST(EvalBatchProperty, RegionsAroundPairKernelBoundMatchScalarReference) {
  regions_around_pair_kernel_bound_match_scalar(2);
}

TEST(EvalBatchProperty,
     RegionsAroundPairKernelBoundMatchScalarReferenceFourLanes) {
  if (serve::eval_kernel_lanes() < 4) GTEST_SKIP() << kNoFourLanes;
  regions_around_pair_kernel_bound_match_scalar(4);
}

TEST(EvalBatchKernel, LanesFollowTheHost) {
  // The width serve::estimate runs at is printed here, so a log shows
  // which one a host tested: 4 exactly where an x86-64 host has AVX2.
  const std::size_t lanes = serve::eval_kernel_lanes();
  std::cout << "eval_kernel_lanes() = " << lanes << "\n";
  RecordProperty("eval_kernel_lanes", static_cast<int>(lanes));
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  EXPECT_EQ(lanes, __builtin_cpu_supports("avx2") ? 4u : 2u);
#else
  EXPECT_EQ(lanes, 2u);
#endif
  // The width serve::estimate runs at gives its bits; a width this host
  // does not run is refused.
  std::mt19937 rng(26);
  const TableSet set = fuzz_tables(rng);
  const Dataset data = fuzz_workload(set, 9, rng);
  const DatasetView view(data);
  expect_identical(
      direct_outcome(set.tables(), view, Merge::kTimeWeighted),
      direct_outcome(set.tables(), view, Merge::kTimeWeighted, lanes));
  for (const std::size_t bad : {std::size_t{1}, std::size_t{3}, lanes * 2}) {
    EXPECT_THROW(serve::detail::estimate_with_lanes(set.tables(), view,
                                                    Merge::kTimeWeighted, bad),
                 util::ContractViolation)
        << bad << " lanes";
  }
}

TEST(EvalBatchProperty, NoSharedMetricThrowsSameErrorText) {
  std::mt19937 rng(11);
  const Dataset empty;
  const DatasetView view(empty);
  const TableSet set = fuzz_tables(rng);
  std::string scalar_text, direct_text;
  try {
    serve::estimate_tables(set.tables(), view, Merge::kTimeWeighted);
  } catch (const std::invalid_argument& e) {
    scalar_text = e.what();
  }
  try {
    serve::estimate(set.tables(), view, Merge::kTimeWeighted);
  } catch (const std::invalid_argument& e) {
    direct_text = e.what();
  }
  ASSERT_FALSE(scalar_text.empty());
  EXPECT_EQ(scalar_text, direct_text);
}

TEST(EvalBatchCounters, PlannedAndScalarPathsAreCounted) {
  // Every estimate counts one scalar batch per ranked metric and its
  // samples as scalar lanes, at any region size; the planned counters
  // name a retired kernel and stay 0.
  std::mt19937 rng(5);
  for (const std::size_t largest : {std::size_t{6}, std::size_t{1025}}) {
    SCOPED_TRACE(testing::Message() << "largest region " << largest);
    const TableSet set = sized_tables(largest, rng);
    Dataset lanes;
    for (std::size_t i = 0; i < 64; ++i) {
      lanes.add(set.metrics.front(), {1.0, 1.0 + static_cast<double>(i), 1.0});
    }
    const auto before = serve::eval_counters_snapshot();
    (void)serve::estimate(set.tables(), DatasetView(lanes),
                          Merge::kTimeWeighted);
    const auto after = serve::eval_counters_snapshot();
    EXPECT_EQ(after.scalar_batches, before.scalar_batches + 1);
    EXPECT_EQ(after.scalar_lanes, before.scalar_lanes + 64);

    // An estimate that throws counts nothing.
    const Dataset empty;
    EXPECT_THROW(serve::estimate(set.tables(), DatasetView(empty),
                                 Merge::kTimeWeighted),
                 std::invalid_argument);
    const auto failed = serve::eval_counters_snapshot();
    EXPECT_EQ(failed.scalar_batches, after.scalar_batches);
    EXPECT_EQ(failed.scalar_lanes, after.scalar_lanes);
    EXPECT_EQ(failed.planned_batches, 0u);
    EXPECT_EQ(failed.planned_lanes, 0u);
  }
}

TEST(EvalBatchThreads, OneTableSetIsRaceFreeAcrossPoolWorkers) {
  // Pool workers evaluate one shared, immutable table set at once; under
  // TSan this is the proof that the evaluator shares nothing
  // unsynchronized (the relaxed counters are the only shared state it
  // writes). Run on a fuzzed model and on one with a region past 1024
  // pieces.
  std::mt19937 rng(99);
  std::vector<TableSet> sets;
  sets.push_back(fuzz_tables(rng));
  sets.push_back(sized_tables(1025, rng));
  util::ExecOptions exec;
  exec.threads = 4;
  for (const TableSet& set : sets) {
    std::vector<Dataset> datasets;
    for (int i = 0; i < 16; ++i) {
      datasets.push_back(i % 2 ? clustered_workload(set, 40, rng, true)
                               : fuzz_workload(set, 40, rng));
    }
    const std::vector<DatasetView> views(datasets.begin(), datasets.end());
    const auto parallel =
        util::parallel_for_index(exec, views.size(), [&](std::size_t i) {
          return serve::estimate(set.tables(), views[i], Merge::kTimeWeighted);
        });
    ASSERT_EQ(parallel.size(), views.size());
    for (std::size_t i = 0; i < views.size(); ++i) {
      expect_identical(serve::estimate_tables(set.tables(), views[i],
                                              Merge::kTimeWeighted),
                       parallel[i]);
    }
  }
}

}  // namespace
}  // namespace spire
