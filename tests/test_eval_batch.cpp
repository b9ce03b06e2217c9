// Property tests for the serving evaluator (serve/model_eval.h).
//
// The contract under test: serve::estimate is bit-identical to the scalar
// reference estimate_tables — same ulps, ranking order, skip reasons, and
// exception text — and serve::estimate_many is bit-identical to a scalar
// loop with per-item error capture, over fuzzed tables that include
// duplicate and zero-width segments, infinite ceilings, single-piece
// metrics, missing left regions, regions from one piece up to the image
// format's cap, and sample streams that are clustered or full of
// NaN/inf/negative garbage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "counters/events.h"
#include "sampling/dataset.h"
#include "sampling/dataset_view.h"
#include "serve/model_eval.h"
#include "spire/model_bin.h"

namespace spire {
namespace {

using counters::Event;
using model::Estimate;
using model::Merge;
using model::bin::MetricRange;
using sampling::Dataset;
using sampling::DatasetView;
using sampling::Sample;
using serve::EvalOutcome;
using serve::EvalTables;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Largest region the fuzzer builds: the image format's per-region cap, less
/// one so it is a valid piece count for either region.
constexpr std::size_t kNearCapPieces = model::bin::kMaxRegionCorners - 1;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

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

/// Scalar-reference outcome with the same per-item error capture
/// estimate_many performs.
EvalOutcome scalar_outcome(const EvalTables& tables, DatasetView view,
                           Merge merge) {
  EvalOutcome out;
  try {
    out.estimate = serve::estimate_tables(tables, view, merge);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

/// serve::estimate with the same per-item error capture.
EvalOutcome direct_outcome(const EvalTables& tables, DatasetView view,
                           Merge merge) {
  EvalOutcome out;
  try {
    out.estimate = serve::estimate(tables, view, merge);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

void expect_identical(const Estimate& a, const Estimate& b) {
  EXPECT_TRUE(same_bits(a.throughput, b.throughput))
      << a.throughput << " vs " << b.throughput;
  ASSERT_EQ(a.ranking.size(), b.ranking.size());
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].metric, b.ranking[i].metric);
    EXPECT_TRUE(same_bits(a.ranking[i].p_bar, b.ranking[i].p_bar))
        << "metric " << static_cast<int>(a.ranking[i].metric) << ": "
        << a.ranking[i].p_bar << " vs " << b.ranking[i].p_bar;
    EXPECT_EQ(a.ranking[i].samples, b.ranking[i].samples);
  }
  ASSERT_EQ(a.skipped.size(), b.skipped.size());
  for (std::size_t i = 0; i < a.skipped.size(); ++i) {
    EXPECT_EQ(a.skipped[i].metric, b.skipped[i].metric);
    EXPECT_EQ(a.skipped[i].reason, b.skipped[i].reason);
  }
}

void expect_identical(const EvalOutcome& scalar, const EvalOutcome& direct) {
  ASSERT_EQ(scalar.ok(), direct.ok()) << scalar.error << " vs " << direct.error;
  if (scalar.ok()) {
    expect_identical(*scalar.estimate, *direct.estimate);
  } else {
    EXPECT_EQ(scalar.error, direct.error);
  }
}

/// estimate on every workload, and estimate_many over consecutive groups
/// of 1, 12 and 24 workloads (mixed merge modes), each bit-identical to
/// the per-item scalar loop.
void expect_batches_match_scalar(const TableSet& set,
                                 const std::vector<Dataset>& datasets) {
  std::vector<DatasetView> views(datasets.begin(), datasets.end());
  std::vector<Merge> merges;
  for (std::size_t j = 0; j < views.size(); ++j) {
    merges.push_back(j % 3 ? Merge::kTimeWeighted : Merge::kUnweighted);
  }
  std::vector<EvalOutcome> scalar;
  for (std::size_t j = 0; j < views.size(); ++j) {
    scalar.push_back(scalar_outcome(set.tables(), views[j], merges[j]));
    expect_identical(scalar[j],
                     direct_outcome(set.tables(), views[j], merges[j]));
  }
  for (const std::size_t group : {1, 12, 24}) {
    for (std::size_t lo = 0; lo < views.size(); lo += group) {
      const std::size_t n = std::min(group, views.size() - lo);
      const auto outcomes = serve::estimate_many(
          set.tables(), std::span<const DatasetView>(views.data() + lo, n),
          std::span<const Merge>(merges.data() + lo, n));
      ASSERT_EQ(outcomes.size(), n);
      for (std::size_t j = 0; j < n; ++j) {
        SCOPED_TRACE(testing::Message() << "group " << group << " item "
                                        << lo + j);
        expect_identical(scalar[lo + j], outcomes[j]);
      }
    }
  }
}

TEST(EvalBatchProperty, FuzzedTablesMatchScalarReferenceBitForBit) {
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
                       direct_outcome(set.tables(), view, merge));
    }
  }
}

TEST(EvalBatchProperty, EstimateManyMatchesPerItemScalarLoop) {
  std::mt19937 rng(977);
  for (int round = 0; round < 50; ++round) {
    const TableSet set = fuzz_tables(rng);
    std::vector<Dataset> datasets;
    std::vector<DatasetView> views;
    std::vector<Merge> merges;
    const std::size_t jobs = 1 + rng() % 6;
    datasets.reserve(jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
      // Include empty workloads: they must surface the scalar path's
      // no-shared-metric error text, not poison the batch.
      const std::size_t n = rng() % 4 == 0 ? 0 : 1 + rng() % 24;
      datasets.push_back(fuzz_workload(set, n, rng));
      views.emplace_back(datasets.back());
      merges.push_back(rng() % 2 ? Merge::kUnweighted : Merge::kTimeWeighted);
    }
    const auto outcomes =
        serve::estimate_many(set.tables(), std::span<const DatasetView>(views),
                             std::span<const Merge>(merges));
    ASSERT_EQ(outcomes.size(), jobs);
    for (std::size_t j = 0; j < jobs; ++j) {
      expect_identical(scalar_outcome(set.tables(), views[j], merges[j]),
                       outcomes[j]);
    }
  }
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
    expect_batches_match_scalar(set, datasets);
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
    expect_batches_match_scalar(set, datasets);
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
    expect_batches_match_scalar(set, datasets);
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

    // estimate_many counts its successful items only.
    const Dataset empty;
    const std::vector<DatasetView> views{DatasetView(lanes), DatasetView(empty),
                                         DatasetView(lanes)};
    const std::vector<Merge> merges(views.size(), Merge::kTimeWeighted);
    const auto outcomes = serve::estimate_many(
        set.tables(), std::span<const DatasetView>(views),
        std::span<const Merge>(merges));
    ASSERT_FALSE(outcomes[1].ok());
    const auto many = serve::eval_counters_snapshot();
    EXPECT_EQ(many.scalar_batches, after.scalar_batches + 2);
    EXPECT_EQ(many.scalar_lanes, after.scalar_lanes + 2 * 64);
    EXPECT_EQ(many.planned_batches, 0u);
    EXPECT_EQ(many.planned_lanes, 0u);
  }
}

TEST(EvalBatchThreads, ThreadLocalScratchIsRaceFreeAcrossPoolWorkers) {
  // estimate_batch_tables fans workloads across pool workers over one
  // shared, immutable table set; under TSan this is the proof that the
  // evaluator shares nothing unsynchronized (the relaxed counters are the
  // only shared state it writes). Run on a fuzzed model and on one with a
  // region past 1024 pieces.
  std::mt19937 rng(99);
  std::vector<TableSet> sets;
  sets.push_back(fuzz_tables(rng));
  sets.push_back(sized_tables(1025, rng));
  util::ExecOptions exec;
  exec.threads = 4;
  for (const TableSet& set : sets) {
    std::vector<Dataset> datasets;
    std::vector<DatasetView> views;
    datasets.reserve(16);
    for (int i = 0; i < 16; ++i) {
      datasets.push_back(i % 2 ? clustered_workload(set, 40, rng, true)
                               : fuzz_workload(set, 40, rng));
      views.emplace_back(datasets.back());
    }
    const auto parallel = serve::estimate_batch_tables(
        set.tables(), std::span<const DatasetView>(views), exec,
        Merge::kTimeWeighted);
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
