// Property tests for EvalBatch's direct and planned paths
// (serve/model_eval.h).
//
// The contract under test: EvalBatch::estimate is bit-identical to the
// scalar reference estimate_tables — same ulps, ranking order, skip
// reasons, and exception text — and EvalBatch::estimate_many is
// bit-identical to a scalar loop with per-item error capture, over fuzzed
// tables that include duplicate and zero-width segments, infinite
// ceilings, single-piece metrics, missing left regions, region sizes on
// both sides of the direct/planned crossover, and sample streams that are
// clustered or full of NaN/inf/negative garbage. The suite runs unchanged at
// SPIRE_SIMD ON and OFF (CI builds both), which is what proves the
// vectorized execute loop and the scalar fallback cannot drift.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "counters/events.h"
#include "sampling/dataset.h"
#include "sampling/dataset_view.h"
#include "serve/model_eval.h"
#include "spire/model_bin_v3.h"
#include "util/contract.h"

namespace spire {
namespace {

using counters::Event;
using model::Estimate;
using model::Merge;
using model::v3::MetricRange;
using sampling::Dataset;
using sampling::DatasetView;
using sampling::Sample;
using serve::EvalBatch;
using serve::EvalOutcome;
using serve::EvalTables;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Owns fuzzable table columns and exposes them in the evaluator shape.
/// The v3 writer's invariants hold by construction: per-region x1 ascends
/// (lower_bound requirement), the right region is never empty, metrics
/// ascend by event id.
struct TableSet {
  std::vector<Event> metrics;
  std::vector<MetricRange> ranges;
  std::vector<double> x0, y0, x1, y1;

  /// The columns without a plan: what the kernel must refuse.
  EvalTables raw() const { return {metrics, ranges, x0, y0, x1, y1}; }

  /// The columns with their EvalPlan attached (built on first use, so the
  /// set must be complete by then) — the shape MappedModel serves
  /// through: the interleaved-row execute path, and the AVX2 select when
  /// the build compiled it and the CPU has it. The scalar reference
  /// ignores the plan.
  EvalTables tables() const {
    if (!plan) {
      plan = std::make_unique<serve::EvalPlan>(serve::EvalPlan::build(raw()));
    }
    EvalTables t = raw();
    t.plan = plan.get();
    return t;
  }

  mutable std::unique_ptr<serve::EvalPlan> plan;
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

/// A fuzzed model: 1-4 metrics, each with an optional left region and a
/// non-empty right region (single-piece metrics included).
TableSet fuzz_tables(std::mt19937& rng) {
  TableSet set;
  std::uniform_int_distribution<int> metric_count(1, 4);
  std::uniform_int_distribution<int> piece_count(1, 6);
  std::bernoulli_distribution with_left(0.6);
  std::bernoulli_distribution with_inf(0.5);
  const int metrics = metric_count(rng);
  for (int m = 0; m < metrics; ++m) {
    MetricRange range;
    range.left_begin = static_cast<std::uint32_t>(set.x0.size());
    double right_start = 0.0;
    if (with_left(rng)) {
      RegionSpec left;
      left.pieces = static_cast<std::size_t>(piece_count(rng));
      append_region(set, left, rng);
      right_start = set.x1.back();
      if (!std::isfinite(right_start)) right_start = set.x0.back();
      range.left_max = right_start;
    }
    range.left_end = static_cast<std::uint32_t>(set.x0.size());
    range.right_begin = range.left_end;
    RegionSpec right;
    right.pieces = static_cast<std::size_t>(piece_count(rng));
    right.start = right_start;
    right.infinite_tail = with_inf(rng);
    append_region(set, right, rng);
    range.right_end = static_cast<std::uint32_t>(set.x0.size());
    // Ascending event ids, like compile() emits.
    set.metrics.push_back(static_cast<Event>(m));
    set.ranges.push_back(range);
  }
  return set;
}

/// A model whose largest region has exactly `largest` pieces: metric 0's
/// right region is that big (with a left region of `largest / 2` pieces),
/// and two small fuzzed-size metrics ride along. EvalPlan::build picks the
/// path from exactly this size, so sweeping `largest` across
/// kDirectMaxRegionPieces drives both sides of the direct/planned seam.
TableSet sized_tables(std::size_t largest, std::mt19937& rng) {
  TableSet set;
  for (int m = 0; m < 3; ++m) {
    MetricRange range;
    range.left_begin = static_cast<std::uint32_t>(set.x0.size());
    const std::size_t right = m == 0 ? largest : 1 + rng() % 6;
    const std::size_t left = m == 0 ? largest / 2 : rng() % 4;
    double right_start = 0.0;
    if (left > 0) {
      append_region(set, {left, 0.0, false}, rng);
      right_start = set.x1.back();
      range.left_max = right_start;
    }
    range.left_end = static_cast<std::uint32_t>(set.x0.size());
    range.right_begin = range.left_end;
    append_region(set, {right, right_start, m == 1}, rng);
    range.right_end = static_cast<std::uint32_t>(set.x0.size());
    set.metrics.push_back(static_cast<Event>(m));
    set.ranges.push_back(range);
  }
  return set;
}

/// A copy of `set` with one more metric whose right region holds
/// kDirectMaxRegionPieces + 1 pieces. EvalPlan::build then plans the whole
/// model, so every original metric, its shape intact, runs through the
/// planned kernel (stage, sweep or routed search, select) instead of the
/// direct path.
TableSet with_planned_metric(const TableSet& set) {
  TableSet out;
  out.metrics = set.metrics;
  out.ranges = set.ranges;
  out.x0 = set.x0;
  out.y0 = set.y0;
  out.x1 = set.x1;
  out.y1 = set.y1;
  std::mt19937 rng(static_cast<unsigned>(set.x0.size()));
  MetricRange range;
  range.left_begin = range.left_end = range.right_begin =
      static_cast<std::uint32_t>(out.x0.size());
  append_region(out, {serve::EvalPlan::kDirectMaxRegionPieces + 1, 0.0, true},
                rng);
  range.right_end = static_cast<std::uint32_t>(out.x0.size());
  out.metrics.push_back(static_cast<Event>(
      set.metrics.empty() ? 0 : static_cast<int>(set.metrics.back()) + 1));
  out.ranges.push_back(range);
  return out;
}

/// One table shape on both EvalBatch paths: `set` itself, which must take
/// the direct path, then its with_planned_metric copy, which must not.
std::vector<TableSet> both_paths(TableSet set) {
  std::vector<TableSet> sets;
  sets.push_back(with_planned_metric(set));
  sets.insert(sets.begin(), std::move(set));
  EXPECT_TRUE(sets[0].tables().plan->direct);
  EXPECT_FALSE(sets[1].tables().plan->direct);
  return sets;
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

void expect_identical(const EvalOutcome& scalar, const EvalOutcome& batch) {
  ASSERT_EQ(scalar.ok(), batch.ok()) << scalar.error << " vs " << batch.error;
  if (scalar.ok()) {
    expect_identical(*scalar.estimate, *batch.estimate);
  } else {
    EXPECT_EQ(scalar.error, batch.error);
  }
}

/// EvalBatch::estimate with the same per-item error capture.
EvalOutcome batch_outcome(EvalBatch& batch, const EvalTables& tables,
                          DatasetView view, Merge merge) {
  EvalOutcome out;
  try {
    out.estimate = batch.estimate(tables, view, merge);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

/// estimate on every workload, and estimate_many over consecutive groups
/// of 1, 12 and 24 workloads (mixed merge modes), each bit-identical to
/// the per-item scalar loop.
void expect_batches_match_scalar(const TableSet& set,
                                 const std::vector<Dataset>& datasets,
                                 EvalBatch& batch) {
  std::vector<DatasetView> views(datasets.begin(), datasets.end());
  std::vector<Merge> merges;
  for (std::size_t j = 0; j < views.size(); ++j) {
    merges.push_back(j % 3 ? Merge::kTimeWeighted : Merge::kUnweighted);
  }
  std::vector<EvalOutcome> scalar;
  for (std::size_t j = 0; j < views.size(); ++j) {
    scalar.push_back(scalar_outcome(set.raw(), views[j], merges[j]));
    EvalOutcome single;
    try {
      single.estimate = batch.estimate(set.tables(), views[j], merges[j]);
    } catch (const std::exception& e) {
      single.error = e.what();
    }
    expect_identical(scalar[j], single);
  }
  for (const std::size_t group : {1, 12, 24}) {
    for (std::size_t lo = 0; lo < views.size(); lo += group) {
      const std::size_t n = std::min(group, views.size() - lo);
      const auto outcomes = batch.estimate_many(
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
  EvalBatch batch;
  for (int round = 0; round < 200; ++round) {
    // Every fuzzed shape runs direct and, with a planned-size metric
    // alongside, planned; the batch size sweeps across the kMinPlanLanes
    // cutoff so the planned kernel's scalar fallback faces every shape too.
    const std::vector<TableSet> sets = both_paths(fuzz_tables(rng));
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 48);
    const Dataset data = fuzz_workload(sets.front(), n, rng);
    const DatasetView view(data);
    const Merge merge = (round % 2) ? Merge::kUnweighted : Merge::kTimeWeighted;
    for (const TableSet& set : sets) {
      expect_identical(scalar_outcome(set.raw(), view, merge),
                       batch_outcome(batch, set.tables(), view, merge));
    }
  }
}

TEST(EvalBatchProperty, EstimateManyMatchesPerItemScalarLoop) {
  std::mt19937 rng(977);
  EvalBatch batch;
  for (int round = 0; round < 50; ++round) {
    const std::vector<TableSet> sets = both_paths(fuzz_tables(rng));
    const TableSet& set = sets.front();
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
    for (const TableSet& path : sets) {
      const auto outcomes = batch.estimate_many(
          path.tables(), std::span<const DatasetView>(views),
          std::span<const Merge>(merges));
      ASSERT_EQ(outcomes.size(), jobs);
      for (std::size_t j = 0; j < jobs; ++j) {
        expect_identical(scalar_outcome(path.raw(), views[j], merges[j]),
                         outcomes[j]);
      }
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

  const std::vector<TableSet> sets = both_paths(std::move(set));
  std::mt19937 rng(7);
  EvalBatch batch;
  for (int round = 0; round < 40; ++round) {
    const Dataset data = fuzz_workload(sets.front(), 1 + rng() % 40, rng);
    const DatasetView view(data);
    for (const TableSet& path : sets) {
      expect_identical(
          scalar_outcome(path.raw(), view, Merge::kTimeWeighted),
          batch_outcome(batch, path.tables(), view, Merge::kTimeWeighted));
    }
  }
}

TEST(EvalBatchProperty, PlanCutoffBoundaryIsSeamless) {
  // kMinPlanLanes is where a planned model's kernel switches from the
  // scalar fallback to the planned sort/sweep path; results must be
  // bit-identical on both sides of (and exactly at) the seam. The tables
  // are big enough to plan, and clean samples make the lane count exact.
  std::mt19937 rng(4242);
  const TableSet set =
      sized_tables(serve::EvalPlan::kDirectMaxRegionPieces + 1, rng);
  ASSERT_FALSE(set.tables().plan->direct);
  EvalBatch batch;
  for (std::size_t n = EvalBatch::kMinPlanLanes - 2;
       n <= EvalBatch::kMinPlanLanes + 2; ++n) {
    const Dataset data = clustered_workload(set, n, rng, /*clean=*/true);
    const DatasetView view(data);
    const auto before = batch.stats();
    expect_identical(
        scalar_outcome(set.raw(), view, Merge::kTimeWeighted),
        batch_outcome(batch, set.tables(), view, Merge::kTimeWeighted));
    // Both sides of the seam really ran: every metric's n lanes go scalar
    // below the cutoff and planned from it on.
    const auto after = batch.stats();
    const std::size_t metrics = set.metrics.size();
    const bool planned = n >= EvalBatch::kMinPlanLanes;
    EXPECT_EQ(after.planned_batches - before.planned_batches,
              planned ? metrics : 0)
        << n;
    EXPECT_EQ(after.scalar_batches - before.scalar_batches,
              planned ? 0 : metrics)
        << n;
  }
}

TEST(EvalBatchProperty, ClusteredIntensitiesMatchPerItemScalarLoop) {
  // Consecutive samples sharing a segment, as collected windows do, on a
  // trained-size (direct) model and on a planned one.
  std::mt19937 rng(31337);
  for (const std::size_t largest :
       {std::size_t{14}, serve::EvalPlan::kDirectMaxRegionPieces + 64}) {
    SCOPED_TRACE(testing::Message() << "largest region " << largest);
    const TableSet set = sized_tables(largest, rng);
    EvalBatch batch;
    std::vector<Dataset> datasets;
    for (int j = 0; j < 24; ++j) {
      datasets.push_back(clustered_workload(set, 1 + rng() % 96, rng));
    }
    expect_batches_match_scalar(set, datasets, batch);
  }
}

TEST(EvalBatchProperty, RegionSizesAcrossDirectPlannedCrossover) {
  // EvalPlan::build picks the direct path up to kDirectMaxRegionPieces and
  // the planned one beyond it; both must match the scalar loop bit for bit
  // right at the seam, on clustered and garbage-laden workloads alike.
  std::mt19937 rng(8086);
  const std::size_t seam = serve::EvalPlan::kDirectMaxRegionPieces;
  for (std::size_t largest = seam - 2; largest <= seam + 2; ++largest) {
    SCOPED_TRACE(testing::Message() << "largest region " << largest);
    const TableSet set = sized_tables(largest, rng);
    EXPECT_EQ(set.tables().plan->direct, largest <= seam);
    EvalBatch batch;
    std::vector<Dataset> datasets;
    for (int j = 0; j < 24; ++j) {
      datasets.push_back(j % 2 ? clustered_workload(set, 1 + rng() % 64, rng)
                               : fuzz_workload(set, rng() % 48, rng));
    }
    expect_batches_match_scalar(set, datasets, batch);
  }
}

TEST(EvalBatchProperty, GapBeforeZeroWidthPieceMatchesScalarReference) {
  // v3 tables need not be contiguous: an intensity inside a gap resolves
  // to the next piece, and when that piece is zero-width the reference
  // answers its y0 rather than dividing by zero. Checked on a direct model
  // and on a planned one (the extra big metric forces the plan).
  std::mt19937 rng(2718);
  for (const std::size_t largest :
       {std::size_t{6}, serve::EvalPlan::kDirectMaxRegionPieces + 1}) {
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
    EXPECT_EQ(set.tables().plan->direct,
              largest <= serve::EvalPlan::kDirectMaxRegionPieces);

    EvalBatch batch;
    std::vector<Dataset> datasets;
    for (int j = 0; j < 12; ++j) {
      Dataset data = clustered_workload(set, 8 + rng() % 32, rng);
      for (const double x : {1.0, 2.0, 2.25, 2.5, 2.99, 3.0, 4.0, 9.0}) {
        data.add(set.metrics.back(), {1.0 + j, x, 1.0});
      }
      datasets.push_back(std::move(data));
    }
    expect_batches_match_scalar(set, datasets, batch);
  }
}

TEST(EvalBatchProperty, NoSharedMetricThrowsSameErrorText) {
  std::mt19937 rng(11);
  const Dataset empty;
  const DatasetView view(empty);
  EvalBatch batch;
  for (const TableSet& set : both_paths(fuzz_tables(rng))) {
    std::string scalar_text, batch_text;
    try {
      serve::estimate_tables(set.raw(), view, Merge::kTimeWeighted);
    } catch (const std::invalid_argument& e) {
      scalar_text = e.what();
    }
    try {
      batch.estimate(set.tables(), view, Merge::kTimeWeighted);
    } catch (const std::invalid_argument& e) {
      batch_text = e.what();
    }
    ASSERT_FALSE(scalar_text.empty());
    EXPECT_EQ(scalar_text, batch_text);
  }
}

TEST(EvalBatchProperty, PlanlessTablesAreRejected) {
  // The kernel has one plan path: the model-owned plan. Raw tables are an
  // oracle input only.
  std::mt19937 rng(13);
  const TableSet set = fuzz_tables(rng);
  const Dataset data = fuzz_workload(set, 4 * EvalBatch::kMinPlanLanes, rng);
  const DatasetView view(data);
  EvalBatch batch;
  EXPECT_THROW(batch.estimate(set.raw(), view, Merge::kTimeWeighted),
               util::ContractViolation);
  EXPECT_THROW(batch.estimate_many(set.raw(), std::span<const DatasetView>(
                                                  &view, 1),
                                   Merge::kTimeWeighted),
               util::ContractViolation);
}

TEST(EvalBatchCounters, PlannedAndScalarPathsAreCounted) {
  std::mt19937 rng(5);
  EvalBatch batch;

  // A trained-size model takes the direct path, counted as scalar lanes at
  // any batch size.
  const TableSet direct = fuzz_tables(rng);
  ASSERT_TRUE(direct.tables().plan->direct);
  const auto before_direct = batch.stats();
  Dataset lanes;
  for (std::size_t i = 0; i < 4 * EvalBatch::kMinPlanLanes; ++i) {
    lanes.add(direct.metrics.front(), {1.0, 1.0 + static_cast<double>(i), 1.0});
  }
  (void)batch.estimate(direct.tables(), DatasetView(lanes),
                       Merge::kTimeWeighted);
  const auto after_direct = batch.stats();
  EXPECT_EQ(after_direct.scalar_batches, before_direct.scalar_batches + 1);
  EXPECT_EQ(after_direct.scalar_lanes,
            before_direct.scalar_lanes + 4 * EvalBatch::kMinPlanLanes);
  EXPECT_EQ(after_direct.planned_batches, before_direct.planned_batches);

  // A model too big for the direct path plans, with the scalar fallback
  // below the lane cutoff.
  const TableSet set =
      sized_tables(serve::EvalPlan::kDirectMaxRegionPieces + 1, rng);
  ASSERT_FALSE(set.tables().plan->direct);
  const auto before = batch.stats();

  // Below the cutoff: scalar fallback.
  Dataset small;
  for (std::size_t i = 0; i < 3; ++i) {
    small.add(set.metrics.front(), {1.0, 2.0, 1.0});
  }
  (void)batch.estimate(set.tables(), DatasetView(small),
                       Merge::kTimeWeighted);
  const auto after_small = batch.stats();
  EXPECT_GT(after_small.scalar_batches, before.scalar_batches);
  EXPECT_EQ(after_small.planned_batches, before.planned_batches);

  // Well above the cutoff: planned.
  Dataset big;
  for (std::size_t i = 0; i < 4 * EvalBatch::kMinPlanLanes; ++i) {
    big.add(set.metrics.front(), {1.0, 1.0 + static_cast<double>(i), 1.0});
  }
  (void)batch.estimate(set.tables(), DatasetView(big), Merge::kTimeWeighted);
  const auto after_big = batch.stats();
  EXPECT_GT(after_big.planned_batches, after_small.planned_batches);
  EXPECT_GE(after_big.planned_lanes,
            after_small.planned_lanes + 4 * EvalBatch::kMinPlanLanes);

  // The process-wide aggregate ticks the same way (monotonic).
  const auto global = serve::eval_counters_snapshot();
  EXPECT_GE(global.planned_batches, after_big.planned_batches);
}

TEST(EvalBatchThreads, ThreadLocalScratchIsRaceFreeAcrossPoolWorkers) {
  // estimate_batch_tables fans workloads across pool workers, each
  // evaluating through its own thread_eval_batch() scratch; under TSan
  // this is the proof no scratch (or counter) is shared unsynchronized.
  // The planned model's 40 samples per metric clear kMinPlanLanes, so its
  // workers stage into and evaluate from their own kernel scratch.
  std::mt19937 rng(99);
  const std::vector<TableSet> sets = both_paths(fuzz_tables(rng));
  std::vector<Dataset> datasets;
  std::vector<DatasetView> views;
  datasets.reserve(16);
  for (int i = 0; i < 16; ++i) {
    datasets.push_back(fuzz_workload(sets.back(), 40, rng));
    views.emplace_back(datasets.back());
  }
  util::ExecOptions exec;
  exec.threads = 4;
  for (const TableSet& set : sets) {
    const auto parallel = serve::estimate_batch_tables(
        set.tables(), std::span<const DatasetView>(views), exec,
        Merge::kTimeWeighted);
    ASSERT_EQ(parallel.size(), views.size());
    for (std::size_t i = 0; i < views.size(); ++i) {
      expect_identical(
          serve::estimate_tables(set.raw(), views[i], Merge::kTimeWeighted),
          parallel[i]);
    }
  }
}

}  // namespace
}  // namespace spire
