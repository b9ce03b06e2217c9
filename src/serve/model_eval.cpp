#include "serve/model_eval.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "util/contract.h"

namespace spire::serve {

using model::Estimate;
using model::Merge;
using model::MetricEstimate;
using model::bin::MetricRange;
using sampling::DatasetView;
using sampling::Sample;

namespace {

constexpr const char* kNoSharedMetric =
    "ensemble: workload shares no metric with the model";

// Two-lane vectors (GCC/Clang vector extensions): SSE2 on x86-64, NEON on
// aarch64, scalar code elsewhere. Only element-wise arithmetic,
// comparisons, bitwise selects and subscripts touch them, which both
// compilers spell alike.
using f64x2 = double __attribute__((vector_size(16)));
using i64x2 = std::int64_t __attribute__((vector_size(16)));

f64x2 splat(double x) { return f64x2{x, x}; }
i64x2 splat_index(std::int64_t i) { return i64x2{i, i}; }

// Comparisons as all-ones / all-zeros lane masks.
i64x2 lt(f64x2 a, f64x2 b) { return (i64x2)(a < b); }
i64x2 le(f64x2 a, f64x2 b) { return (i64x2)(a <= b); }
i64x2 eq(f64x2 a, f64x2 b) { return (i64x2)(a == b); }
/// std::isfinite per lane: x - x is 0 for finite x and NaN otherwise.
i64x2 finite(f64x2 x) { return eq(x - x, f64x2{}); }

/// `mask ? a : b` per lane.
f64x2 select(i64x2 mask, f64x2 a, f64x2 b) {
  return (f64x2)(((i64x2)a & mask) | ((i64x2)b & ~mask));
}
i64x2 select(i64x2 mask, i64x2 a, i64x2 b) { return (a & mask) | (b & ~mask); }

/// std::lower_bound(ux + lo, ux + hi, x) - ux, branchless (masked add per
/// round, no data-dependent branch). Requires hi > lo.
std::size_t window_lower_bound(const double* ux, double x, std::size_t lo,
                               std::size_t hi) {
  const double* base = ux + lo;
  std::size_t len = hi - lo;
  while (len > 1) {
    const std::size_t half = len >> 1;
    base += half & (0 - static_cast<std::size_t>(base[half - 1] < x));
    len -= half;
  }
  std::size_t u = static_cast<std::size_t>(base - ux);
  u += static_cast<std::size_t>(*base < x);
  return u;
}

/// eval_roofline with the segment search passed in: `search(begin, end)`
/// is the first index in [begin, end) whose x1 >= the intensity, or `end`.
/// The scalar reference searches with std::lower_bound and the direct
/// path's large regions with the branchless window_lower_bound; the rest
/// is this one body.
template <typename Search>
double roofline_at(const EvalTables& tables, const MetricRange& range,
                   double intensity, Search search) {
  // Replicates MetricRoofline::estimate + PiecewiseLinear::at +
  // LinearPiece::at over one [begin, end) slice of the tables. Any drift
  // here breaks the bit-identity contract.
  SPIRE_ASSERT(!std::isnan(intensity) && intensity >= 0.0,
               "MetricRoofline: bad intensity ", intensity);
  std::size_t begin = range.right_begin;
  std::size_t end = range.right_end;
  if (range.has_left() && intensity <= range.left_max) {
    begin = range.left_begin;
    end = range.left_end;
  }
  if (intensity <= tables.x0[begin]) return tables.y0[begin];
  // First piece whose right edge reaches the point; at a shared boundary
  // the left segment wins (x1 == intensity stops here), matching
  // PiecewiseLinear::at's lower_bound on x1.
  const std::size_t i = search(begin, end);
  if (i == end) return tables.y1[end - 1];
  // LinearPiece::at, verbatim.
  if (!std::isfinite(tables.x1[i])) return tables.y0[i];
  if (tables.x1[i] == tables.x0[i]) return tables.y0[i];
  const double t = (intensity - tables.x0[i]) / (tables.x1[i] - tables.x0[i]);
  return tables.y0[i] + t * (tables.y1[i] - tables.y0[i]);
}

/// The direct path's lookup for regions past kPairMaxRegionPieces:
/// eval_roofline with the branchless search.
double direct_roofline(const EvalTables& tables, const MetricRange& range,
                       double intensity) {
  return roofline_at(tables, range, intensity,
                     [&](std::size_t begin, std::size_t end) {
                       return window_lower_bound(tables.x1.data(), intensity,
                                                 begin, end);
                     });
}

/// roofline_at over two lanes at once, for a metric whose regions hold at
/// most kPairMaxRegionPieces pieces. The segment search is a count of the
/// breakpoints below the intensity among the region's pieces but its last:
/// x1 ascends within a region (the precondition std::lower_bound already
/// has), so the count is the lower_bound offset whenever the last x1
/// reaches the intensity, and the lane is past the region (roofline_at's
/// i == end, which answers the last piece's y1) when it does not. The
/// counted index never leaves [begin, end - 1], so every gathered piece
/// lies inside the region whatever the table holds. The early returns
/// become selects, applied in roofline_at's priority order (the first
/// return taken there is the last select here). Lanes discarded by a
/// select may divide by zero; their results are never read.
class PairRoofline {
 public:
  PairRoofline(const EvalTables& tables, const MetricRange& range)
      : x0_(tables.x0.data()),
        y0_(tables.y0.data()),
        x1_(tables.x1.data()),
        y1_(tables.y1.data()),
        left_begin_(range.left_begin),
        left_last_(static_cast<std::int64_t>(range.left_end) - 1),
        right_begin_(range.right_begin),
        right_last_(static_cast<std::int64_t>(range.right_end) - 1),
        left_max_(splat(range.left_max)),
        has_left_(splat_index(range.has_left() ? -1 : 0)),
        // An absent left region has left_begin == right_begin, so its
        // front is a valid piece; its last x1 is never selected.
        front_x0_left_(splat(x0_[range.left_begin])),
        front_y0_left_(splat(y0_[range.left_begin])),
        front_x0_right_(splat(x0_[range.right_begin])),
        front_y0_right_(splat(y0_[range.right_begin])),
        last_x1_left_(splat(range.has_left() ? x1_[left_last_] : 0.0)),
        last_x1_right_(splat(x1_[right_last_])) {}

  f64x2 at(f64x2 x) const {
    const i64x2 left = has_left_ & le(x, left_max_);
    i64x2 left_i = splat_index(left_begin_);
    for (std::int64_t j = left_begin_; j < left_last_; ++j) {
      left_i -= lt(splat(x1_[j]), x);
    }
    i64x2 right_i = splat_index(right_begin_);
    for (std::int64_t j = right_begin_; j < right_last_; ++j) {
      right_i -= lt(splat(x1_[j]), x);
    }
    const i64x2 i = select(left, left_i, right_i);
    const i64x2 past = lt(select(left, last_x1_left_, last_x1_right_), x);
    const f64x2 x0{x0_[i[0]], x0_[i[1]]};
    const f64x2 y0{y0_[i[0]], y0_[i[1]]};
    const f64x2 x1{x1_[i[0]], x1_[i[1]]};
    const f64x2 y1{y1_[i[0]], y1_[i[1]]};
    // LinearPiece::at's interpolation, same operations in the same order.
    const f64x2 t = (x - x0) / (x1 - x0);
    f64x2 p = select(~finite(x1) | eq(x1, x0), y0, y0 + t * (y1 - y0));
    p = select(past, y1, p);
    const f64x2 front_x0 = select(left, front_x0_left_, front_x0_right_);
    const f64x2 front_y0 = select(left, front_y0_left_, front_y0_right_);
    return select(le(x, front_x0), front_y0, p);
  }

 private:
  const double* x0_;
  const double* y0_;
  const double* x1_;
  const double* y1_;
  std::int64_t left_begin_, left_last_, right_begin_, right_last_;
  f64x2 left_max_;
  i64x2 has_left_;
  f64x2 front_x0_left_, front_y0_left_, front_x0_right_, front_y0_right_;
  f64x2 last_x1_left_, last_x1_right_;
};

/// Ensemble::merge_samples's structural filter: the samples Eq. (1) uses.
bool usable(const Sample& s) {
  return !(s.t <= 0.0 || !std::isfinite(s.t) || !std::isfinite(s.w) ||
           !std::isfinite(s.m) || s.w < 0.0 || s.m < 0.0);
}

/// One metric's Eq. (1) sums over a workload's samples.
struct Sums {
  double weighted = 0.0;
  double weight = 0.0;
  std::size_t count = 0;
};

/// estimate_tables with the per-metric sums passed in:
/// `metric_sums(m, samples)` is metric m's Eq. (1) sums over its samples.
template <typename MetricSums>
Estimate estimate_with(const EvalTables& tables, DatasetView workload,
                       MetricSums metric_sums) {
  Estimate out;
  out.ranking.reserve(tables.ranges.size());
  for (std::size_t m = 0; m < tables.ranges.size(); ++m) {
    const counters::Event metric = tables.metrics[m];
    const std::span<const Sample> samples = workload.samples(metric);
    const Sums sums = metric_sums(m, samples);
    if (sums.count == 0 || sums.weight <= 0.0) {
      out.skipped.push_back({metric, samples.empty()
                                         ? "no samples in workload"
                                         : "no structurally usable samples"});
      continue;
    }
    out.ranking.push_back({metric, sums.weighted / sums.weight, sums.count});
  }
  if (out.ranking.empty()) {
    throw std::invalid_argument(kNoSharedMetric);
  }
  std::sort(out.ranking.begin(), out.ranking.end(),
            [](const MetricEstimate& a, const MetricEstimate& b) {
              return a.p_bar < b.p_bar;
            });
  out.throughput = out.ranking.front().p_bar;
  return out;
}

/// Debug/SPIRE_CHECKED builds: re-proves one lane of the direct path
/// against the scalar reference (bit compare, NaN payloads included).
/// estimate() throws the divergence; a per-item batch
/// (EstimationService::estimate_views / estimate_files) records it as that
/// item's error, where the oracle comparisons fail on it.
void check_direct_lane(const EvalTables& tables, std::size_t m,
                       double intensity, double p) {
#if SPIRE_DCHECK_ENABLED
  const double ref = eval_roofline(tables, tables.ranges[m], intensity);
  SPIRE_DCHECK(std::memcmp(&ref, &p, sizeof(double)) == 0,
               "direct path diverged from scalar reference: metric ", m,
               ", intensity ", intensity, ", scalar ", ref, ", direct ", p);
#else
  (void)tables;
  (void)m;
  (void)intensity;
  (void)p;
#endif
}

/// Eq. (1)'s sums one sample at a time, with exactly
/// Ensemble::merge_samples's skip conditions and accumulation order;
/// `lookup(intensity)` is the metric's roofline at a usable sample.
template <typename Lookup>
Sums lane_sums(std::span<const Sample> samples, Merge merge, Lookup lookup) {
  Sums sums;
  for (const Sample& s : samples) {
    if (!usable(s)) continue;
    const double p = lookup(s.intensity());
    const double w = merge == Merge::kTimeWeighted ? s.t : 1.0;
    sums.weighted += w * p;
    sums.weight += w;
    ++sums.count;
  }
  return sums;
}

/// lane_sums through PairRoofline, two samples per step in sample order.
/// A pair adds its terms one lane at a time, lane 0 first, so the sums see
/// lane_sums's exact sequence of additions; a lane the filter drops adds
/// +0.0, which leaves every value the sums can hold unchanged (they start
/// at +0.0, so they are never -0.0). An odd last sample pairs with an
/// empty one, which the filter drops (t = 0).
Sums pair_sums(const EvalTables& tables, std::size_t m,
               std::span<const Sample> samples, Merge merge) {
  const PairRoofline roofline(tables, tables.ranges[m]);
  const i64x2 by_time = splat_index(merge == Merge::kTimeWeighted ? -1 : 0);
  const f64x2 zero{};
  const f64x2 inf = splat(std::numeric_limits<double>::infinity());
  static constexpr Sample kEmpty{};
  Sums sums;
  const std::size_t n = samples.size();
  for (std::size_t k = 0; k < n; k += 2) {
    const Sample& a = samples[k];
    const Sample& b = k + 1 < n ? samples[k + 1] : kEmpty;
    const f64x2 t{a.t, b.t};
    const f64x2 w{a.w, b.w};
    const f64x2 mx{a.m, b.m};
    // usable() as a lane mask.
    const i64x2 used = ~le(t, zero) & finite(t) & finite(w) & finite(mx) &
                       ~lt(w, zero) & ~lt(mx, zero);
    // Sample::intensity(): +inf where the metric did not fire.
    const f64x2 x = select(le(mx, zero), inf, w / mx);
    // roofline_at's intensity contract, once per pair.
    const i64x2 bad = used & ~le(zero, x);
    SPIRE_ASSERT((bad[0] | bad[1]) == 0, "MetricRoofline: bad intensity ",
                 bad[0] != 0 ? x[0] : x[1]);
    const f64x2 p = roofline.at(x);
    if (used[0] != 0) check_direct_lane(tables, m, x[0], p[0]);
    if (used[1] != 0) check_direct_lane(tables, m, x[1], p[1]);
    const f64x2 weight = select(used, select(by_time, t, splat(1.0)), zero);
    const f64x2 term = select(used, weight * p, zero);
    sums.weighted += term[0];
    sums.weight += weight[0];
    sums.weighted += term[1];
    sums.weight += weight[1];
    sums.count += static_cast<std::size_t>(-(used[0] + used[1]));
  }
  return sums;
}

/// The direct path: estimate_tables with each metric's sums from
/// pair_sums when its regions are small enough to count, and otherwise
/// from lane_sums over the one-lane branchless search.
Estimate direct_estimate(const EvalTables& tables, DatasetView workload,
                         Merge merge) {
  return estimate_with(
      tables, workload, [&](std::size_t m, std::span<const Sample> samples) {
        const MetricRange& range = tables.ranges[m];
        if (std::max(range.left_end - range.left_begin,
                     range.right_end - range.right_begin) <=
            kPairMaxRegionPieces) {
          return pair_sums(tables, m, samples, merge);
        }
        return lane_sums(samples, merge, [&](double intensity) {
          const double p = direct_roofline(tables, range, intensity);
          check_direct_lane(tables, m, intensity, p);
          return p;
        });
      });
}

/// Process-wide evaluator counters behind eval_counters_snapshot().
std::atomic<std::uint64_t> scalar_batches_total{0};
std::atomic<std::uint64_t> scalar_lanes_total{0};

}  // namespace

double eval_roofline(const EvalTables& tables, const MetricRange& range,
                     double intensity) {
  return roofline_at(tables, range, intensity,
                     [&](std::size_t begin, std::size_t end) {
                       const auto first = tables.x1.begin() +
                                          static_cast<std::ptrdiff_t>(begin);
                       const auto last = tables.x1.begin() +
                                         static_cast<std::ptrdiff_t>(end);
                       return static_cast<std::size_t>(
                           std::lower_bound(first, last, intensity) -
                           tables.x1.begin());
                     });
}

Estimate estimate_tables(const EvalTables& tables, DatasetView workload,
                         Merge merge) {
  return estimate_with(
      tables, workload, [&](std::size_t m, std::span<const Sample> samples) {
        return lane_sums(samples, merge, [&](double intensity) {
          return eval_roofline(tables, tables.ranges[m], intensity);
        });
      });
}

Estimate estimate(const EvalTables& tables, DatasetView workload,
                  Merge merge) {
  Estimate out = direct_estimate(tables, workload, merge);
  // One scalar batch per ranked metric, its samples as lanes.
  std::uint64_t lanes = 0;
  for (const MetricEstimate& entry : out.ranking) lanes += entry.samples;
  scalar_batches_total.fetch_add(out.ranking.size(),
                                 std::memory_order_relaxed);
  scalar_lanes_total.fetch_add(lanes, std::memory_order_relaxed);
  return out;
}

EvalCountersSnapshot eval_counters_snapshot() {
  EvalCountersSnapshot snap;
  snap.scalar_batches = scalar_batches_total.load(std::memory_order_relaxed);
  snap.scalar_lanes = scalar_lanes_total.load(std::memory_order_relaxed);
  return snap;
}

bool eval_kernel_vectorized() {
#if defined(__SSE2__) || defined(__ARM_NEON)
  return true;
#else
  return false;
#endif
}

}  // namespace spire::serve
