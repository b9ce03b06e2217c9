#include "serve/model_eval.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/contract.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SPIRE_EVAL_AVX2 1
#else
#define SPIRE_EVAL_AVX2 0
#endif

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

// The pair kernel's lane vectors (GCC/Clang vector extensions). Two lanes
// are 16 bytes: SSE2 on x86-64, NEON on aarch64, scalar code elsewhere.
// Four lanes are 32 bytes and run only inside the AVX2 entry below. Only
// element-wise arithmetic, comparisons, bitwise operators and subscripts
// touch them, which both compilers spell alike.
template <std::size_t W>
struct LaneVector;
template <>
struct LaneVector<2> {
  using type = double __attribute__((vector_size(16)));
};
template <>
struct LaneVector<4> {
  using type = double __attribute__((vector_size(32)));
};

/// `v = mask ? value : v` per lane, for an all-ones / all-zeros `mask`. A
/// bitwise select: `?:` on a stored 64-bit mask compiles to a compare SSE2
/// lacks, which GCC scalarizes into branches. Vectors pass by reference,
/// so a four-lane one never crosses a call by value.
template <typename V, typename M>
[[gnu::always_inline]] inline void assign_where(V& v, const M& mask,
                                                const V& value) {
  v = (V)(((M)value & mask) | ((M)v & ~mask));
}

/// lane_sums over W samples at a time (W = 2 or 4), for a metric whose
/// regions hold at most kPairMaxRegionPieces pieces: roofline_at and
/// usable() become lane masks and selects, and the Eq. (1) terms are added
/// one lane at a time in sample order. (The name is from its first,
/// two-lane form.)
///
/// The segment search is a count of the breakpoints below the intensity
/// among the region's pieces but its last: x1 ascends within a region (the
/// precondition std::lower_bound already has), so the count is the
/// lower_bound offset whenever the last x1 reaches the intensity, and the
/// lane is past the region (roofline_at's i == end, which answers the last
/// piece's y1) when it does not. The counted index never leaves
/// [begin, end - 1], so every gathered piece lies inside the region
/// whatever the table holds. The early returns become selects, applied in
/// roofline_at's priority order (the first return taken there is the last
/// assign_where here). Lanes discarded by a select may divide by zero;
/// their results are never read.
///
/// Every member is always_inline and none takes or returns a vector by
/// value, so the four-lane instantiation is compiled only inside its AVX2
/// entry and no 32-byte vector crosses a call.
template <std::size_t W>
class PairKernel {
  using F = typename LaneVector<W>::type;
  using I = decltype(F{} < F{});  // lane masks: all ones or all zeros

 public:
  [[gnu::always_inline]] PairKernel(const EvalTables& tables, std::size_t m,
                                    Merge merge)
      : tables_(tables),
        m_(m),
        x0_(tables.x0.data()),
        y0_(tables.y0.data()),
        x1_(tables.x1.data()),
        y1_(tables.y1.data()) {
    const MetricRange& range = tables.ranges[m];
    left_begin_ = static_cast<std::int64_t>(range.left_begin);
    left_last_ = static_cast<std::int64_t>(range.left_end) - 1;
    right_begin_ = static_cast<std::int64_t>(range.right_begin);
    right_last_ = static_cast<std::int64_t>(range.right_end) - 1;
    for (std::size_t k = 0; k < W; ++k) {
      left_start_[k] = left_begin_;
      right_start_[k] = right_begin_;
      has_left_[k] = range.has_left() ? -1 : 0;
      left_max_[k] = range.left_max;
      // An absent left region has left_begin == right_begin, so its front
      // is a valid piece; its last x1 is never selected.
      front_x0_left_[k] = x0_[range.left_begin];
      front_y0_left_[k] = y0_[range.left_begin];
      front_x0_right_[k] = x0_[range.right_begin];
      front_y0_right_[k] = y0_[range.right_begin];
      last_x1_left_[k] = range.has_left() ? x1_[left_last_] : 0.0;
      last_x1_right_[k] = x1_[right_last_];
      by_time_[k] = merge == Merge::kTimeWeighted ? -1 : 0;
      one_[k] = 1.0;
      inf_[k] = std::numeric_limits<double>::infinity();
    }
  }

  /// Adds samples s[0], ..., s[W - 1], in that order. Lanes at or past
  /// `count` (a short last step) take an empty sample (t = 0), which the
  /// filter drops.
  [[gnu::always_inline]] void add(const Sample* s, std::size_t count) {
    add(s, count, std::make_index_sequence<W>{});
  }

  /// The sums over every sample added so far, which are `samples`; raises
  /// roofline_at's intensity contract for the first bad lane among them.
  [[gnu::always_inline]] Sums sums(std::span<const Sample> samples) const {
    std::int64_t bad = 0;
    for (std::size_t k = 0; k < W; ++k) bad |= bad_[k];
    if (bad != 0) {
      for (const Sample& s : samples) {
        SPIRE_ASSERT(!usable(s) || 0.0 <= s.intensity(),
                     "MetricRoofline: bad intensity ", s.intensity());
      }
    }
    Sums out{weighted_, weight_, 0};
    for (std::size_t k = 0; k < W; ++k) {
      out.count += static_cast<std::size_t>(count_[k]);
    }
    return out;
  }

 private:
  /// add() with the lane indices K = 0, ..., W - 1 as a pack, so each
  /// per-lane load and addition is written once and unrolled.
  template <std::size_t... K>
  [[gnu::always_inline]] void add(const Sample* s, std::size_t count,
                                  std::index_sequence<K...>) {
    static constexpr Sample kEmpty{};
    const Sample* lane[] = {(K < count ? s + K : &kEmpty)...};
    const F t{lane[K]->t...};
    const F w{lane[K]->w...};
    const F mx{lane[K]->m...};
    const F zero{};
    // usable() as a lane mask; x - x is 0 for finite x and NaN otherwise.
    const I used = ~(t <= zero) & (t - t == zero) & (w - w == zero) &
                   (mx - mx == zero) & ~(w < zero) & ~(mx < zero);
    // Sample::intensity(): +inf where the metric did not fire.
    F x = w / mx;
    assign_where(x, mx <= zero, inf_);
    // roofline_at's intensity contract, raised by sums().
    const I bad = used & ~(zero <= x);
    bad_ |= bad;

    // roofline_at: region choice, then the count search in each region.
    const I left = has_left_ & (x <= left_max_);
    I left_i = left_start_;
    for (std::int64_t j = left_begin_; j < left_last_; ++j) {
      left_i -= x1_[j] < x;
    }
    I right_i = right_start_;
    for (std::int64_t j = right_begin_; j < right_last_; ++j) {
      right_i -= x1_[j] < x;
    }
    I i = right_i;
    assign_where(i, left, left_i);
    F last_x1 = last_x1_right_;
    assign_where(last_x1, left, last_x1_left_);
    const I past = last_x1 < x;
    const F x0{x0_[i[K]]...};
    const F y0{y0_[i[K]]...};
    const F x1{x1_[i[K]]...};
    const F y1{y1_[i[K]]...};
    // LinearPiece::at's interpolation, same operations in the same order.
    const F frac = (x - x0) / (x1 - x0);
    F p = y0 + frac * (y1 - y0);
    assign_where(p, ~(x1 - x1 == zero) | (x1 == x0), y0);
    assign_where(p, past, y1);
    F front_x0 = front_x0_right_;
    F front_y0 = front_y0_right_;
    assign_where(front_x0, left, front_x0_left_);
    assign_where(front_y0, left, front_y0_left_);
    assign_where(p, x <= front_x0, front_y0);
    for (std::size_t k = 0; k < W; ++k) {
      if (used[k] != 0 && bad[k] == 0) {
        check_direct_lane(tables_, m_, x[k], p[k]);
      }
    }

    // Eq. (1)'s terms, one lane at a time in sample order: the sums see
    // lane_sums's exact sequence of additions. A lane the filter drops
    // adds +0.0, which leaves every value the sums can hold unchanged
    // (they start at +0.0, so they are never -0.0).
    F weight = one_;
    assign_where(weight, by_time_, t);
    assign_where(weight, ~used, zero);
    F term = weight * p;
    assign_where(term, ~used, zero);
    ((weighted_ += term[K], weight_ += weight[K]), ...);
    count_ -= used;
  }

  const EvalTables& tables_;
  std::size_t m_;
  const double* x0_;
  const double* y0_;
  const double* x1_;
  const double* y1_;
  std::int64_t left_begin_, left_last_, right_begin_, right_last_;
  // Per-metric constants, one copy per lane.
  I left_start_{}, right_start_{}, has_left_{}, by_time_{};
  F left_max_{}, front_x0_left_{}, front_y0_left_{}, front_x0_right_{},
      front_y0_right_{}, last_x1_left_{}, last_x1_right_{}, one_{}, inf_{};
  // Running state: Eq. (1)'s sums, the used-sample count per lane, and
  // every lane that broke the intensity contract.
  double weighted_ = 0.0, weight_ = 0.0;
  I count_{}, bad_{};
};

/// lane_sums through PairKernel<W>, W samples per step in sample order.
template <std::size_t W>
[[gnu::always_inline]] inline Sums pair_sums(const EvalTables& tables,
                                             std::size_t m,
                                             std::span<const Sample> samples,
                                             Merge merge) {
  PairKernel<W> kernel(tables, m, merge);
  const std::size_t n = samples.size();
  std::size_t k = 0;
  for (; k + W <= n; k += W) kernel.add(samples.data() + k, W);
  if (k < n) kernel.add(samples.data() + k, n - k);
  return kernel.sums(samples);
}

Sums pair_sums_2(const EvalTables& tables, std::size_t m,
                 std::span<const Sample> samples, Merge merge) {
  return pair_sums<2>(tables, m, samples, merge);
}

#if SPIRE_EVAL_AVX2
/// The four-lane instantiation. The target is "avx2" alone: adding "fma"
/// would let the compiler fuse y0 + frac * (y1 - y0) and change its bits.
__attribute__((target("avx2"))) Sums pair_sums_4(
    const EvalTables& tables, std::size_t m, std::span<const Sample> samples,
    Merge merge) {
  return pair_sums<4>(tables, m, samples, merge);
}
#endif

/// The direct path: estimate_tables with each metric's sums from the pair
/// kernel at `lanes` lanes when its regions are small enough to count, and
/// otherwise from lane_sums over the one-lane branchless search.
Estimate direct_estimate(const EvalTables& tables, DatasetView workload,
                         Merge merge, std::size_t lanes) {
  return estimate_with(
      tables, workload, [&](std::size_t m, std::span<const Sample> samples) {
        const MetricRange& range = tables.ranges[m];
        if (std::max(range.left_end - range.left_begin,
                     range.right_end - range.right_begin) <=
            kPairMaxRegionPieces) {
#if SPIRE_EVAL_AVX2
          if (lanes == 4) return pair_sums_4(tables, m, samples, merge);
#else
          (void)lanes;
#endif
          return pair_sums_2(tables, m, samples, merge);
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
  Estimate out =
      direct_estimate(tables, workload, merge, eval_kernel_lanes());
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

std::size_t eval_kernel_lanes() {
#if SPIRE_EVAL_AVX2
  static const std::size_t lanes = __builtin_cpu_supports("avx2") ? 4 : 2;
  return lanes;
#else
  return 2;
#endif
}

namespace detail {

Estimate estimate_with_lanes(const EvalTables& tables, DatasetView workload,
                             Merge merge, std::size_t lanes) {
  SPIRE_ASSERT(lanes == 2 || lanes == eval_kernel_lanes(),
               "estimate_with_lanes: ", lanes,
               " lanes is not a width this host runs (2 or ",
               eval_kernel_lanes(), ")");
  return direct_estimate(tables, workload, merge, lanes);
}

}  // namespace detail

bool eval_kernel_vectorized() {
#if defined(__SSE2__) || defined(__ARM_NEON)
  return true;
#else
  return false;
#endif
}

}  // namespace spire::serve
