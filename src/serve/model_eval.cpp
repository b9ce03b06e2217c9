#include "serve/model_eval.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "util/contract.h"

#if defined(__linux__)
#include <sys/mman.h>
#endif

#if defined(SPIRE_EVAL_AVX2)
#include "serve/model_eval_simd.h"
#endif

// Streaming prefetch for the blocked search pipeline. Advisory only —
// correctness never depends on it.
#if defined(__GNUC__) || defined(__clang__)
#define SPIRE_PREFETCH(addr) __builtin_prefetch((addr), 0, 3)
#else
#define SPIRE_PREFETCH(addr) ((void)0)
#endif

// The execute phase's inner loops are written branch-free (value selects
// over unconditionally computed lanes) so the compiler can vectorize them.
// -DSPIRE_SIMD=ON additionally compiles with -fopenmp-simd and puts an
// `omp simd` pragma on each loop; the un-pragma'd build is the scalar
// fallback and the reference — both produce identical bits because every
// lane's arithmetic is the same expression either way.
#if defined(SPIRE_SIMD)
#define SPIRE_SIMD_LOOP _Pragma("omp simd")
#else
#define SPIRE_SIMD_LOOP
#endif

namespace spire::serve {

using model::Estimate;
using model::Merge;
using model::MetricEstimate;
using model::v3::MetricRange;
using sampling::DatasetView;
using sampling::Sample;

namespace {

constexpr const char* kNoSharedMetric =
    "ensemble: workload shares no metric with the model";

// Plan tuning. A unified column below kGridMinEntries resolves in a
// couple of search rounds anyway, so it keeps the degenerate one-bucket
// grid; bucket count targets ~2 buckets per entry (windows of 0-1 pieces)
// up to a cap that bounds the routing table at 512 KiB. kSearchBlock is
// the software-pipeline granularity of the unsorted-batch path: each
// sub-pass prefetches the next one's random loads one block ahead, far
// enough to cover a memory round-trip, close enough that the lines are
// still resident when consumed.
constexpr std::size_t kGridMinEntries = 8;
constexpr std::size_t kGridMaxBuckets = std::size_t{1} << 17;
constexpr std::size_t kSearchBlock = 1024;

// The execute selects are written as integer-mask blends over the raw
// double bits instead of `?:`/`if` — compilers turn value selects on
// floating-point compares back into data-dependent branches, and the
// whole point of the batch kernel is that its per-lane work never
// mispredicts. The blends are bit-exact: they move bits, never touch
// the arithmetic.
inline std::uint64_t dbits(double d) { return std::bit_cast<std::uint64_t>(d); }
inline double dfrom(std::uint64_t u) { return std::bit_cast<double>(u); }

constexpr std::uint64_t kAbsMask = 0x7fffffffffffffffULL;
constexpr std::uint64_t kExpMask = 0x7ff0000000000000ULL;

/// The execute select chain: LinearPiece::at + the region edge cases as
/// pure integer-mask selects, bit-identical to eval_roofline's checks.
/// LAST select = HIGHEST priority, mirroring the reference's early
/// returns:
///   (1) intensity <= x0[begin]       -> y0[begin]
///   (2) no piece reaches the point   -> y1[end - 1]
///   (3) infinite or zero-width piece -> y0[piece]
///   (4) otherwise                    -> LinearPiece::at, verbatim
/// `j` is the lane's resolved lower_bound in [begin, end]; out-of-domain
/// lanes compute an inf/NaN interpolation the selects discard (IEEE).
inline double select_piece(const EvalTables& tables, double x, std::size_t j,
                           std::size_t begin, std::size_t end) {
  const std::size_t mc = 0 - static_cast<std::size_t>(j < end);
  const std::size_t jc = (mc & j) | (~mc & (end - 1));  // clamp the loads
  const double px0 = tables.x0[jc];
  const double py0 = tables.y0[jc];
  const double px1 = tables.x1[jc];
  const double py1 = tables.y1[jc];
  const double t = (x - px0) / (px1 - px0);
  const double p = py0 + t * (py1 - py0);
  const std::uint64_t b0 = dbits(px0);
  const std::uint64_t b1 = dbits(px1);
  // `!isfinite(px1) || px1 == px0` on integer bits: exponent-all-ones
  // covers inf/NaN; IEEE equality of finite values is bit equality or
  // both-of-±0 (the NaN==NaN bit-equality case is absorbed by the
  // isfinite term, so the OR is exactly the scalar predicate).
  const std::uint64_t degen =
      0 - (static_cast<std::uint64_t>((b1 & kAbsMask) >= kExpMask) |
           static_cast<std::uint64_t>(b0 == b1) |
           static_cast<std::uint64_t>(((b0 | b1) << 1) == 0));
  std::uint64_t pb = (degen & dbits(py0)) | (~degen & dbits(p));
  const std::uint64_t mend = 0 - static_cast<std::uint64_t>(j == end);
  pb = (mend & dbits(tables.y1[end - 1])) | (~mend & pb);
  const std::uint64_t mfirst =
      0 - static_cast<std::uint64_t>(x <= tables.x0[begin]);
  pb = (mfirst & dbits(tables.y0[begin])) | (~mfirst & pb);
  return dfrom(pb);
}

/// First index in [j, end) whose x1 >= x — std::lower_bound semantics,
/// but galloped forward from `j`. The plan calls this with non-decreasing
/// x over a sorted batch, so the search only ever moves right and the
/// whole batch resolves in O(lanes + pieces-log-steps) instead of
/// lanes * log(pieces) independent cold binary searches.
std::size_t advance_lower_bound(std::span<const double> x1, std::size_t j,
                                std::size_t end, double x) {
  if (j >= end || !(x1[j] < x)) return j;
  std::size_t lo = j;  // invariant: x1[lo] < x
  std::size_t step = 1;
  while (lo + step < end && x1[lo + step] < x) {
    lo += step;
    step <<= 1;
  }
  std::size_t hi = std::min(lo + step, end);
  ++lo;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (x1[mid] < x) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

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

/// Fills one metric's plan: the unified region column, its bits-domain
/// routing grid, and the unified->scalar index mapping constants. See the
/// EvalPlan::Metric field docs for the invariants; the correctness
/// argument for WHY dropping entries preserves every lower_bound:
///
///  * left entries with x1 > left_max: a left-routed lane has
///    x <= left_max < x1, so `x1 < x` is false — the entry never counts
///    toward a left lower_bound, and since the slice ascends, the kept
///    entries are exactly a prefix.
///  * right entries with x1 <= left_max: a right-routed lane has
///    x > left_max >= x1, so `x1 < x` is always true — the entry ALWAYS
///    counts, which is what right_off's `+ rskip` accounts for.
///
/// The grid is exact by construction, not by approximation: intensities
/// are non-negative (asserted at stage time), and over non-negative
/// doubles the IEEE bit pattern is order-isomorphic to the value, so
/// bucket edges taken at exact bit-lattice points (lo_bits + k << shift)
/// bracket every routed lane's true lower_bound with no floating-point
/// rounding anywhere.
void build_metric_plan(EvalPlan::Metric& out, const EvalTables& tables,
                       const MetricRange& range) {
  const std::size_t rb = range.right_begin;
  const std::size_t re = range.right_end;
  const auto x1_begin = tables.x1.begin();
  std::size_t left_len = 0;
  std::size_t rskip = 0;
  out.ux1.clear();
  if (range.has_left()) {
    const std::size_t lb = range.left_begin;
    const std::size_t le = range.left_end;
    left_len = static_cast<std::size_t>(
        std::upper_bound(x1_begin + static_cast<std::ptrdiff_t>(lb),
                         x1_begin + static_cast<std::ptrdiff_t>(le),
                         range.left_max) -
        (x1_begin + static_cast<std::ptrdiff_t>(lb)));
    rskip = static_cast<std::size_t>(
        std::upper_bound(x1_begin + static_cast<std::ptrdiff_t>(rb),
                         x1_begin + static_cast<std::ptrdiff_t>(re),
                         range.left_max) -
        (x1_begin + static_cast<std::ptrdiff_t>(rb)));
    out.ux1.insert(out.ux1.end(), x1_begin + static_cast<std::ptrdiff_t>(lb),
                   x1_begin + static_cast<std::ptrdiff_t>(lb + left_len));
  }
  out.ux1.insert(out.ux1.end(), x1_begin + static_cast<std::ptrdiff_t>(rb + rskip),
                 x1_begin + static_cast<std::ptrdiff_t>(re));
  out.left_len = static_cast<std::uint32_t>(left_len);
  out.right_off = static_cast<std::uint32_t>(rb + rskip - left_len);
  if (out.ux1.empty()) {
    // Unreachable sentinel (+inf never compares < x): the search loops
    // stay total and every lane resolves to u = 0, which the mapping
    // offsets turn into exactly the scalar result (left: j = left_begin;
    // right: j = right_end, the at-end clamp).
    out.ux1.push_back(std::numeric_limits<double>::infinity());
  }

  const std::size_t ulen = out.ux1.size();
  out.start.assign(2, 0);
  out.start[1] = static_cast<std::uint32_t>(ulen);
  out.lo_bits = 0;
  out.shift = 63;
  out.buckets = 1;
  if (ulen < kGridMinEntries) return;
  const double* const ux = out.ux1.data();
  std::size_t last = ulen;  // trim the trailing infinite right edges
  while (last > 0 && !std::isfinite(ux[last - 1])) --last;
  const double lo = ux[0];
  if (last < 2 || !std::isfinite(lo) || !(lo >= 0.0) || !(ux[last - 1] > lo)) {
    return;  // degenerate span: keep the one-bucket grid
  }
  const std::uint64_t lo_bits = dbits(lo + 0.0);  // normalize a -0.0 edge
  const std::uint64_t span = dbits(ux[last - 1]) - lo_bits;
  const std::size_t want = std::min(2 * ulen, kGridMaxBuckets);
  unsigned shift = 0;
  while ((span >> shift) + 1 > want) ++shift;
  const std::size_t buckets = static_cast<std::size_t>(span >> shift) + 1;
  out.start.assign(buckets + 1, 0);
  const std::span<const double> ux_span(ux, ulen);
  std::size_t j = 0;
  for (std::size_t k = 1; k < buckets; ++k) {
    // Every edge is an exact double: bit patterns at or below a finite
    // positive double's bits are themselves finite doubles.
    const double edge = dfrom(lo_bits + (static_cast<std::uint64_t>(k) << shift));
    j = advance_lower_bound(ux_span, j, ulen, edge);
    out.start[k] = static_cast<std::uint32_t>(j);
  }
  out.start[buckets] = static_cast<std::uint32_t>(ulen);
  out.lo_bits = lo_bits;
  out.shift = shift;
  out.buckets = static_cast<std::uint32_t>(buckets);
}

/// Best-effort transparent-huge-page request for a freshly reserved,
/// not-yet-touched buffer: the execute phase's per-lane row loads are
/// data-dependent scatters across the whole table, so at fleet-model sizes
/// the 4 KiB dTLB becomes the bottleneck before the cache does. Advised
/// BEFORE first touch so the fault handler can back the range with huge
/// pages immediately (afterwards only async collapse would apply). Failure
/// is ignored — this is a speed hint, never correctness.
void advise_huge_pages(void* p, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr std::uintptr_t kPage = 4096;
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t lo = (addr + kPage - 1) & ~(kPage - 1);
  const std::uintptr_t hi = (addr + bytes) & ~(kPage - 1);
  if (hi > lo) {
    (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace

EvalPlan EvalPlan::build(const EvalTables& tables) {
  EvalPlan plan;
  std::size_t largest = 0;
  for (const MetricRange& range : tables.ranges) {
    largest = std::max<std::size_t>(
        {largest, range.left_end - range.left_begin,
         range.right_end - range.right_begin});
  }
  plan.direct = largest <= kDirectMaxRegionPieces;
  // A direct model never reaches the planned pipeline, so it carries none
  // of its derived columns.
  if (plan.direct) return plan;
  plan.metrics.resize(tables.ranges.size());
  for (std::size_t m = 0; m < tables.ranges.size(); ++m) {
    build_metric_plan(plan.metrics[m], tables, tables.ranges[m]);
  }
  // Interleaved piece rows, 32-byte aligned so a row is one load that
  // never straddles a cache line.
  const std::size_t pieces = tables.piece_count();
  plan.rows_storage.reserve(4 * pieces + 3);
  advise_huge_pages(plan.rows_storage.data(),
                    (4 * pieces + 3) * sizeof(double));
  plan.rows_storage.resize(4 * pieces + 3);
  const auto base = reinterpret_cast<std::uintptr_t>(plan.rows_storage.data());
  plan.rows_offset = ((32 - (base & 31)) & 31) / sizeof(double);
  double* rows = plan.rows_storage.data() + plan.rows_offset;
  for (std::size_t i = 0; i < pieces; ++i) {
    rows[4 * i + 0] = tables.x0[i];
    rows[4 * i + 1] = tables.y0[i];
    rows[4 * i + 2] = tables.x1[i];
    rows[4 * i + 3] = tables.y1[i];
  }
  return plan;
}

namespace {

/// eval_roofline with the segment search passed in: `search(begin, end)`
/// is the first index in [begin, end) whose x1 >= the intensity, or `end`.
/// The scalar reference searches with std::lower_bound and the direct path
/// with the branchless window_lower_bound; the rest is this one body.
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

/// Ensemble::merge_samples's structural filter: the samples Eq. (1) uses.
bool usable(const Sample& s) {
  return !(s.t <= 0.0 || !std::isfinite(s.t) || !std::isfinite(s.w) ||
           !std::isfinite(s.m) || s.w < 0.0 || s.m < 0.0);
}

/// estimate_tables with the per-sample lookup passed in:
/// `lookup(range, intensity)` is one metric's roofline at a usable sample.
template <typename Lookup>
Estimate estimate_with(const EvalTables& tables, DatasetView workload,
                       Merge merge, Lookup lookup) {
  Estimate out;
  for (std::size_t m = 0; m < tables.ranges.size(); ++m) {
    const MetricRange& range = tables.ranges[m];
    const counters::Event metric = tables.metrics[m];
    const std::span<const Sample> samples = workload.samples(metric);
    // Eq. (1) with exactly Ensemble::merge_samples's skip conditions and
    // accumulation order.
    double weighted = 0.0;
    double weight = 0.0;
    std::size_t count = 0;
    for (const Sample& s : samples) {
      if (!usable(s)) continue;
      const double p = lookup(range, s.intensity());
      const double w = merge == Merge::kTimeWeighted ? s.t : 1.0;
      weighted += w * p;
      weight += w;
      ++count;
    }
    if (count == 0 || weight <= 0.0) {
      out.skipped.push_back({metric, samples.empty()
                                         ? "no samples in workload"
                                         : "no structurally usable samples"});
      continue;
    }
    out.ranking.push_back({metric, weighted / weight, count});
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

/// The direct path's lookup: eval_roofline with the branchless search. At
/// trained size the tables sit in L1 and std::lower_bound's cost is its
/// mispredicted data-dependent branch per probe, which this search lacks.
double direct_roofline(const EvalTables& tables, const MetricRange& range,
                       double intensity) {
  return roofline_at(tables, range, intensity,
                     [&](std::size_t begin, std::size_t end) {
                       return window_lower_bound(tables.x1.data(), intensity,
                                                 begin, end);
                     });
}

/// The direct path: estimate_tables over direct_roofline.
Estimate direct_estimate(const EvalTables& tables, DatasetView workload,
                         Merge merge) {
  return estimate_with(tables, workload, merge,
                       [&](const MetricRange& range, double intensity) {
                         return direct_roofline(tables, range, intensity);
                       });
}

/// Debug/SPIRE_CHECKED builds: re-proves every lane of a direct estimate
/// that succeeded against the scalar reference (bit compare, NaN payloads
/// included). Callers run it outside any per-item error capture, so a
/// divergence propagates instead of becoming one workload's error.
void check_direct_lanes(const EvalTables& tables, DatasetView workload) {
#if SPIRE_DCHECK_ENABLED
  for (std::size_t m = 0; m < tables.ranges.size(); ++m) {
    for (const Sample& s : workload.samples(tables.metrics[m])) {
      if (!usable(s)) continue;
      const double x = s.intensity();
      const double ref = eval_roofline(tables, tables.ranges[m], x);
      const double p = direct_roofline(tables, tables.ranges[m], x);
      SPIRE_DCHECK(std::memcmp(&ref, &p, sizeof(double)) == 0,
                   "direct path diverged from scalar reference: metric ", m,
                   ", intensity ", x, ", scalar ", ref, ", direct ", p);
    }
  }
#else
  (void)tables;
  (void)workload;
#endif
}

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
  return estimate_with(tables, workload, merge,
                       [&](const MetricRange& range, double intensity) {
                         return eval_roofline(tables, range, intensity);
                       });
}

std::vector<Estimate> estimate_batch_tables(
    const EvalTables& tables, std::span<const DatasetView> workloads,
    util::ExecOptions exec, Merge merge) {
  // The tables are immutable and each task reads one workload's view
  // through its own thread-local kernel scratch: no shared mutable state,
  // and index-ordered collection keeps results (and the first exception)
  // identical to the serial loop.
  return util::parallel_for_index(exec, workloads.size(), [&](std::size_t i) {
    return thread_eval_batch().estimate(tables, workloads[i], merge);
  });
}

// --- batch-kernel counters ---------------------------------------------------

EvalCounters& eval_counters() {
  static EvalCounters counters;
  return counters;
}

EvalCountersSnapshot eval_counters_snapshot() {
  const EvalCounters& c = eval_counters();
  EvalCountersSnapshot snap;
  snap.planned_batches = c.planned_batches.load(std::memory_order_relaxed);
  snap.planned_lanes = c.planned_lanes.load(std::memory_order_relaxed);
  snap.scalar_batches = c.scalar_batches.load(std::memory_order_relaxed);
  snap.scalar_lanes = c.scalar_lanes.load(std::memory_order_relaxed);
  return snap;
}

bool eval_kernel_vectorized() {
#if defined(SPIRE_EVAL_AVX2)
  return detail::avx2_select_supported();
#else
  return false;
#endif
}

EvalBatch& thread_eval_batch() {
  thread_local EvalBatch batch;
  return batch;
}

void EvalBatch::flush_counters() {
  EvalCounters& global = eval_counters();
  if (delta_.planned_batches != 0) {
    global.planned_batches.fetch_add(delta_.planned_batches,
                                     std::memory_order_relaxed);
    global.planned_lanes.fetch_add(delta_.planned_lanes,
                                   std::memory_order_relaxed);
  }
  if (delta_.scalar_batches != 0) {
    global.scalar_batches.fetch_add(delta_.scalar_batches,
                                    std::memory_order_relaxed);
    global.scalar_lanes.fetch_add(delta_.scalar_lanes,
                                  std::memory_order_relaxed);
  }
  stats_.planned_batches += delta_.planned_batches;
  stats_.planned_lanes += delta_.planned_lanes;
  stats_.scalar_batches += delta_.scalar_batches;
  stats_.scalar_lanes += delta_.scalar_lanes;
  delta_ = {};
}

// --- EvalBatch: plan ---------------------------------------------------------

EvalBatch::Slice EvalBatch::stage(std::span<const Sample> samples,
                                  Merge merge) {
  Slice slice;
  slice.begin = xs_.size();
  slice.no_samples = samples.empty();
  for (const Sample& s : samples) {
    // Exactly the scalar path's structural-usability filter, in sample
    // order, so the staged lanes are the samples the reference would have
    // evaluated — and in the same order.
    if (!usable(s)) continue;
    const double intensity = s.intensity();
    // eval_roofline's precondition, asserted at stage time so the first
    // offending (metric, sample) in scan order throws exactly as the
    // scalar interleaved eval would have.
    SPIRE_ASSERT(!std::isnan(intensity) && intensity >= 0.0,
                 "MetricRoofline: bad intensity ", intensity);
    xs_.push_back(intensity);
    ws_.push_back(merge == Merge::kTimeWeighted ? s.t : 1.0);
  }
  slice.end = xs_.size();
  return slice;
}

void EvalBatch::eval_lanes(const EvalTables& tables, std::size_t m) {
  const MetricRange& range = tables.ranges[m];
  const std::size_t n = xs_.size();
  ps_.resize(n);
  if (n == 0) return;
  if (n < kMinPlanLanes) {
    // Planning a handful of lanes costs more than it saves; the scalar
    // reference IS the kernel here (counted so operators can see the
    // planned/fallback split).
    delta_.scalar_batches += 1;
    delta_.scalar_lanes += n;
    for (std::size_t i = 0; i < n; ++i) {
      ps_[i] = eval_roofline(tables, range, xs_[i]);
    }
    return;
  }
  delta_.planned_batches += 1;
  delta_.planned_lanes += n;

  // Pick the segment-resolution strategy. A batch that arrives sorted —
  // monotone collectors, merged streams — resolves with one forward merge
  // sweep, O(n + gallop-steps) for the whole batch and no plan needed.
  // Anything else routes through the metric's model-owned plan (built
  // once per model). An explicit permutation sort was measured and
  // rejected (its O(n log n) mispredicting comparisons cost exactly what
  // the sweep saves on random batches).
  if (std::is_sorted(xs_.begin(), xs_.end())) {
    // Region choice is `intensity <= left_max`, so on ascending lanes the
    // left region is exactly a prefix.
    std::size_t split = 0;
    if (range.has_left()) {
      split = static_cast<std::size_t>(
          std::upper_bound(xs_.begin(), xs_.end(), range.left_max) -
          xs_.begin());
    }
    seg_.resize(n);
    sweep_eval(tables, range.left_begin, range.left_end, 0, split);
    sweep_eval(tables, range.right_begin, range.right_end, split, n);
  } else {
    search_eval(tables, m);
  }

#if SPIRE_DCHECK_ENABLED
  // The whole bit-identity contract, re-proved per lane against the
  // scalar reference (bit compare, so even NaN payloads must agree).
  for (std::size_t i = 0; i < n; ++i) {
    const double ref = eval_roofline(tables, range, xs_[i]);
    SPIRE_DCHECK(std::memcmp(&ref, &ps_[i], sizeof(double)) == 0,
                 "batch kernel diverged from scalar reference at lane ", i,
                 ": intensity ", xs_[i], " scalar ", ref, " batch ", ps_[i]);
  }
#endif
}

void EvalBatch::sweep_eval(const EvalTables& tables, std::size_t begin,
                           std::size_t end, std::size_t lo, std::size_t hi) {
  if (lo >= hi) return;
  SPIRE_DCHECK(begin < end, "empty piece range [", begin, ", ", end, ")");

  // Merge sweep: lanes ascend, so each lane's lower_bound continues where
  // the previous one stopped.
  std::size_t j = begin;
  for (std::size_t k = lo; k < hi; ++k) {
    j = advance_lower_bound(tables.x1, j, end, xs_[k]);
    seg_[k] = static_cast<std::uint32_t>(j);
  }

  // Phase 2 (execute): branchless segment select + endpoint
  // interpolation (see select_piece for the select chain).
  SPIRE_SIMD_LOOP
  for (std::size_t k = lo; k < hi; ++k) {
    ps_[k] = select_piece(tables, xs_[k], seg_[k], begin, end);
  }
}

void EvalBatch::search_eval(const EvalTables& tables, std::size_t m) {
  const MetricRange& range = tables.ranges[m];
  const EvalPlan::Metric& plan = tables.plan->metrics[m];
  const double* const rows = tables.plan->rows();
  const std::size_t n = xs_.size();
  const double* const ux = plan.ux1.data();
  const std::size_t ulen = plan.ux1.size();  // >= 1 (sentinel)
  const std::uint64_t lo_bits = plan.lo_bits;
  const unsigned shift = plan.shift;
  const std::size_t top = plan.buckets - 1;
  const std::uint32_t* const start = plan.start.data();
  const bool has_left = range.has_left();
  const double left_max = range.left_max;
  const std::size_t lb = range.left_begin;
  const std::size_t le = range.left_end;
  const std::size_t rb = range.right_begin;
  const std::size_t re = range.right_end;
  const std::size_t right_off = plan.right_off;
  seg_.resize(n);
  bucket_.resize(kSearchBlock);
  window_.resize(kSearchBlock);
#if defined(SPIRE_EVAL_AVX2)
  detail::Avx2SelectArgs simd_args;
  const bool use_simd = detail::avx2_select_supported();
  if (use_simd) {
    simd_args.rows = rows;
    simd_args.has_left = has_left;
    simd_args.left_max = left_max;
    simd_args.left_begin = lb;
    simd_args.left_end = le;
    simd_args.right_end = re;
    simd_args.right_off = right_off;
    simd_args.bx0l = tables.x0[lb];
    simd_args.by0l = tables.y0[lb];
    simd_args.ey1l = has_left ? tables.y1[le - 1] : 0.0;
    simd_args.bx0r = tables.x0[rb];
    simd_args.by0r = tables.y0[rb];
    simd_args.ey1r = tables.y1[re - 1];
  }
#endif

  const std::size_t u_clamp = ulen - 1;
  for (std::size_t blo = 0; blo < n; blo += kSearchBlock) {
    const std::size_t bhi = std::min(blo + kSearchBlock, n);
    // Sub-pass 1: bucket route. Pure register arithmetic on the lane's
    // bits (the +0.0 normalizes a -0.0 intensity onto the non-negative
    // bit lattice; the mask handles x below the grid base; the clamp,
    // x above it — including +inf). Prefetches the routing-table row the
    // next sub-pass reads.
    for (std::size_t i = blo; i < bhi; ++i) {
      const std::uint64_t xb = dbits(xs_[i] + 0.0);
      const std::uint64_t in_grid =
          0 - static_cast<std::uint64_t>(xb >= lo_bits);
      std::size_t b =
          static_cast<std::size_t>(in_grid & ((xb - lo_bits) >> shift));
      b = b < top ? b : top;
      bucket_[i - blo] = static_cast<std::uint32_t>(b);
      SPIRE_PREFETCH(start + b);
    }
    // Sub-pass 2: window fetch — start[b] and start[b + 1] in one 8-byte
    // load (now cache-resident), prefetching the window's column entries.
    for (std::size_t i = blo; i < bhi; ++i) {
      std::uint64_t w;
      std::memcpy(&w, start + bucket_[i - blo], sizeof(w));
      window_[i - blo] = w;
      SPIRE_PREFETCH(ux + static_cast<std::uint32_t>(w));
    }
    // Sub-pass 3: window search. Windows hold 0-2 entries in the common
    // case (two masked-add rounds, no branch); wider ones — clustered
    // duplicate edges — take the branchless full-window search. Resolved
    // lanes prefetch their interleaved piece row for the select.
    for (std::size_t i = blo; i < bhi; ++i) {
      const double x = xs_[i];
      const std::uint64_t w = window_[i - blo];
      const std::size_t w_lo = static_cast<std::uint32_t>(w);
      const std::size_t w_hi = static_cast<std::uint32_t>(w >> 32);
      std::size_t u = w_lo;
      std::size_t uc = u < u_clamp ? u : u_clamp;  // clamp the probe load
      u += static_cast<std::size_t>(u < w_hi) &
           static_cast<std::size_t>(ux[uc] < x);
      uc = u < u_clamp ? u : u_clamp;
      u += static_cast<std::size_t>(u < w_hi) &
           static_cast<std::size_t>(ux[uc] < x);
      if (w_hi - w_lo > 2) u = window_lower_bound(ux, x, w_lo, w_hi);
      seg_[i] = static_cast<std::uint32_t>(u);
      const std::size_t pid = (has_left && x <= left_max ? lb : right_off) + u;
      SPIRE_PREFETCH(rows + 4 * (pid < re - 1 ? pid : re - 1));
    }
    // Sub-pass 4: segment select + endpoint interpolation over the
    // block — the 4-wide AVX2 kernel when the build and CPU have it, the
    // portable integer-mask select chain otherwise (identical bits either
    // way; the remainder lanes always take the portable chain).
    std::size_t i = blo;
#if defined(SPIRE_EVAL_AVX2)
    if (use_simd) {
      simd_args.xs = xs_.data() + blo;
      simd_args.useg = seg_.data() + blo;
      simd_args.ps = ps_.data() + blo;
      simd_args.count = bhi - blo;
      i += detail::avx2_select(simd_args);
    }
#endif
    SPIRE_SIMD_LOOP
    for (std::size_t k = i; k < bhi; ++k) {
      const double x = xs_[k];
      const std::uint64_t ml =
          0 - (static_cast<std::uint64_t>(has_left) &
               static_cast<std::uint64_t>(x <= left_max));
      const std::size_t begin =
          static_cast<std::size_t>((ml & lb) | (~ml & rb));
      const std::size_t end = static_cast<std::size_t>((ml & le) | (~ml & re));
      const std::size_t off =
          static_cast<std::size_t>((ml & lb) | (~ml & right_off));
      ps_[k] = select_piece(tables, x, off + seg_[k], begin, end);
    }
  }
}

// --- EvalBatch: drivers ------------------------------------------------------

void EvalBatch::accumulate(const Slice& slice, counters::Event metric,
                           Estimate& out) const {
  // Eq. (1) over the staged lanes, in staged (= sample) order: the same
  // weighted/weight interleaving the scalar loop performs, so the sums
  // are bit-identical.
  double weighted = 0.0;
  double weight = 0.0;
  for (std::size_t i = slice.begin; i < slice.end; ++i) {
    weighted += ws_[i] * ps_[i];
    weight += ws_[i];
  }
  const std::size_t count = slice.end - slice.begin;
  if (count == 0 || weight <= 0.0) {
    out.skipped.push_back({metric, slice.no_samples
                                       ? "no samples in workload"
                                       : "no structurally usable samples"});
    return;
  }
  out.ranking.push_back({metric, weighted / weight, count});
}

void EvalBatch::count_direct(const Estimate& estimate) {
  for (const MetricEstimate& entry : estimate.ranking) {
    delta_.scalar_batches += 1;
    delta_.scalar_lanes += entry.samples;
  }
}

Estimate EvalBatch::estimate(const EvalTables& tables, DatasetView workload,
                             Merge merge) {
  SPIRE_ASSERT(tables.plan != nullptr, "EvalBatch: tables carry no plan");
  if (tables.plan->direct) {
    Estimate out = direct_estimate(tables, workload, merge);
    check_direct_lanes(tables, workload);
    count_direct(out);
    flush_counters();
    return out;
  }
  Estimate out;
  for (std::size_t m = 0; m < tables.ranges.size(); ++m) {
    xs_.clear();
    ws_.clear();
    const std::span<const Sample> samples =
        workload.samples(tables.metrics[m]);
    const Slice slice = stage(samples, merge);
    eval_lanes(tables, m);
    accumulate(slice, tables.metrics[m], out);
  }
  // One aggregate update per call; a stage() throw leaves the deltas
  // parked in delta_ for the next flush (the counters are monotonic, so
  // late is fine and the hot loop stays atomic-free).
  flush_counters();
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

std::vector<EvalOutcome> EvalBatch::estimate_many(
    const EvalTables& tables, std::span<const DatasetView> workloads,
    std::span<const Merge> merges) {
  SPIRE_ASSERT(merges.size() == workloads.size(),
               "estimate_many: ", workloads.size(), " workload(s) but ",
               merges.size(), " merge mode(s)");
  SPIRE_ASSERT(tables.plan != nullptr, "EvalBatch: tables carry no plan");
  const std::size_t jobs = workloads.size();
  std::vector<EvalOutcome> out(jobs);
  if (tables.plan->direct) {
    // Per workload, with the scalar loop's per-item error capture.
    for (std::size_t j = 0; j < jobs; ++j) {
      try {
        out[j].estimate = direct_estimate(tables, workloads[j], merges[j]);
      } catch (const std::exception& e) {
        out[j].error = e.what();
        continue;
      }
      check_direct_lanes(tables, workloads[j]);
      count_direct(*out[j].estimate);
    }
    flush_counters();
    return out;
  }
  std::vector<Estimate> partial(jobs);
  std::vector<char> failed(jobs, 0);
  slices_.resize(jobs);

  // Metric-major: ONE planned batch per metric covers every workload's
  // samples at once (this is what makes a coalesced shard wakeup a single
  // kernel pass). Per workload, (metric, sample) pairs are still visited
  // in the scalar path's scan order, so per-item failures surface with
  // the same first-error text, and per-item accumulations read their own
  // contiguous staged slice in sample order.
  for (std::size_t m = 0; m < tables.ranges.size(); ++m) {
    const counters::Event metric = tables.metrics[m];
    xs_.clear();
    ws_.clear();
    for (std::size_t j = 0; j < jobs; ++j) {
      if (failed[j]) {
        slices_[j] = {xs_.size(), xs_.size(), true};
        continue;
      }
      const std::span<const Sample> samples = workloads[j].samples(metric);
      const std::size_t begin = xs_.size();
      try {
        slices_[j] = stage(samples, merges[j]);
      } catch (const std::exception& e) {
        // Per-item isolation: this workload reports exactly what the
        // scalar path would have thrown; its partial rankings are
        // discarded and its staged lanes unwound so no other workload
        // sees them.
        failed[j] = 1;
        out[j].error = e.what();
        partial[j] = {};
        xs_.resize(begin);
        ws_.resize(begin);
        slices_[j] = {begin, begin, true};
      }
    }
    eval_lanes(tables, m);
    for (std::size_t j = 0; j < jobs; ++j) {
      if (failed[j]) continue;
      accumulate(slices_[j], metric, partial[j]);
    }
  }
  flush_counters();

  for (std::size_t j = 0; j < jobs; ++j) {
    if (failed[j]) continue;
    if (partial[j].ranking.empty()) {
      out[j].error = kNoSharedMetric;
      continue;
    }
    std::sort(partial[j].ranking.begin(), partial[j].ranking.end(),
              [](const MetricEstimate& a, const MetricEstimate& b) {
                return a.p_bar < b.p_bar;
              });
    partial[j].throughput = partial[j].ranking.front().p_bar;
    out[j].estimate = std::move(partial[j]);
  }
  return out;
}

std::vector<EvalOutcome> EvalBatch::estimate_many(
    const EvalTables& tables, std::span<const DatasetView> workloads,
    Merge merge) {
  const std::vector<Merge> merges(workloads.size(), merge);
  return estimate_many(tables, workloads,
                       std::span<const Merge>(merges.data(), merges.size()));
}

}  // namespace spire::serve
