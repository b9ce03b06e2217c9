#include "serve/model_eval.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
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

/// Process-wide evaluator counters behind eval_counters_snapshot().
std::atomic<std::uint64_t> scalar_batches_total{0};
std::atomic<std::uint64_t> scalar_lanes_total{0};

/// Per-call counter deltas: one scalar batch per ranked metric, its
/// samples as lanes. flush() publishes them once per entry point, so the
/// per-workload loop never touches an atomic.
struct CounterDelta {
  std::uint64_t batches = 0;
  std::uint64_t lanes = 0;

  void count(const Estimate& estimate) {
    for (const MetricEstimate& entry : estimate.ranking) {
      batches += 1;
      lanes += entry.samples;
    }
  }

  void flush() const {
    if (batches == 0) return;
    scalar_batches_total.fetch_add(batches, std::memory_order_relaxed);
    scalar_lanes_total.fetch_add(lanes, std::memory_order_relaxed);
  }
};

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

Estimate estimate(const EvalTables& tables, DatasetView workload,
                  Merge merge) {
  Estimate out = direct_estimate(tables, workload, merge);
  check_direct_lanes(tables, workload);
  CounterDelta delta;
  delta.count(out);
  delta.flush();
  return out;
}

std::vector<EvalOutcome> estimate_many(const EvalTables& tables,
                                       std::span<const DatasetView> workloads,
                                       std::span<const Merge> merges) {
  SPIRE_ASSERT(merges.size() == workloads.size(),
               "estimate_many: ", workloads.size(), " workload(s) but ",
               merges.size(), " merge mode(s)");
  std::vector<EvalOutcome> out(workloads.size());
  CounterDelta delta;
  for (std::size_t j = 0; j < workloads.size(); ++j) {
    try {
      out[j].estimate = direct_estimate(tables, workloads[j], merges[j]);
    } catch (const std::exception& e) {
      out[j].error = e.what();
      continue;
    }
    check_direct_lanes(tables, workloads[j]);
    delta.count(*out[j].estimate);
  }
  delta.flush();
  return out;
}

std::vector<Estimate> estimate_batch_tables(
    const EvalTables& tables, std::span<const DatasetView> workloads,
    util::ExecOptions exec, Merge merge) {
  // The tables are immutable and the evaluator keeps no scratch: no
  // shared mutable state but the relaxed counters, and index-ordered
  // collection keeps results (and the first exception) identical to the
  // serial loop.
  return util::parallel_for_index(exec, workloads.size(), [&](std::size_t i) {
    return estimate(tables, workloads[i], merge);
  });
}

EvalCountersSnapshot eval_counters_snapshot() {
  EvalCountersSnapshot snap;
  snap.scalar_batches = scalar_batches_total.load(std::memory_order_relaxed);
  snap.scalar_lanes = scalar_lanes_total.load(std::memory_order_relaxed);
  return snap;
}

bool eval_kernel_vectorized() { return false; }

}  // namespace spire::serve
