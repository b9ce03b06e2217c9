// The flattened-table evaluator behind serve::MappedModel.
//
// A MappedModel (spans straight into a v4 image, mapped from a file or
// compiled in memory) presents a structure-of-arrays shape: per-metric
// piece-index ranges over shared x0/y0/x1/y1 endpoint columns. EvalTables
// is that shape as non-owning spans, and the functions here are THE single
// implementation of the bit-identity contract — estimate results identical
// to Ensemble::estimate down to the last ulp, same ranking order, same
// skip reasons, same error text.
//
// Two evaluators share that contract (model_eval.cpp):
//
//  * the SCALAR REFERENCE (eval_roofline / estimate_tables): one sample at
//    a time, per-sample std::lower_bound over the x1 column. This is the
//    semantic ground truth the serving path is checked against;
//  * the DIRECT PATH (estimate), which every serving surface calls: once
//    per workload, in sample order, with nothing staged. A metric whose
//    regions hold at most kPairMaxRegionPieces pieces (every trained
//    model's) runs the pair kernel, one body templated on its lane count:
//    four samples per step in 32-byte GCC/Clang vectors on an x86-64 host
//    with AVX2, otherwise two in 16-byte ones (SSE2 on x86-64, NEON on
//    aarch64, scalar code elsewhere), chosen once per process
//    (eval_kernel_lanes()). Per step: the structural filter and region
//    choice as lane masks, the segment search as a branch-free count of
//    the region's breakpoints below the intensity, the endpoints gathered
//    by index, one lane-wise divide for the intensities and one for
//    LinearPiece::at, and the reference's early returns as selects in its
//    priority order. The step's Eq. (1) terms are then added one lane at
//    a time, in sample order, so every sum sees the reference's exact
//    sequence of additions, and both widths give the same bits. A metric
//    with a bigger region keeps the reference's own per-sample loop with a
//    branchless lower_bound, so its cost stays O(log n) up to
//    model::bin::kMaxRegionCorners. Debug/SPIRE_CHECKED builds re-verify
//    every lane against the scalar reference bit-for-bit.
//
// Everything is read-only over the tables and keeps no scratch: one table
// set can serve concurrent calls from any number of threads without locks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "counters/events.h"
#include "sampling/dataset_view.h"
#include "spire/ensemble.h"
#include "spire/model_bin.h"

namespace spire::serve {

/// Largest region the direct path's pair kernel evaluates by counting
/// breakpoints; a metric with a bigger region keeps the one-lane
/// branchless search (DESIGN.md §15 has the sweep this bound comes from).
inline constexpr std::size_t kPairMaxRegionPieces = 48;

/// Non-owning view of flattened model tables. `metrics` and `ranges` are
/// parallel (ascending Event order); piece i of the shared columns is the
/// segment (x0[i], y0[i]) -> (x1[i], y1[i]). Endpoint form, not
/// slope/intercept: LinearPiece::at's exact expression is what the
/// bit-identity contract replicates.
struct EvalTables {
  std::span<const counters::Event> metrics;
  std::span<const model::bin::MetricRange> ranges;
  std::span<const double> x0, y0, x1, y1;

  std::size_t metric_count() const { return ranges.size(); }
  std::size_t piece_count() const { return x0.size(); }
};

/// Roofline lookup replicating MetricRoofline::estimate over one metric's
/// [begin, end) slices of the tables. SCALAR REFERENCE — the serving path
/// must reproduce this bit-for-bit for every lane.
double eval_roofline(const EvalTables& tables,
                     const model::bin::MetricRange& range, double intensity);

/// Ensemble-wide estimate, bit-identical to Ensemble::estimate on the
/// source ensemble: same throughput/ranking/skipped values and the same
/// std::invalid_argument when the workload shares no metric. SCALAR
/// REFERENCE path (per-sample std::lower_bound); serving code calls
/// estimate(), which is bit-identical.
model::Estimate estimate_tables(const EvalTables& tables,
                                sampling::DatasetView workload,
                                model::Merge merge);

/// The serving evaluator: one workload's ensemble-wide estimate.
/// Bit-identical to estimate_tables, including the thrown
/// std::invalid_argument when the workload shares no metric.
model::Estimate estimate(const EvalTables& tables,
                         sampling::DatasetView workload, model::Merge merge);

/// A plain-value copy of the process-wide evaluator counters, published
/// lock-free so the server's stats snapshot can export the eval layer's
/// signals without touching serving threads. Monotonic, relaxed: readers
/// see a consistent-enough view for rates and ratios. Each ranked metric
/// of an estimate counts one scalar batch and its samples as scalar
/// lanes. The planned fields name a retired batch kernel and stay 0; they
/// remain so stats consumers keep their keys.
struct EvalCountersSnapshot {
  std::uint64_t planned_batches = 0;
  std::uint64_t planned_lanes = 0;
  std::uint64_t scalar_batches = 0;
  std::uint64_t scalar_lanes = 0;
};

EvalCountersSnapshot eval_counters_snapshot();

/// Whether the direct path's pair kernel compiles to SIMD instructions:
/// true on x86-64 (SSE2) and aarch64 (NEON), false where the vector types
/// lower to scalar code. Kept for perf reporting that records it.
bool eval_kernel_vectorized();

/// The number of samples the direct path's pair kernel evaluates per step
/// in this process: 4 on an x86-64 host with AVX2 (GCC or Clang builds),
/// otherwise 2. Decided once per process, as util::crc32_update picks its
/// arm; the estimates are the same bits at either width.
std::size_t eval_kernel_lanes();

namespace detail {

/// estimate() with the pair kernel at `lanes` lanes and without the
/// process-wide counters, so a test can hold both widths to the scalar
/// reference on one host. `lanes` is 2, or 4 where eval_kernel_lanes() is
/// 4; any other width throws ContractViolation. Not for callers: estimate()
/// already picks the width.
model::Estimate estimate_with_lanes(const EvalTables& tables,
                                    sampling::DatasetView workload,
                                    model::Merge merge, std::size_t lanes);

}  // namespace detail

}  // namespace spire::serve
