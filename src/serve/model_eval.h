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
// Two evaluators share that contract and one body (roofline_at and
// estimate_with in model_eval.cpp, each taking the segment search or the
// per-sample lookup as a parameter):
//
//  * the SCALAR REFERENCE (eval_roofline / estimate_tables): one sample at
//    a time, per-sample std::lower_bound over the x1 column. This is the
//    semantic ground truth the serving path is checked against;
//  * the DIRECT PATH (estimate / estimate_many / estimate_batch_tables),
//    which every serving surface calls: the scalar reference's own loop
//    and select, once per workload, in sample order, with nothing staged;
//    only the segment search differs, a branchless lower_bound in place
//    of std::lower_bound. At trained size the columns are cache-resident
//    and std::lower_bound's cost is a mispredicted branch per probe,
//    which the branchless search lacks; at any size it is the same
//    O(log n) search, so regions up to model::bin::kMaxRegionCorners
//    pieces evaluate through it unchanged.
//    Debug/SPIRE_CHECKED builds re-verify every lane against the scalar
//    reference bit-for-bit.
//
// Everything is read-only over the tables and keeps no scratch: one table
// set can serve concurrent calls from any number of threads without locks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "counters/events.h"
#include "sampling/dataset_view.h"
#include "spire/ensemble.h"
#include "spire/model_bin.h"
#include "util/thread_pool.h"

namespace spire::serve {

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

/// One workload's outcome from estimate_many. Exactly one of
/// estimate/error is set; `error` carries the same text the scalar path
/// would have thrown (per-item isolation instead of batch abort).
struct EvalOutcome {
  std::optional<model::Estimate> estimate;
  std::string error;

  bool ok() const { return estimate.has_value(); }
};

/// estimate() per workload, in input order, in the calling thread, with
/// per-item error capture: a workload that shares no metric (or whose
/// samples violate the intensity contract) gets its EvalOutcome error set
/// to exactly the text the scalar path would have thrown, and every other
/// workload is unaffected. `merges` must be workloads.size() entries.
std::vector<EvalOutcome> estimate_many(
    const EvalTables& tables, std::span<const sampling::DatasetView> workloads,
    std::span<const model::Merge> merges);

/// One estimate per workload, in input order, fanned out across a pool per
/// `exec` (serial when threads <= 1). Results are bit-identical to a
/// serial scalar loop, and a workload that would make estimate_tables
/// throw makes the batch throw the same exception (lowest index wins).
std::vector<model::Estimate> estimate_batch_tables(
    const EvalTables& tables, std::span<const sampling::DatasetView> workloads,
    util::ExecOptions exec, model::Merge merge);

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

/// Always false: no vectorized kernel exists. Kept for perf reporting
/// that records it.
bool eval_kernel_vectorized();

}  // namespace spire::serve
