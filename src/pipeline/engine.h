// Unified orchestration for the SPIRE toolchain.
//
// Every front end — the CLI, the paper-reproduction benches, the
// cross-validation harness — runs the same few stages in some order:
// collect or load samples, validate them, train or load an ensemble, lint
// the artifact, estimate, analyze. Before this subsystem each front end
// re-implemented that wiring (quality policy application, skipped-metric
// reporting, exec-option plumbing) with drifting behavior. The Engine owns
// it once: stages are methods over a shared PipelineContext, chainable in
// any sensible order, and every parallel stage draws its thread budget from
// the one ExecOptions in the context.
//
// Determinism: stages delegate to Ensemble/Analyzer/leave_one_out, whose
// parallel output is bit-identical to serial, so an Engine run's results
// depend only on inputs and options — never on context.exec.threads.
//
// Concurrency contract (DESIGN.md §13): PipelineContext is deliberately
// THREAD-CONFINED — one Engine, one context, one driving thread, zero
// locks. All cross-thread work happens below this layer inside
// util::ThreadPool (annotated with the thread-safety capability macros),
// and workers only ever receive index-sliced views of context fields, so
// the context itself needs no util::Mutex. Do not add shared mutable
// state here; route it through the pool's fan-out helpers instead.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "counters/counter_set.h"
#include "lint/lint.h"
#include "quality/quality.h"
#include "sampling/collector.h"
#include "sampling/dataset.h"
#include "serve/mapped_model.h"
#include "serve/service.h"
#include "spire/analyzer.h"
#include "spire/ensemble.h"
#include "spire/validation.h"
#include "util/thread_pool.h"
#include "workloads/suite.h"

namespace spire::pipeline {

/// Shared state the stages read and write. Configuration fields (exec,
/// policy, train_options, log) are set by the front end before running
/// stages; result fields are filled as stages execute.
struct PipelineContext {
  // --- configuration -------------------------------------------------------
  /// Thread budget for every parallel stage (train, estimate, analyze,
  /// leave_one_out). Default = serial; results are identical either way.
  util::ExecOptions exec{};
  /// What validate() does about defects: throw, repair, or report.
  quality::Policy policy = quality::Policy::kWarn;
  model::Ensemble::TrainOptions train_options{};
  /// Stage diagnostics (quality reports, skipped metrics, repair surgery)
  /// are written here; nullptr silences them.
  std::ostream* log = nullptr;

  // --- results -------------------------------------------------------------
  sampling::Dataset data;  // accumulated samples (collect / load_samples)
  std::optional<sampling::CollectionStats> collection_stats;
  std::optional<counters::CounterSet> counter_delta;  // whole-run TMA delta
  std::optional<quality::QualityReport> quality_report;
  std::optional<model::Ensemble> ensemble;
  /// The serving model: compile stage output (an in-memory v3 image), or
  /// resolve_model output (a shared registry mapping).
  std::shared_ptr<const serve::MappedModel> model;
  std::string published_id;  // publish stage output (registry content id)
  std::string resolved_id;   // resolve_model output (after "latest" resolves)
  std::optional<model::Estimate> estimate;
  std::vector<serve::BatchResult> batch_results;  // estimate_batch output
  std::optional<model::Analyzer::Analysis> analysis;
  std::vector<lint::LintReport> lint_reports;
  std::vector<model::LeaveOneOutResult> loo_results;
};

/// The stage runner. Each stage mutates the shared context and returns
/// *this, so front ends read as the pipeline they run:
///
///   pipeline::Engine engine;
///   engine.context().exec = util::ExecOptions::hardware();
///   engine.load_samples(paths).validate().train();
///   model::save_model_file(*engine.context().ensemble, out_path);
class Engine {
 public:
  Engine() = default;
  explicit Engine(PipelineContext context) : context_(std::move(context)) {}

  PipelineContext& context() { return context_; }
  const PipelineContext& context() const { return context_; }

  /// Runs `entry` on a fresh simulated core under the multiplexing sampler,
  /// merging the samples into the shared dataset. Also records collection
  /// stats and the whole-run counter delta (for TMA baselines).
  Engine& collect(const workloads::SuiteEntry& entry,
                  const sampling::CollectorConfig& config,
                  std::uint64_t max_cycles, std::uint64_t seed = 7);

  /// Merges sample CSVs into the shared dataset. Throws std::runtime_error
  /// naming the path when a file cannot be opened or parsed.
  Engine& load_samples(const std::vector<std::string>& paths);

  /// Scans the shared dataset for quality defects and applies the context
  /// policy: kStrict throws quality::QualityError, kRepair replaces the
  /// dataset with the repaired one, kWarn leaves it untouched. The report
  /// (and any repair surgery) lands in quality_report and the log.
  Engine& validate();

  /// Fits one roofline per metric (parallel across metrics per
  /// context.exec). Skipped metrics are logged; the ensemble lands in
  /// context().ensemble.
  Engine& train();

  /// Loads a serialized ensemble (text v1, binary v2/v3, sniffed) instead
  /// of training one.
  Engine& load_model(const std::string& path);

  /// Flattens the trained/loaded ensemble into an in-memory v3 image
  /// served as a serve::MappedModel (context().model) — the immutable,
  /// lock-free artifact the batch serving stages evaluate through.
  Engine& compile();

  /// Serializes the trained/loaded ensemble as a binary v3 artifact at
  /// `out_path`: the same bytes compile() serves from memory, mappable by
  /// serve::MappedModel::map_file.
  Engine& compile_v3(const std::string& out_path);

  /// Publishes the ensemble's canonical v3 form to the content-addressed
  /// registry at `registry_root`; the id lands in context().published_id.
  Engine& publish(const std::string& registry_root);

  /// Resolves a content-addressed model id through the registry at
  /// `registry_root`: maps the artifact zero-copy into context().model
  /// (which estimate_batch then serves through) and loads the ensemble
  /// form into context().ensemble for stages that need it. The sentinel
  /// id "latest" resolves to the most recently published object; the
  /// concrete id lands in context().resolved_id either way.
  /// `registry_cache` sizes the registry's mapping LRU (the CLI's
  /// --registry-cache flag); irrelevant for a single resolve but honored
  /// so callers driving many resolves through one Engine share policy
  /// with the server path.
  Engine& resolve_model(const std::string& registry_root,
                        const std::string& id,
                        std::size_t registry_cache = 8);

  /// Estimates every workload CSV, one pool task per file per context.exec.
  /// Serves through context().model, compiling on demand when only the
  /// ensemble is present. Per-file failures are isolated: results land in
  /// batch_results in input order with either the Estimate or the error
  /// string set.
  Engine& estimate_batch(const std::vector<std::string>& workload_paths);

  /// Statically lints serialized model files, appending one report per file
  /// to lint_reports. When `against_data` is true the shared dataset is the
  /// bound-check reference (an immutable view of it; the dataset must not
  /// be mutated concurrently).
  Engine& lint_check(const std::vector<std::string>& model_paths,
                     bool against_data = false,
                     const lint::LintConfig& config = {});

  /// Ensemble-wide attainable-throughput estimate of the shared dataset
  /// (per-metric Eq.-(1) averages in parallel per context.exec).
  Engine& estimate();

  /// Full bottleneck analysis (ranking + throughputs) of the shared dataset
  /// against the ensemble.
  Engine& analyze();

  /// Leave-one-workload-out cross-validation over `workloads`, training
  /// folds with context train_options and running them as pool tasks per
  /// context.exec. Results (ordered by fold) land in loo_results.
  Engine& leave_one_out(const std::vector<model::LabelledDataset>& workloads);

 private:
  /// Throws std::runtime_error(stage + " requires ...") when `condition`
  /// does not hold.
  void require(bool condition, const char* what) const;

  PipelineContext context_;
};

}  // namespace spire::pipeline
