#include "pipeline/engine.h"

#include <fstream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "counters/events.h"
#include "serve/model_v3.h"
#include "serve/registry.h"
#include "sim/core.h"
#include "spire/model_io.h"
#include "workloads/profile_stream.h"

namespace spire::pipeline {

void Engine::require(bool condition, const char* what) const {
  if (!condition) throw std::runtime_error(what);
}

Engine& Engine::collect(const workloads::SuiteEntry& entry,
                        const sampling::CollectorConfig& config,
                        std::uint64_t max_cycles, std::uint64_t seed) {
  workloads::ProfileStream stream(entry.profile);
  sim::Core core(sim::CoreConfig{}, stream, seed);
  sampling::SampleCollector collector(config);
  sampling::Dataset collected;
  const counters::CounterSet before = core.counters();
  context_.collection_stats = collector.collect(core, collected, max_cycles);
  context_.counter_delta = core.counters().since(before);
  context_.data.merge(collected);
  return *this;
}

Engine& Engine::load_samples(const std::vector<std::string>& paths) {
  for (const auto& path : paths) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    try {
      context_.data.merge(sampling::Dataset::load_csv(in));
    } catch (const std::exception& e) {
      throw std::runtime_error(path + ": " + e.what());
    }
  }
  return *this;
}

Engine& Engine::validate() {
  auto result = quality::sanitize(context_.data, context_.policy);
  context_.quality_report = result.report;
  if (context_.log != nullptr && !result.report.clean()) {
    *context_.log << result.report.describe();
    if (context_.policy == quality::Policy::kRepair && result.repaired()) {
      *context_.log << "repair: dropped " << result.dropped
                    << " sample(s), clamped " << result.clamped << '\n';
    }
  }
  context_.data = std::move(result.data);
  return *this;
}

Engine& Engine::train() {
  require(!context_.data.empty(), "train stage requires samples");
  model::Ensemble::TrainOptions options = context_.train_options;
  options.exec = context_.exec;
  context_.ensemble = model::Ensemble::train(context_.data, options);
  if (context_.log != nullptr) {
    for (const auto& s : context_.ensemble->skipped()) {
      *context_.log << "train: skipped " << counters::event_name(s.metric)
                    << ": " << s.reason << '\n';
    }
  }
  return *this;
}

Engine& Engine::load_model(const std::string& path) {
  context_.ensemble = model::load_model_any_file(path);
  return *this;
}

Engine& Engine::compile() {
  require(context_.ensemble.has_value(), "compile stage requires an ensemble");
  context_.model = std::make_shared<const serve::MappedModel>(
      serve::MappedModel::compile(*context_.ensemble));
  return *this;
}

Engine& Engine::compile_v3(const std::string& out_path) {
  require(context_.ensemble.has_value(),
          "compile_v3 stage requires an ensemble");
  serve::save_model_v3_file(*context_.ensemble, out_path);
  return *this;
}

Engine& Engine::publish(const std::string& registry_root) {
  require(context_.ensemble.has_value(), "publish stage requires an ensemble");
  serve::ModelRegistry registry(registry_root);
  context_.published_id = registry.publish(*context_.ensemble);
  if (context_.log != nullptr) {
    *context_.log << "publish: " << context_.published_id << '\n';
  }
  return *this;
}

Engine& Engine::resolve_model(const std::string& registry_root,
                              const std::string& id,
                              std::size_t registry_cache) {
  serve::ModelRegistry registry(registry_root, registry_cache);
  std::string resolved = id;
  if (id == "latest") {
    resolved = registry.latest();
    require(!resolved.empty(), "registry has no published models");
  }
  context_.model = registry.open(resolved);
  context_.resolved_id = resolved;
  // The ensemble form feeds the non-serving stages (estimate, analyze);
  // the stream loader revalidates the artifact end to end on the way.
  context_.ensemble =
      model::load_model_bin_file(registry.object_path(resolved));
  return *this;
}

Engine& Engine::estimate_batch(const std::vector<std::string>& workload_paths) {
  serve::BatchOptions options;
  options.exec = context_.exec;
  if (context_.model == nullptr) compile();
  // Shared: the context keeps the model for later stages.
  const serve::EstimationService service(context_.model);
  const serve::EvalCountersSnapshot before = serve::eval_counters_snapshot();
  context_.batch_results = service.estimate_files(workload_paths, options);
  if (context_.log != nullptr) {
    for (const auto& r : context_.batch_results) {
      if (!r.ok()) {
        *context_.log << "estimate_batch: " << r.source << ": " << r.error
                      << '\n';
      }
    }
    // Evaluator work for this stage (delta of the process-wide counters):
    // one metric batch per ranked metric per workload, and its samples.
    const serve::EvalCountersSnapshot after = serve::eval_counters_snapshot();
    *context_.log << "estimate_batch: evaluated "
                  << after.scalar_batches - before.scalar_batches
                  << " metric batch(es)/"
                  << after.scalar_lanes - before.scalar_lanes << " lane(s)\n";
  }
  return *this;
}

Engine& Engine::lint_check(const std::vector<std::string>& model_paths,
                           bool against_data, const lint::LintConfig& config) {
  std::optional<sampling::DatasetView> against;
  if (against_data) against = sampling::DatasetView(context_.data);
  for (const auto& path : model_paths) {
    context_.lint_reports.push_back(lint::lint_model_file(path, against, config));
  }
  return *this;
}

Engine& Engine::estimate() {
  require(context_.ensemble.has_value(), "estimate stage requires an ensemble");
  context_.estimate = context_.ensemble->estimate(
      context_.data, model::Merge::kTimeWeighted, context_.exec);
  return *this;
}

Engine& Engine::analyze() {
  require(context_.ensemble.has_value(), "analyze stage requires an ensemble");
  require(!context_.data.empty(), "analyze stage requires samples");
  context_.analysis =
      model::Analyzer(*context_.ensemble).analyze(context_.data, context_.exec);
  if (context_.log != nullptr) {
    for (const auto& s : context_.analysis->skipped) {
      *context_.log << "analyze: skipped " << counters::event_name(s.metric)
                    << ": " << s.reason << '\n';
    }
  }
  return *this;
}

Engine& Engine::leave_one_out(
    const std::vector<model::LabelledDataset>& workloads) {
  context_.loo_results =
      model::leave_one_out(workloads, context_.train_options, context_.exec);
  return *this;
}

}  // namespace spire::pipeline
