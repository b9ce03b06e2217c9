#include "serve/service.h"

#include <chrono>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "sampling/dataset.h"
#include "sampling/dataset_view.h"
#include "serve/registry.h"
#include "spire/model_io.h"

namespace spire::serve {

EstimationService::EstimationService(MappedModel model)
    : model_(std::make_shared<const MappedModel>(std::move(model))) {}

EstimationService::EstimationService(std::shared_ptr<const MappedModel> model)
    : model_(std::move(model)) {
  if (!model_) {
    throw std::invalid_argument("EstimationService: null mapped model");
  }
}

EstimationService EstimationService::from_file(const std::string& path) {
  if (model::binary_model_file_version(path) ==
      model::kModelBinV3FormatVersion) {
    return EstimationService(MappedModel::map_file(path));
  }
  return EstimationService(
      MappedModel::compile(model::load_model_any_file(path)));
}

EstimationService EstimationService::from_registry(ModelRegistry& registry,
                                                   const std::string& id) {
  return EstimationService(registry.open(id));
}

std::vector<BatchResult> EstimationService::estimate_files(
    std::span<const std::string> paths, const BatchOptions& options) const {
  // Each task owns its Dataset (the view it estimates through points into
  // task-local storage) and only reads the shared immutable tables, so the
  // fan-out has no shared mutable state.
  const EvalTables tables = model_->tables();
  return util::parallel_for_index(
      options.exec, paths.size(), [&](std::size_t i) {
        BatchResult result;
        result.source = paths[i];
        try {
          std::ifstream in(paths[i]);
          if (!in) throw std::runtime_error("cannot open " + paths[i]);
          const sampling::Dataset data = sampling::Dataset::load_csv(in);
          const sampling::DatasetView view(data);
          result.samples = view.size();
          result.estimate = serve::estimate(tables, view, options.merge);
        } catch (const std::exception& e) {
          result.error = e.what();
        }
        return result;
      });
}

std::vector<BatchResult> EstimationService::estimate_views(
    std::span<const ViewJob> jobs) const {
  const EvalTables tables = model_->tables();
  std::vector<BatchResult> results(jobs.size());

  // No stage pass to speak of: the views already exist, so the only
  // per-item work before the kernel is the deadline check. The clock is
  // monotonic, so once the budget is gone every remaining item reports
  // expiry.
  std::vector<sampling::DatasetView> views;
  std::vector<model::Merge> merges;
  std::vector<std::size_t> slots;
  views.reserve(jobs.size());
  merges.reserve(jobs.size());
  slots.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ViewJob& job = jobs[i];
    BatchResult& result = results[i];
    if (job.has_deadline &&
        std::chrono::steady_clock::now() >= job.deadline) {
      result.deadline_expired = true;
      result.error = "deadline expired";
      continue;
    }
    views.push_back(*job.view);  // cheap: spans, not samples
    result.samples = views.back().size();
    merges.push_back(job.merge);
    slots.push_back(i);
  }

  const auto outcomes = serve::estimate_many(
      tables, std::span<const sampling::DatasetView>(views),
      std::span<const model::Merge>(merges));
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    BatchResult& result = results[slots[k]];
    if (outcomes[k].ok()) {
      result.estimate = outcomes[k].estimate;
    } else {
      result.error = outcomes[k].error;
    }
  }
  return results;
}

}  // namespace spire::serve
