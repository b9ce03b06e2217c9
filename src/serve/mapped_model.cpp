#include "serve/mapped_model.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "serve/model_v3.h"

namespace spire::serve {

using counters::Event;
using model::Estimate;
using model::Merge;
using sampling::DatasetView;

MappedModel MappedModel::map_file(const std::string& path,
                                  model::v3::Verify verify) {
  return open_image(util::MmapFile::open_readonly(path), verify);
}

MappedModel MappedModel::compile(const model::Ensemble& ensemble) {
  // The writer just produced these bytes, so the structure tier (what
  // memory safety needs) is all the open has to re-check.
  return open_image(util::MmapFile::from_bytes(model_v3_bytes(ensemble)),
                    model::v3::Verify::kStructure);
}

MappedModel MappedModel::open_image(util::MmapFile image,
                                    model::v3::Verify verify) {
  MappedModel out;
  out.file_ = std::move(image);
  out.view_ = model::v3::map_flat(out.file_.bytes(), verify);
  const std::string& path = out.file_.path();

  // Resolve the name-index records to Events. Table order must be strictly
  // ascending by event id — the order the v3 writer emits (std::map
  // iteration) and the order the bit-identity contract's ranking
  // accumulation assumes.
  out.metrics_.reserve(out.view_.names.size());
  for (const model::v3::NameRef& ref : out.view_.names) {
    const std::string_view name = out.view_.name(ref);
    const auto metric = counters::event_by_name(name);
    if (!metric) {
      throw std::runtime_error("model-v3: " + path + ": unknown metric '" +
                               std::string(name) + "'");
    }
    if (!out.metrics_.empty() && *metric <= out.metrics_.back()) {
      throw std::runtime_error(
          "model-v3: " + path + ": metric '" + std::string(name) +
          "' out of order (tables must ascend by event id)");
    }
    out.metrics_.push_back(*metric);
  }
  return out;
}

Estimate MappedModel::estimate(DatasetView workload, Merge merge) const {
  return serve::estimate(tables(), workload, merge);
}

std::vector<Estimate> MappedModel::estimate_batch(
    std::span<const DatasetView> workloads, util::ExecOptions exec,
    Merge merge) const {
  return estimate_batch_tables(tables(), workloads, exec, merge);
}

std::vector<EvalOutcome> MappedModel::estimate_many(
    std::span<const DatasetView> workloads,
    std::span<const Merge> merges) const {
  return serve::estimate_many(tables(), workloads, merges);
}

}  // namespace spire::serve
