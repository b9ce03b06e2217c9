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
                                  model::bin::Verify verify) {
  return open_image(util::MmapFile::open_readonly(path), verify);
}

MappedModel MappedModel::compile(const model::Ensemble& ensemble) {
  // The writer just produced these bytes, so the structure tier (what
  // memory safety needs) is all the open has to re-check.
  return open_image(util::MmapFile::from_bytes(model_v3_bytes(ensemble)),
                    model::bin::Verify::kStructure);
}

MappedModel MappedModel::open_image(util::MmapFile image,
                                    model::bin::Verify verify) {
  MappedModel out;
  out.file_ = std::move(image);
  out.view_ = model::bin::map_flat(out.file_.bytes(), verify);
  out.metrics_ = model::bin::resolve_metrics(out.view_);
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
