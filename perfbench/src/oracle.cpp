#include "oracle.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "counters/events.h"

namespace perfbench {

using spire::server::ErrorCode;
using spire::server::WorkloadResult;

WorkloadResult expected_result(const spire::model::Ensemble& model,
                               const spire::sampling::DatasetView& workload,
                               const spire::server::Limits& limits) {
  WorkloadResult result;
  spire::model::Estimate estimate;
  try {
    estimate = model.estimate(workload);
  } catch (const std::exception& e) {
    result.status = ErrorCode::kEstimationFailed;
    result.error = e.what();
    return result;
  }
  result.samples = workload.size();
  result.throughput = estimate.throughput;
  const std::size_t top = std::min(estimate.ranking.size(), limits.max_ranking);
  for (std::size_t i = 0; i < top; ++i) {
    const auto& r = estimate.ranking[i];
    result.ranking.push_back({std::string(spire::counters::event_name(r.metric)),
                              r.p_bar, r.samples});
  }
  return result;
}

std::string compare_result(const WorkloadResult& got,
                           const WorkloadResult& want) {
  if (got.status != want.status) {
    return std::string("status ") + spire::server::error_code_name(got.status) +
           " != " + spire::server::error_code_name(want.status) + " (" +
           got.error + ")";
  }
  if (got.error != want.error) return "error text differs: " + got.error;
  if (got.samples != want.samples) {
    return "samples " + std::to_string(got.samples) +
           " != " + std::to_string(want.samples);
  }
  if (std::bit_cast<std::uint64_t>(got.throughput) !=
      std::bit_cast<std::uint64_t>(want.throughput)) {
    return "throughput bits differ";
  }
  if (got.ranking.size() != want.ranking.size()) {
    return "ranking length " + std::to_string(got.ranking.size()) +
           " != " + std::to_string(want.ranking.size());
  }
  for (std::size_t i = 0; i < got.ranking.size(); ++i) {
    const auto& g = got.ranking[i];
    const auto& w = want.ranking[i];
    if (g.metric != w.metric || g.samples != w.samples ||
        std::bit_cast<std::uint64_t>(g.p_bar) !=
            std::bit_cast<std::uint64_t>(w.p_bar)) {
      return "ranking entry " + std::to_string(i) + " differs (" + g.metric +
             " vs " + w.metric + ")";
    }
  }
  return "";
}

}  // namespace perfbench
