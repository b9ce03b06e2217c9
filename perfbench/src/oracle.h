// The correctness oracle: what every estimate reply must say.
//
// `Ensemble::estimate` (the tree walk) is the reference every serving
// surface reproduces bit for bit. The benchmark computes it for each
// (model, profile) pair before any timing starts and checks every reply
// against it: status and error text, sample count, throughput bits, and
// the ranking prefix the wire carries (metric, p_bar bits, samples).
// Skip reasons reach the wire only through a failed workload's error
// text, which is compared as part of the status.
#pragma once

#include <cstdint>
#include <string>

#include "sampling/dataset_view.h"
#include "server/protocol.h"
#include "spire/ensemble.h"

namespace perfbench {

/// The reply the server must give for `workload` under `model`: exactly
/// what it encodes from the same Estimate.
spire::server::WorkloadResult expected_result(
    const spire::model::Ensemble& model,
    const spire::sampling::DatasetView& workload,
    const spire::server::Limits& limits = {});

/// "" when `got` matches `want` exactly; otherwise the first difference.
std::string compare_result(const spire::server::WorkloadResult& got,
                           const spire::server::WorkloadResult& want);

}  // namespace perfbench
