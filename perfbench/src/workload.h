// The benchmark's three traffic mixes and the inputs each is made of.
// perfbench/WORKLOADS.md records why each exists and which layers it loads
// and bypasses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "load.h"
#include "sampling/dataset.h"
#include "spire/ensemble.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  bool binary = true;          // spire-profile-bin frames, else text CSV
  bool class_routed = false;   // route by model class (hot-swappable slot)
  std::size_t models = 1;      // published at setup
  std::size_t profiles = 0;    // distinct profiles in the pool
  double low_rate = 0.0;       // open-loop offered rates, requests/s
  double high_rate = 0.0;
  double swap_interval_s = 0.0;  // > 0: publish and swap at this interval
  // Skew of the (model, profile) draw; 0 = every profile in turn, one model.
  double profile_skew = 0.0;
  double model_skew = 0.0;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* find_workload(const std::string& name);

/// Model index of a class-routed request kind: whichever model the slot
/// serves when the request arrives.
inline constexpr std::uint32_t kRoutedModel = 0xffffffffu;

struct Inputs {
  /// The profile pool, then one more profile used only to first-touch
  /// each model during setup.
  std::vector<spire::sampling::Dataset> profiles;
  std::vector<std::string> bodies;  // each profile's wire bytes
  /// Models published at setup, then (swap workload) the versions
  /// published during the run, in publish order.
  std::vector<spire::model::Ensemble> models;
  /// Request kinds as (model, profile) pairs, and the order they are sent.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::vector<std::uint32_t> schedule;

  std::size_t warmup_profile() const { return profiles.size() - 1; }
};

/// Everything a run sends, drawn from `suite` by `seed` alone. `versions`
/// extra models are made for the swaps. Generation runs on `threads`
/// threads; the result does not depend on the count.
Inputs make_inputs(const WorkloadSpec& spec, const Suite& suite,
                   std::uint64_t seed, std::size_t versions,
                   std::size_t threads);

/// The frame of each request kind, addressed to the published model ids
/// (`ids[m]` for model m; class-routed kinds name no id).
std::vector<RequestKind> make_kinds(const WorkloadSpec& spec,
                                    const Inputs& inputs,
                                    const std::vector<std::string>& ids);

/// One request for `profile` to `model_id` ("" = the default class), as a
/// RequestKind whose head and body concatenate to the protocol encoder's
/// payload.
RequestKind make_kind(bool binary, const std::string& model_id,
                      const std::string& body);

}  // namespace perfbench
