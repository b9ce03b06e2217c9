#include "workload.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "inputs.h"
#include "sampling/dataset_view.h"
#include "serve/profile_bin.h"
#include "server/protocol.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace sv = spire::server;

namespace {

// Request rates are fixed here, not derived at run time, so that a later
// change is measured at the same offered load. `high` is about a sixth of
// the capacity measured on the default build on a shared 4-vCPU host
// (3-4k requests/s, down to half that when the host is busy), where p99
// stays under the benchmark's latency limit; nearer capacity the latencies
// follow the host's load rather than the server.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec bin;
    bin.name = "bin-distinct";
    bin.binary = true;
    bin.models = 1;
    // Twice the server's default memo-cache capacity (256): a cyclic walk
    // over more keys than an LRU holds misses on every request.
    bin.profiles = 512;
    bin.low_rate = 200;
    bin.high_rate = 600;
    v.push_back(bin);

    WorkloadSpec text;
    text.name = "text-hot";
    text.binary = false;
    text.models = 16;
    // More profiles than the default parsed-profile cache holds (256), so
    // the cold tail of the skewed draw still parses. The skews put about
    // three quarters of replies in the memo cache: the median request is
    // then clearly a hit, not on the edge between hits and misses.
    text.profiles = 400;
    text.low_rate = 200;
    text.high_rate = 600;
    text.profile_skew = 1.4;
    text.model_skew = 1.2;
    v.push_back(text);

    WorkloadSpec swap;
    swap.name = "swap-churn";
    swap.binary = true;
    swap.class_routed = true;
    swap.models = 1;
    // As in bin-distinct: the cyclic walk outruns the memo-cache, so no
    // (version, profile) pair is answered from memory.
    swap.profiles = 512;
    swap.low_rate = 200;
    swap.high_rate = 400;
    swap.swap_interval_s = 0.5;
    v.push_back(swap);
    return v;
  }();
  return specs;
}

/// Cumulative Zipf weights over n ranks with exponent s.
std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

std::uint32_t draw(spire::util::Rng& rng, const std::vector<double>& cdf) {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(it - cdf.begin(), cdf.size() - 1));
}

constexpr std::uint64_t kScheduleStream = 4;
// Skewed schedules repeat after this many requests; longer than any run.
constexpr std::size_t kSkewedScheduleLength = 200'000;

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Inputs make_inputs(const WorkloadSpec& spec, const Suite& suite,
                   std::uint64_t seed, std::size_t versions,
                   std::size_t threads) {
  const spire::util::ExecOptions exec{threads};
  Inputs in;
  const std::vector<WindowDraw> draws =
      draw_profiles(suite, seed, spec.profiles + 1);
  in.profiles = spire::util::parallel_for_index(
      exec, draws.size(),
      [&](std::size_t i) { return make_profile(suite, draws[i]); });
  in.bodies = spire::util::parallel_for_index(
      exec, in.profiles.size(), [&](std::size_t i) {
        return spec.binary ? spire::serve::profile_bin::compile(
                                 spire::sampling::DatasetView(in.profiles[i]))
                           : to_csv(in.profiles[i]);
      });
  in.models = spire::util::parallel_for_index(
      exec, spec.models + versions,
      [&](std::size_t i) { return make_model(suite, seed, i); });

  if (spec.profile_skew <= 0.0) {
    const std::uint32_t model = spec.class_routed ? kRoutedModel : 0;
    for (std::uint32_t p = 0; p < spec.profiles; ++p) {
      in.pairs.emplace_back(model, p);
      in.schedule.push_back(p);
    }
    return in;
  }
  // Skewed draw: profile and model ranks are Zipf-distributed. Profile rank
  // r is profile r, drawn from suite member r mod 27, so the popular
  // profiles come from the same members under every seed (a seed changes
  // their windows, not how many bytes the popular requests carry); model
  // ranks are a seeded permutation.
  spire::util::Rng rng(spire::util::derive_seed(seed, kScheduleStream));
  std::vector<std::uint32_t> model_of(spec.models);
  for (std::uint32_t i = 0; i < model_of.size(); ++i) model_of[i] = i;
  rng.shuffle(model_of);
  const auto profile_cdf = zipf_cdf(spec.profiles, spec.profile_skew);
  const auto model_cdf = zipf_cdf(spec.models, spec.model_skew);
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> kind_of;
  for (std::size_t i = 0; i < kSkewedScheduleLength; ++i) {
    const std::pair<std::uint32_t, std::uint32_t> pair{
        model_of[draw(rng, model_cdf)], draw(rng, profile_cdf)};
    auto [it, fresh] = kind_of.emplace(
        pair, static_cast<std::uint32_t>(in.pairs.size()));
    if (fresh) in.pairs.push_back(pair);
    in.schedule.push_back(it->second);
  }
  return in;
}

RequestKind make_kind(bool binary, const std::string& model_id,
                      const std::string& body) {
  const sv::Limits limits;
  RequestKind kind;
  std::string payload;
  if (binary) {
    sv::EstimateBinRequest request;
    request.model_id = model_id;
    request.profiles = {body};
    payload = sv::encode_estimate_bin_request(request, limits);
    kind.type = sv::FrameType::kEstimateBinRequest;
  } else {
    sv::EstimateRequest request;
    request.model_id = model_id;
    request.workload_csvs = {body};
    payload = sv::encode_estimate_request(request, limits);
    kind.type = sv::FrameType::kEstimateRequest;
  }
  // Both encoders write the workload bytes last and verbatim.
  if (payload.size() < body.size() ||
      payload.compare(payload.size() - body.size(), body.size(), body) != 0) {
    throw std::logic_error("request payload does not end with the workload");
  }
  kind.head = payload.substr(0, payload.size() - body.size());
  kind.body = body;
  return kind;
}

std::vector<RequestKind> make_kinds(const WorkloadSpec& spec,
                                    const Inputs& inputs,
                                    const std::vector<std::string>& ids) {
  std::vector<RequestKind> kinds;
  kinds.reserve(inputs.pairs.size());
  for (const auto& [model, profile] : inputs.pairs) {
    kinds.push_back(make_kind(spec.binary,
                              model == kRoutedModel ? "" : ids.at(model),
                              inputs.bodies[profile]));
  }
  return kinds;
}

}  // namespace perfbench
