// Estimation-server performance: requests/sec and latency percentiles
// through the full framed-socket path, clean and under injected faults,
// plus a fleet scenario over the sharded routing path.
//
// Boots an in-process EstimationServer on a UNIX socket (model published
// to a throwaway registry), then drives it from concurrent client threads
// twice — once fault-free and once with 5% server-side chaos on every
// hook (stalled reads, mid-request hot swaps, forced overload). Client
// latency is measured around the whole Client::estimate call, so the
// faulted numbers include the retries and backoff a real caller would
// pay. Emits BENCH_server.json.
//
// The fleet scenario publishes 120 distinct models, first touches every
// one (cold: shard spin-up + mmap + evaluation, seeding the memo-cache),
// re-walks the fleet sequentially (warm: every reply a memo-cache hit,
// measured under the same single-client conditions as the cold pass),
// then drives a contended mixed-model request stream for sustained
// estimates/s. The cache-hit speedup ratio compares the two sequential
// passes only — stream latencies are reported separately because client
// queueing on few-core hosts would otherwise swamp the ratio. Merges a
// "fleet_serving" section into BENCH_serving.json next to perf_serving's
// own numbers.
//
// The parse-bound regime drives ONE connection through a fresh server
// (memo-cache off, every workload distinct so no cache can help) twice:
// first issuing big CSV workloads sequentially — each request pays a full
// text parse before evaluation — then issuing the SAME workloads as
// pipelined spire-profile-bin frames, which the server evaluates zero-copy
// straight out of the frame buffer. The requests/s ratio is the wire
// format's whole story: parse elided, framing overlapped.
//
// Both clean and chaos modes run a short untimed warm-up first (shard
// spin-up, artifact mmap, allocator + page-cache heat in both processes).
// Without it the clean mode — which always ran first — paid the cold
// start the chaos mode inherited for free, and the recorded
// p99_degradation once came out at 0.59x: chaos "faster" than clean, an
// artifact of measurement order, not resilience.
//
// Hard contracts verified on every run:
//  * every request succeeds (the chaos client retries through sheds, and
//    nothing else may fail on a healthy server);
//  * every server drains cleanly within its timeout after the load;
//  * fleet warm replies are bit-identical to the cold evaluation of the
//    same (model, workload) pair — the memo-cache may never change an
//    answer;
//  * binary replies are bit-identical to the text replies for the same
//    workloads — the wire format may never change an answer;
//  * resilience floor: the faulted p99 must stay within 3x the clean p99,
//    the fleet's warm (cache-hit) p50 must beat its cold p50 by >= 2x,
//    and the binary-pipelined connection must move >= 3x the requests/s
//    of the same connection issuing text sequentially in the parse-bound
//    regime (full mode; --smoke records the ratios but skips the
//    assertions — micro-latencies in a throttled container measure the
//    machine).
// Every skippable assertion lands in the JSON as a structured object
// ({status, reason, hardware_threads}), never a silent string.
//
//   perf_server [--smoke]
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "sampling/dataset.h"
#include "sampling/dataset_view.h"
#include "serve/profile_bin.h"
#include "serve/registry.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "spire/ensemble.h"
#include "util/rng.h"

using namespace spire;

namespace {

using Clock = std::chrono::steady_clock;

/// Same synthetic model family the server tests train: deterministic,
/// milliseconds to build, and exercises the full ranking path.
model::Ensemble trained_ensemble(std::uint64_t seed) {
  util::Rng rng(seed);
  sampling::Dataset train;
  for (counters::Event metric :
       {counters::Event::kIdqDsbUops, counters::Event::kLsdUops,
        counters::Event::kBrMispRetiredAllBranches,
        counters::Event::kLongestLatCacheMiss,
        counters::Event::kMemInstRetiredAllLoads}) {
    for (int i = 0; i < 60; ++i) {
      const double p = rng.uniform(0.1, 4.0);
      const double intensity = rng.chance(0.1)
                                   ? std::numeric_limits<double>::infinity()
                                   : std::pow(10.0, rng.uniform(-1.0, 3.0));
      train.add(metric, {1.0, p, std::isinf(intensity) ? 0.0 : p / intensity});
    }
  }
  return model::Ensemble::train(train);
}

/// One request's workload: big enough that evaluation dominates the
/// syscall cost, so the clean p99 is a real number and a single injected
/// stall is a perturbation rather than a 100x outlier.
sampling::Dataset workload_dataset(std::uint64_t seed, int per_metric) {
  util::Rng rng(seed);
  sampling::Dataset d;
  for (counters::Event metric :
       {counters::Event::kIdqDsbUops, counters::Event::kLsdUops,
        counters::Event::kBrMispRetiredAllBranches,
        counters::Event::kLongestLatCacheMiss}) {
    for (int i = 0; i < per_metric; ++i) {
      const double p = rng.uniform(0.05, 5.0);
      const double intensity = rng.chance(0.15)
                                   ? std::numeric_limits<double>::infinity()
                                   : std::pow(10.0, rng.uniform(-2.0, 4.0));
      d.add(metric, {rng.uniform(0.5, 2.0), p,
                     std::isinf(intensity) ? 0.0 : p / intensity});
    }
  }
  return d;
}

std::string workload_csv(std::uint64_t seed, int per_metric) {
  std::ostringstream out;
  workload_dataset(seed, per_metric).save_csv(out);
  return out.str();
}

std::string assertion_json(bool checked, const std::string& reason,
                           unsigned hardware) {
  std::string out = "{\"status\": \"";
  out += checked ? "checked" : "skipped";
  out += "\", \"reason\": \"";
  out += checked ? "" : reason;
  out += "\", \"hardware_threads\": " + std::to_string(hardware) + "}";
  return out;
}

struct ModeResult {
  double requests_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t chaos_injected = 0;
  std::uint64_t shed_overloaded = 0;
  /// Frames that found no spare receive buffer on their connection, per
  /// estimate request (warm-up included).
  double frame_buffer_allocs_per_request = 0.0;
  bool all_ok = false;
  bool drained = false;
};

/// Boots a fresh server with `chaos`, fires `per_thread` requests from
/// each of `threads` client threads, and reports throughput + latency.
ModeResult run_mode(serve::ModelRegistry& registry, const std::string& socket,
                    const server::ChaosOptions& chaos, int threads,
                    int per_thread, const std::string& csv) {
  server::ServerOptions options;
  options.socket_path = socket;
  options.workers = 4;
  options.chaos = chaos;
  options.chaos.stall_ms = 1;  // perturb latency, don't dominate it
  server::EstimationServer server(registry, options);
  server.start();

  // Untimed warm-up: shard spin-up, artifact mmap, the first parse of the
  // shared workload, and allocator/page-cache heat on both sides. Both
  // modes pay this identically, so the clean-vs-chaos comparison starts
  // from the same steady state instead of charging the cold start to
  // whichever mode ran first.
  {
    server::ClientOptions copts;
    copts.socket_path = socket;
    copts.backoff.max_attempts = 6;
    copts.backoff.base_ms = 1;
    copts.backoff.seed = 7;
    server::Client client(copts);
    server::EstimateRequest request;
    request.workload_csvs = {csv};
    for (int i = 0; i < 2 * threads; ++i) {
      try {
        (void)client.estimate(request);
      } catch (const std::exception&) {
        // Chaos can shed a warm-up request past the retry budget; the
        // timed loop below is the one that must not fail.
      }
    }
  }

  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(threads));
  std::vector<int> failures(static_cast<std::size_t>(threads), 0);
  const auto t0 = Clock::now();
  std::vector<std::thread> fleet;
  for (int t = 0; t < threads; ++t) {
    fleet.emplace_back([&, t] {
      server::ClientOptions copts;
      copts.socket_path = socket;
      copts.backoff.max_attempts = 6;  // sheds are expected under chaos
      copts.backoff.base_ms = 1;
      copts.backoff.seed = 77 + static_cast<std::uint64_t>(t);
      server::Client client(copts);
      server::EstimateRequest request;
      request.workload_csvs = {csv};
      auto& lane = latencies[static_cast<std::size_t>(t)];
      lane.reserve(static_cast<std::size_t>(per_thread));
      for (int i = 0; i < per_thread; ++i) {
        const auto start = Clock::now();
        try {
          const server::EstimateReply reply = client.estimate(request);
          if (reply.results.size() != 1 ||
              reply.results[0].status != server::ErrorCode::kOk) {
            ++failures[static_cast<std::size_t>(t)];
          }
        } catch (const std::exception&) {
          ++failures[static_cast<std::size_t>(t)];
        }
        lane.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - start)
                .count());
      }
    });
  }
  for (auto& thread : fleet) thread.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();

  ModeResult result;
  std::vector<double> all;
  for (const auto& lane : latencies) {
    all.insert(all.end(), lane.begin(), lane.end());
  }
  std::sort(all.begin(), all.end());
  result.requests_per_s = static_cast<double>(all.size()) / elapsed;
  result.p50_ms = all[all.size() / 2];
  result.p99_ms = all[all.size() * 99 / 100];
  result.all_ok = true;
  for (int f : failures) result.all_ok &= f == 0;
  const server::StatsReply stats = server.stats_snapshot();
  std::uint64_t frame_buffer_allocs = 0;
  std::uint64_t estimate_requests = 0;
  for (const auto& [k, v] : stats.counters) {
    if (k == "chaos_injected") result.chaos_injected = v;
    if (k == "shed_overloaded") result.shed_overloaded = v;
    if (k == "frame_buffer_allocs") frame_buffer_allocs = v;
    if (k == "estimate_requests") estimate_requests = v;
  }
  if (estimate_requests > 0) {
    result.frame_buffer_allocs_per_request =
        static_cast<double>(frame_buffer_allocs) /
        static_cast<double>(estimate_requests);
  }
  server.begin_shutdown();
  result.drained = server.wait_until_drained();
  return result;
}

struct ParseBoundResult {
  int requests = 0;
  std::size_t csv_bytes = 0;  // one request's workload, text encoding
  std::size_t bin_bytes = 0;  // the same workload, spire-profile-bin
  double text_requests_per_s = 0.0;
  double binary_requests_per_s = 0.0;
  double speedup = 0.0;
  bool all_ok = false;
  bool bit_identical = false;
  bool drained = false;
};

/// The wire-format regime: one connection, every workload distinct (so
/// neither the memo-cache nor the profile cache can answer), text parse
/// the dominant per-request cost. Sequential CSV requests measure the
/// v1 path a naive caller pays; the same workloads re-sent as pipelined
/// spire-profile-bin frames measure the v2 path — no parse, evaluation
/// straight out of the frame buffer, framing overlapped with evaluation.
ParseBoundResult run_parse_bound(serve::ModelRegistry& registry,
                                 const std::string& socket, int requests,
                                 int per_metric) {
  ParseBoundResult result;
  result.requests = requests;

  server::ServerOptions options;
  options.socket_path = socket;
  options.workers = 4;
  options.cache_entries = 0;  // every request evaluates: parse is the variable
  options.limits.max_frame_bytes = 64u << 20;
  server::EstimationServer server(registry, options);
  server.start();

  // Distinct workloads, both encodings prepared up front so encoding cost
  // never lands inside either timed window.
  std::vector<std::string> csvs;
  std::vector<std::string> bins;
  csvs.reserve(static_cast<std::size_t>(requests));
  bins.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    const sampling::Dataset d =
        workload_dataset(3000 + static_cast<std::uint64_t>(i), per_metric);
    std::ostringstream out;
    d.save_csv(out);
    csvs.push_back(out.str());
    bins.push_back(serve::profile_bin::compile(sampling::DatasetView(d)));
  }
  result.csv_bytes = csvs[0].size();
  result.bin_bytes = bins[0].size();

  server::ClientOptions copts;
  copts.socket_path = socket;
  copts.backoff.max_attempts = 2;
  copts.backoff.base_ms = 1;
  copts.limits.max_frame_bytes = 64u << 20;
  server::Client client(copts);
  bool ok = true;

  // Warm-up (untimed): shard spin-up + artifact mmap, shared by both
  // passes below.
  try {
    server::EstimateRequest warm;
    warm.workload_csvs = {workload_csv(2999, per_metric)};
    (void)client.estimate(warm);
  } catch (const std::exception&) {
    ok = false;
  }

  // Text pass: sequential requests on the one connection, each parsed
  // server-side before evaluation. Replies are the bit-identity baseline.
  std::vector<double> expected(static_cast<std::size_t>(requests), 0.0);
  const auto text_start = Clock::now();
  for (int i = 0; i < requests; ++i) {
    server::EstimateRequest request;
    request.workload_csvs = {csvs[static_cast<std::size_t>(i)]};
    try {
      const server::EstimateReply reply = client.estimate(request);
      if (reply.results.size() == 1 &&
          reply.results[0].status == server::ErrorCode::kOk) {
        expected[static_cast<std::size_t>(i)] = reply.results[0].throughput;
      } else {
        ok = false;
      }
    } catch (const std::exception&) {
      ok = false;
    }
  }
  const double text_elapsed =
      std::chrono::duration<double>(Clock::now() - text_start).count();

  // Binary pass: the same workloads as pipelined kEstimateBinRequest
  // frames, replies matched by seq.
  std::vector<server::Client::PipelineRequest> frames;
  frames.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    server::EstimateBinRequest request;
    request.profiles = {std::string_view(bins[static_cast<std::size_t>(i)])};
    frames.push_back({server::FrameType::kEstimateBinRequest,
                      server::encode_estimate_bin_request(request,
                                                          copts.limits)});
  }
  std::vector<server::Client::PipelineResult> replies;
  const auto bin_start = Clock::now();
  client.pipeline(frames, &replies, /*window=*/16);
  const double bin_elapsed =
      std::chrono::duration<double>(Clock::now() - bin_start).count();

  bool bit_identical = true;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const server::Client::PipelineResult& res = replies[i];
    if (!res.ok || res.header.type != server::FrameType::kEstimateBinReply) {
      ok = false;
      continue;
    }
    try {
      const server::EstimateReply reply =
          server::decode_estimate_reply(res.payload, copts.limits);
      if (reply.results.size() != 1 ||
          reply.results[0].status != server::ErrorCode::kOk) {
        ok = false;
      } else if (reply.results[0].throughput != expected[i]) {
        bit_identical = false;
      }
    } catch (const std::exception&) {
      ok = false;
    }
  }

  result.text_requests_per_s =
      text_elapsed > 0.0 ? static_cast<double>(requests) / text_elapsed : 0.0;
  result.binary_requests_per_s =
      bin_elapsed > 0.0 ? static_cast<double>(requests) / bin_elapsed : 0.0;
  result.speedup = result.text_requests_per_s > 0.0
                       ? result.binary_requests_per_s / result.text_requests_per_s
                       : 0.0;
  result.all_ok = ok && replies.size() == static_cast<std::size_t>(requests);
  result.bit_identical = bit_identical;
  server.begin_shutdown();
  result.drained = server.wait_until_drained();
  return result;
}

struct FleetResult {
  int models = 0;
  int unique_models = 0;
  double publish_s = 0.0;
  double cold_p50_ms = 0.0;
  double cold_p99_ms = 0.0;
  double warm_p50_ms = 0.0;
  double warm_p99_ms = 0.0;
  double stream_p50_ms = 0.0;
  double stream_p99_ms = 0.0;
  double warm_estimates_per_s = 0.0;
  std::uint64_t warm_requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t shards_active = 0;
  bool all_ok = false;
  bool bit_identical = false;
  bool drained = false;
};

double percentile(std::vector<double> values, int pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[std::min(values.size() - 1, values.size() * pct / 100)];
}

/// The fleet scenario: 120 distinct published models served through
/// per-model shards, cold-touched once each, then hammered with a
/// mixed-model stream that the estimate memo-cache answers.
FleetResult run_fleet(const std::string& socket, int threads,
                      int per_thread) {
  FleetResult result;
  result.models = 120;

  const std::string root = bench::cache_dir() + "/server_fleet_registry";
  std::filesystem::remove_all(root);
  // Mapping-cache capacity sized to the fleet (the CLI's --registry-cache):
  // 100+ concurrently served models must not thrash the registry LRU.
  serve::ModelRegistry registry(root,
                                static_cast<std::size_t>(result.models) + 8);
  std::vector<std::string> ids;
  ids.reserve(static_cast<std::size_t>(result.models));
  const auto publish_start = Clock::now();
  for (int i = 0; i < result.models; ++i) {
    ids.push_back(
        registry.publish(trained_ensemble(1000 + static_cast<std::uint64_t>(i))));
  }
  result.publish_s =
      std::chrono::duration<double>(Clock::now() - publish_start).count();
  {
    std::vector<std::string> unique = ids;
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    result.unique_models = static_cast<int>(unique.size());
  }

  server::ServerOptions options;
  options.socket_path = socket;
  options.workers = 4;
  options.cache_entries = 1024;  // >= one entry per (model, workload) pair
  server::EstimationServer server(registry, options);
  server.start();

  // Big enough that evaluation dominates the socket round trip: the
  // cold/warm split then measures the work the memo-cache elides, not the
  // syscall floor both paths share. One DISTINCT workload per model: with
  // a single shared workload the parsed-profile cache (correctly) parses
  // it once and serves slices to the other 119 models, which hollowed out
  // the cold pass and collapsed the recorded cache_hit_speedup below its
  // 2x floor — the cold pass must actually pay parse + evaluation.
  std::vector<std::string> csvs;
  csvs.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    csvs.push_back(workload_csv(2000 + static_cast<std::uint64_t>(i), 600));
  }
  bool ok = true;

  // Cold pass: the first touch of each model spins up its shard, maps the
  // artifact, evaluates, and seeds the memo-cache.
  std::vector<double> cold;
  cold.reserve(ids.size());
  std::vector<double> expected(ids.size(), 0.0);
  {
    server::ClientOptions copts;
    copts.socket_path = socket;
    copts.backoff.max_attempts = 2;
    copts.backoff.base_ms = 1;
    server::Client client(copts);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      server::EstimateRequest request;
      request.model_id = ids[i];
      request.workload_csvs = {csvs[i]};
      const auto start = Clock::now();
      try {
        const server::EstimateReply reply = client.estimate(request);
        if (reply.results.size() == 1 &&
            reply.results[0].status == server::ErrorCode::kOk) {
          expected[i] = reply.results[0].throughput;
        } else {
          ok = false;
        }
      } catch (const std::exception&) {
        ok = false;
      }
      cold.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count());
    }
  }

  // Warm pass: the SAME single-client sequential loop as the cold pass —
  // the only changed variable is that every (model, workload) pair is now
  // memo-cached, so the cold/warm delta is exactly the work the cache
  // elides (shard spin-up + mmap + evaluation). The speedup ratio must
  // come from here and not from the contended stream below: under more
  // client threads than cores, stream latencies are dominated by
  // client-side queueing that both cache paths share, which once drove
  // the recorded cache_hit_speedup to 0.786x on a 1-vCPU host — an
  // artifact of the measurement, not the cache.
  std::vector<double> warm_seq;
  warm_seq.reserve(ids.size());
  {
    server::ClientOptions copts;
    copts.socket_path = socket;
    copts.backoff.max_attempts = 2;
    copts.backoff.base_ms = 1;
    server::Client client(copts);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      server::EstimateRequest request;
      request.model_id = ids[i];
      request.workload_csvs = {csvs[i]};
      const auto start = Clock::now();
      try {
        const server::EstimateReply reply = client.estimate(request);
        if (reply.results.size() != 1 ||
            reply.results[0].status != server::ErrorCode::kOk) {
          ok = false;
        } else if (reply.results[0].throughput != expected[i]) {
          ok = false;
        }
      } catch (const std::exception&) {
        ok = false;
      }
      warm_seq.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count());
    }
  }

  // Mixed-model stream: every shard hammered at once from `threads`
  // clients. This measures sustained estimates/s and proves every
  // memo-cache reply bit-identical to the cold evaluation; its latencies
  // are recorded separately (stream_*) and never feed the speedup ratio.
  std::vector<std::vector<double>> warm_lanes(
      static_cast<std::size_t>(threads));
  std::vector<int> failures(static_cast<std::size_t>(threads), 0);
  std::atomic<bool> mismatch{false};
  const auto warm_start = Clock::now();
  std::vector<std::thread> fleet;
  for (int t = 0; t < threads; ++t) {
    fleet.emplace_back([&, t] {
      util::Rng rng(555 + static_cast<std::uint64_t>(t));
      server::ClientOptions copts;
      copts.socket_path = socket;
      copts.backoff.max_attempts = 2;
      copts.backoff.base_ms = 1;
      server::Client client(copts);
      auto& lane = warm_lanes[static_cast<std::size_t>(t)];
      lane.reserve(static_cast<std::size_t>(per_thread));
      for (int i = 0; i < per_thread; ++i) {
        const std::size_t pick = rng.below(ids.size());
        server::EstimateRequest request;
        request.model_id = ids[pick];
        request.workload_csvs = {csvs[pick]};
        const auto start = Clock::now();
        try {
          const server::EstimateReply reply = client.estimate(request);
          if (reply.results.size() != 1 ||
              reply.results[0].status != server::ErrorCode::kOk) {
            ++failures[static_cast<std::size_t>(t)];
          } else if (reply.results[0].throughput != expected[pick]) {
            mismatch.store(true);
          }
        } catch (const std::exception&) {
          ++failures[static_cast<std::size_t>(t)];
        }
        lane.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - start)
                .count());
      }
    });
  }
  for (auto& thread : fleet) thread.join();
  const double warm_elapsed =
      std::chrono::duration<double>(Clock::now() - warm_start).count();

  std::vector<double> warm;
  for (const auto& lane : warm_lanes) {
    warm.insert(warm.end(), lane.begin(), lane.end());
  }
  for (int f : failures) ok &= f == 0;
  result.all_ok = ok;
  result.bit_identical = !mismatch.load();
  result.warm_requests = warm.size();
  result.warm_estimates_per_s =
      warm_elapsed > 0.0 ? static_cast<double>(warm.size()) / warm_elapsed : 0.0;
  result.cold_p50_ms = percentile(cold, 50);
  result.cold_p99_ms = percentile(cold, 99);
  result.warm_p50_ms = percentile(warm_seq, 50);
  result.warm_p99_ms = percentile(warm_seq, 99);
  result.stream_p50_ms = percentile(warm, 50);
  result.stream_p99_ms = percentile(warm, 99);
  const server::StatsReply stats = server.stats_snapshot();
  for (const auto& [k, v] : stats.counters) {
    if (k == "cache_hits") result.cache_hits = v;
    if (k == "cache_misses") result.cache_misses = v;
    if (k == "shards_active") result.shards_active = v;
  }
  server.begin_shutdown();
  result.drained = server.wait_until_drained();
  return result;
}

/// Rewrites BENCH_serving.json (perf_serving's output) with this run's
/// "fleet_serving" section appended as the last key; a section from a
/// previous run is dropped first so the merge is idempotent.
void merge_fleet_into_serving_json(const std::string& fleet_json) {
  const char* path = "BENCH_serving.json";
  std::string text;
  {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  if (const auto old = text.find(",\n  \"fleet_serving\":");
      old != std::string::npos) {
    text = text.substr(0, old) + "\n}\n";
  }
  const auto close = text.rfind('}');
  if (close == std::string::npos) {
    text = "{\n  \"bench\": \"serving\"\n}\n";
  }
  std::string out = text.substr(0, text.rfind('}'));
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  out += ",\n  \"fleet_serving\": " + fleet_json + "\n}\n";
  std::ofstream rewrite(path, std::ios::trunc);
  rewrite << out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  const int threads = 4;
  const int per_thread = smoke ? 40 : 250;

  std::printf("=== Estimation server: framed socket path, clean vs chaos ===\n\n");
  const std::string registry_root = bench::cache_dir() + "/server_registry";
  std::filesystem::remove_all(registry_root);
  serve::ModelRegistry registry(registry_root);
  const std::string model_id = registry.publish(trained_ensemble(17));
  const std::string csv = workload_csv(11, 200);
  const std::string socket =
      "/tmp/spire_bench_server_" +
      std::to_string(static_cast<long long>(::getpid())) + ".sock";
  std::printf(
      "model: %s, workload: %zu bytes/request, client threads: %d, "
      "requests: %d, hardware threads: %u%s\n\n",
      model_id.c_str(), csv.size(), threads, threads * per_thread, hardware,
      smoke ? " [smoke]" : "");

  server::ChaosOptions clean;
  server::ChaosOptions faulted;
  faulted.seed = 4242;
  faulted.stall_before_read = 0.05;
  faulted.swap_mid_request = 0.05;
  faulted.force_overload = 0.05;

  const ModeResult base =
      run_mode(registry, socket, clean, threads, per_thread, csv);
  std::printf(
      "clean:   %8.0f req/s, p50 %7.3f ms, p99 %7.3f ms (all ok: %s, "
      "drained: %s)\n",
      base.requests_per_s, base.p50_ms, base.p99_ms,
      base.all_ok ? "yes" : "NO", base.drained ? "yes" : "NO");
  std::printf("clean:   %.4f receive-buffer allocations per request\n",
              base.frame_buffer_allocs_per_request);
  const ModeResult chaos =
      run_mode(registry, socket, faulted, threads, per_thread, csv);
  std::printf(
      "5%% chaos: %7.0f req/s, p50 %7.3f ms, p99 %7.3f ms (all ok: %s, "
      "drained: %s, injected: %llu, shed: %llu)\n",
      chaos.requests_per_s, chaos.p50_ms, chaos.p99_ms,
      chaos.all_ok ? "yes" : "NO", chaos.drained ? "yes" : "NO",
      static_cast<unsigned long long>(chaos.chaos_injected),
      static_cast<unsigned long long>(chaos.shed_overloaded));

  const double degradation =
      base.p99_ms > 0.0 ? chaos.p99_ms / base.p99_ms : 0.0;
  std::printf("\np99 degradation under 5%% faults: %.2fx\n", degradation);
  const bool check_degradation = !smoke;
  if (!check_degradation) {
    std::printf("p99 degradation assertion skipped: smoke mode\n");
  }

  std::printf(
      "\n=== Parse-bound regime: text-sequential vs binary-pipelined ===\n\n");
  const int pb_requests = smoke ? 12 : 32;
  const int pb_per_metric = smoke ? 600 : 2500;
  const ParseBoundResult parse_bound =
      run_parse_bound(registry, socket, pb_requests, pb_per_metric);
  std::printf(
      "workload: %zu bytes CSV -> %zu bytes profile-bin, %d distinct "
      "workloads, one connection\n"
      "text sequential:   %8.0f req/s\n"
      "binary pipelined:  %8.0f req/s\n"
      "speedup: %.2fx (all ok: %s, bit-identical to text: %s, drained: %s)\n",
      parse_bound.csv_bytes, parse_bound.bin_bytes, parse_bound.requests,
      parse_bound.text_requests_per_s, parse_bound.binary_requests_per_s,
      parse_bound.speedup, parse_bound.all_ok ? "yes" : "NO",
      parse_bound.bit_identical ? "yes" : "NO",
      parse_bound.drained ? "yes" : "NO");
  const bool check_pipeline = !smoke;
  if (!check_pipeline) {
    std::printf("binary-pipelined speedup assertion skipped: smoke mode\n");
  }

  std::ofstream json("BENCH_server.json");
  json << "{\n  \"bench\": \"server\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"hardware_threads\": " << hardware << ",\n"
       << "  \"client_threads\": " << threads << ",\n"
       << "  \"requests_per_mode\": " << threads * per_thread << ",\n"
       << "  \"fault_rate\": 0.05,\n"
       << "  \"clean\": {\"requests_per_s\": " << base.requests_per_s
       << ", \"p50_ms\": " << base.p50_ms << ", \"p99_ms\": " << base.p99_ms
       << ", \"frame_buffer_allocs_per_request\": "
       << base.frame_buffer_allocs_per_request << "},\n"
       << "  \"chaos\": {\"requests_per_s\": " << chaos.requests_per_s
       << ", \"p50_ms\": " << chaos.p50_ms << ", \"p99_ms\": " << chaos.p99_ms
       << ", \"chaos_injected\": " << chaos.chaos_injected
       << ", \"shed_overloaded\": " << chaos.shed_overloaded << "},\n"
       << "  \"p99_degradation\": " << degradation << ",\n"
       << "  \"parse_bound\": {\"requests\": " << parse_bound.requests
       << ", \"csv_bytes_per_request\": " << parse_bound.csv_bytes
       << ", \"bin_bytes_per_request\": " << parse_bound.bin_bytes
       << ", \"text_sequential_rps\": " << parse_bound.text_requests_per_s
       << ", \"binary_pipelined_rps\": " << parse_bound.binary_requests_per_s
       << ", \"speedup\": " << parse_bound.speedup
       << ", \"bit_identical\": "
       << (parse_bound.bit_identical ? "true" : "false")
       << ", \"all_requests_ok\": " << (parse_bound.all_ok ? "true" : "false")
       << ", \"drained_cleanly\": " << (parse_bound.drained ? "true" : "false")
       << "},\n"
       << "  \"pipeline_assertion\": "
       << assertion_json(check_pipeline, "smoke mode", hardware) << ",\n"
       << "  \"all_requests_ok\": "
       << (base.all_ok && chaos.all_ok ? "true" : "false") << ",\n"
       << "  \"drained_cleanly\": "
       << (base.drained && chaos.drained ? "true" : "false") << ",\n"
       << "  \"degradation_assertion\": "
       << assertion_json(check_degradation, "smoke mode", hardware) << "\n}\n";
  std::printf("-> BENCH_server.json\n");

  std::printf("\n=== Fleet: 120 models, per-model shards, memo-cache ===\n\n");
  const int fleet_per_thread = smoke ? 60 : 400;
  const FleetResult fleet =
      run_fleet(socket, threads, fleet_per_thread);
  std::printf(
      "published %d models (%d unique) in %.2f s\n"
      "cold (shard spin-up + mmap + evaluate): p50 %7.3f ms, p99 %7.3f ms\n"
      "warm (memo-cache hit, sequential):      p50 %7.3f ms, p99 %7.3f ms\n"
      "mixed-model stream (contended):         p50 %7.3f ms, p99 %7.3f ms\n"
      "mixed-model stream: %8.0f estimates/s over %llu requests "
      "(%llu shards, cache %llu hits / %llu misses)\n"
      "all ok: %s, warm bit-identical to cold: %s, drained: %s\n",
      fleet.models, fleet.unique_models, fleet.publish_s, fleet.cold_p50_ms,
      fleet.cold_p99_ms, fleet.warm_p50_ms, fleet.warm_p99_ms,
      fleet.stream_p50_ms, fleet.stream_p99_ms,
      fleet.warm_estimates_per_s,
      static_cast<unsigned long long>(fleet.warm_requests),
      static_cast<unsigned long long>(fleet.shards_active),
      static_cast<unsigned long long>(fleet.cache_hits),
      static_cast<unsigned long long>(fleet.cache_misses),
      fleet.all_ok ? "yes" : "NO", fleet.bit_identical ? "yes" : "NO",
      fleet.drained ? "yes" : "NO");
  const double cache_speedup =
      fleet.warm_p50_ms > 0.0 ? fleet.cold_p50_ms / fleet.warm_p50_ms : 0.0;
  std::printf("cache-hit speedup (cold p50 / warm p50): %.2fx\n", cache_speedup);
  // Both sides of the ratio are single-client sequential measurements, so
  // the assertion is meaningful on any core count; only smoke mode (tiny
  // fleet, latencies near the syscall floor) skips it.
  const bool check_cache_speedup = !smoke;
  const std::string cache_skip_reason = "smoke mode";
  if (!check_cache_speedup) {
    std::printf("cache-hit speedup assertion skipped: %s\n",
                cache_skip_reason.c_str());
  }

  {
    std::ostringstream fleet_json;
    fleet_json << "{\n"
               << "    \"models\": " << fleet.models << ",\n"
               << "    \"unique_models\": " << fleet.unique_models << ",\n"
               << "    \"publish_seconds\": " << fleet.publish_s << ",\n"
               << "    \"client_threads\": " << threads << ",\n"
               << "    \"mixed_stream_requests\": " << fleet.warm_requests
               << ",\n"
               << "    \"estimates_per_s\": " << fleet.warm_estimates_per_s
               << ",\n"
               << "    \"cold_shard_ms\": {\"p50\": " << fleet.cold_p50_ms
               << ", \"p99\": " << fleet.cold_p99_ms << "},\n"
               << "    \"warm_shard_ms\": {\"p50\": " << fleet.warm_p50_ms
               << ", \"p99\": " << fleet.warm_p99_ms << "},\n"
               << "    \"mixed_stream_ms\": {\"p50\": " << fleet.stream_p50_ms
               << ", \"p99\": " << fleet.stream_p99_ms << "},\n"
               << "    \"cache_hit_speedup\": " << cache_speedup << ",\n"
               << "    \"shards_active\": " << fleet.shards_active << ",\n"
               << "    \"cache_hits\": " << fleet.cache_hits << ",\n"
               << "    \"cache_misses\": " << fleet.cache_misses << ",\n"
               << "    \"warm_bit_identical\": "
               << (fleet.bit_identical ? "true" : "false") << ",\n"
               << "    \"all_requests_ok\": "
               << (fleet.all_ok ? "true" : "false") << ",\n"
               << "    \"drained_cleanly\": "
               << (fleet.drained ? "true" : "false") << ",\n"
               << "    \"cache_hit_assertion\": "
               << assertion_json(check_cache_speedup, cache_skip_reason,
                                 hardware)
               << "\n  }";
    merge_fleet_into_serving_json(fleet_json.str());
  }
  std::printf("-> BENCH_serving.json (fleet_serving section)\n");

  bool failed = false;
  if (!fleet.all_ok) {
    std::fprintf(stderr, "FAIL: a fleet request failed\n");
    failed = true;
  }
  if (!fleet.bit_identical) {
    std::fprintf(stderr,
                 "FAIL: a memo-cache hit diverged from the cold evaluation\n");
    failed = true;
  }
  if (!fleet.drained) {
    std::fprintf(stderr, "FAIL: fleet server did not drain\n");
    failed = true;
  }
  if (fleet.unique_models < 100) {
    std::fprintf(stderr, "FAIL: fleet needs >= 100 distinct models, got %d\n",
                 fleet.unique_models);
    failed = true;
  }
  if (check_cache_speedup && cache_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: cache-hit p50 speedup %.2fx over cold, need >= 2x\n",
                 cache_speedup);
    failed = true;
  }
  if (!base.all_ok || !chaos.all_ok) {
    std::fprintf(stderr, "FAIL: a request failed through the retrying client\n");
    failed = true;
  }
  if (!base.drained || !chaos.drained) {
    std::fprintf(stderr, "FAIL: a server did not drain within its timeout\n");
    failed = true;
  }
  if (check_degradation && degradation >= 3.0) {
    std::fprintf(stderr,
                 "FAIL: p99 degraded %.2fx under 5%% faults, need < 3x\n",
                 degradation);
    failed = true;
  }
  if (!parse_bound.all_ok) {
    std::fprintf(stderr, "FAIL: a parse-bound request failed\n");
    failed = true;
  }
  if (!parse_bound.bit_identical) {
    std::fprintf(stderr,
                 "FAIL: a binary reply diverged from the text reply for the "
                 "same workload\n");
    failed = true;
  }
  if (!parse_bound.drained) {
    std::fprintf(stderr, "FAIL: parse-bound server did not drain\n");
    failed = true;
  }
  if (check_pipeline && parse_bound.speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: binary pipelined moved only %.2fx the text-sequential "
                 "requests/s, need >= 3x\n",
                 parse_bound.speedup);
    failed = true;
  }
  return failed ? 1 : 0;
}
