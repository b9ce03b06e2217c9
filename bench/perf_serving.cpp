// Serving-path performance: tree-walk Ensemble vs serve::MappedModel,
// compiled in memory or mapped from a v4 image file.
//
// Measures estimates/sec over the full workload suite for three modes —
// the train-time object graph evaluated serially (the pre-serve baseline),
// the compiled model evaluated serially, and the compiled batch path across
// a pool — plus the model load times (text v1 parse vs the fully verified
// v4 -> Ensemble rebuild vs compile vs v4 mmap), the image sizes, the
// cold/warm first-estimate latency of the mmap path and the process's peak
// RSS, and emits everything as BENCH_serving.json.
//
// Hard contracts verified on every run:
//  * bit-identity: the compiled AND mapped single/batch paths (at 1, 4,
//    and 8 threads) must reproduce Ensemble::estimate exactly — same
//    throughput bits, ranking order, sample counts, and skip reasons;
//  * the binary-load + compile floor: standing up a serving instance from
//    the v4 image — the fully verified Ensemble rebuild plus an in-memory
//    compile — must take <= 0.1 s (full mode; --smoke skips timing floors
//    but never the identity checks);
//  * cold-start elimination: opening the v4 image (median mmap +
//    structure-tier validation) must be >= 5x faster than loading it into
//    an Ensemble (full verification + rebuild; full mode only —
//    micro-timings in a throttled smoke container measure the machine).
//    Measured on a fleet-scale model —
//    every roofline piece split into collinear sub-pieces, preserving the
//    function — because at trained-model sizes (tens of KB) both paths
//    cost microseconds and the ratio measures syscall noise; the mmap
//    open is O(metrics) by design, so the gap widens with model size and
//    the fleet-scale number is the honest one for the serving story.
//
// The >= 3x compiled-batch-vs-tree-walk assertion only fires on machines
// with at least 4 hardware threads, following the perf_parallel_scaling
// precedent: the ratio is always recorded, but a 1-core container cannot
// parallelize anything and would only test the machine, not the code.
// Next to the ratio the bench prints a host-load calibration (four
// spinning threads' work rate over one thread's), so a failing ratio on a
// contended host can be told apart from a regression. The direct path's
// single-thread rate against the scalar reference, at fleet scale and on
// a lookup-bound ~5.9M-piece model, is recorded but not asserted.
// Every skippable assertion lands in the JSON as a structured object
// ({status, reason, hardware_threads}), never a silent string.
//
//   perf_serving [--smoke] [--threads N]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "bench_util.h"
#include "geom/piecewise_linear.h"
#include "sampling/dataset.h"
#include "sampling/dataset_view.h"
#include "serve/mapped_model.h"
#include "serve/model_v3.h"
#include "serve/profile_bin.h"
#include "spire/model_io.h"
#include "util/thread_pool.h"

using namespace spire;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `reps` timings of `fn` — micro-loads jitter too much for a
/// single-shot number to carry an assertion.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(seconds_since(t0));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// One skippable assertion, rendered as a structured JSON object so a
/// skipped check is visible downstream (tools/check.sh greps for it)
/// instead of hiding inside a bare string.
std::string assertion_json(bool checked, const std::string& reason,
                           unsigned hardware) {
  std::string out = "{\"status\": \"";
  out += checked ? "checked" : "skipped";
  out += "\", \"reason\": \"";
  out += checked ? "" : reason;
  out += "\", \"hardware_threads\": " + std::to_string(hardware) + "}";
  return out;
}

/// Splits every finite piece of `f` into `k` collinear sub-pieces. The
/// function is unchanged (shared endpoints are exact; interior knots lie on
/// the original line), only the representation grows — which is exactly
/// what the fleet-scale load benchmark needs. Pieces too narrow for `k`
/// strictly increasing knots are kept whole.
geom::PiecewiseLinear subdivide(const geom::PiecewiseLinear& f, int k) {
  std::vector<geom::LinearPiece> out;
  out.reserve(f.pieces().size() * static_cast<std::size_t>(k));
  for (const geom::LinearPiece& p : f.pieces()) {
    std::vector<double> xs{p.x0};
    if (!std::isinf(p.x1)) {
      for (int j = 1; j < k; ++j) {
        xs.push_back(p.x0 + (p.x1 - p.x0) * j / k);
      }
    }
    xs.push_back(p.x1);
    bool strictly_increasing = true;
    for (std::size_t i = 1; i < xs.size(); ++i) {
      strictly_increasing &= xs[i - 1] < xs[i];
    }
    if (!strictly_increasing) {
      out.push_back(p);
      continue;
    }
    for (std::size_t i = 1; i < xs.size(); ++i) {
      const double y_lo = i == 1 ? p.y0 : p.at(xs[i - 1]);
      const double y_hi = i + 1 == xs.size() ? p.y1 : p.at(xs[i]);
      out.push_back({xs[i - 1], y_lo, xs[i], y_hi});
    }
  }
  return geom::PiecewiseLinear(std::move(out));
}

/// A serving-fleet-scale copy of `ensemble`: same metrics, same rooflines
/// as functions, `k`x the pieces.
model::Ensemble fleet_scale(const model::Ensemble& ensemble, int k) {
  std::map<counters::Event, model::MetricRoofline> rooflines;
  for (const auto& [metric, roofline] : ensemble.rooflines()) {
    std::optional<geom::PiecewiseLinear> left;
    if (roofline.left()) left = subdivide(*roofline.left(), k);
    rooflines.emplace(
        metric,
        model::MetricRoofline(
            std::move(left), subdivide(roofline.right(), k),
            {roofline.apex_intensity(), roofline.apex_throughput()},
            roofline.training_sample_count()));
  }
  return model::Ensemble(std::move(rooflines));
}

/// Host-load calibration: the summed work rate (spin units per second) of
/// `threads` threads, each spinning on register arithmetic for `interval_s`
/// from its own start. On an idle host with that many free cores the
/// four-thread rate is about four times the one-thread rate; neighbours
/// competing for the cores pull the ratio down.
double spin_rate(unsigned threads, double interval_s) {
  std::vector<double> rates(threads, 0.0);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&rates, t, interval_s] {
      const auto t0 = Clock::now();
      std::uint64_t x = 0x9e3779b97f4a7c15ULL + t;
      std::uint64_t units = 0;
      while (seconds_since(t0) < interval_s) {
        for (int i = 0; i < 4096; ++i) {  // xorshift64: one unit of work
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        ++units;
      }
      volatile std::uint64_t sink = x;
      (void)sink;
      rates[t] = static_cast<double>(units) / seconds_since(t0);
    });
  }
  for (std::thread& worker : pool) worker.join();
  double total = 0.0;
  for (const double rate : rates) total += rate;
  return total;
}

bool identical(const std::vector<model::Estimate>& a,
               const std::vector<model::Estimate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].throughput != b[i].throughput) return false;
    if (a[i].ranking.size() != b[i].ranking.size()) return false;
    for (std::size_t j = 0; j < a[i].ranking.size(); ++j) {
      if (a[i].ranking[j].metric != b[i].ranking[j].metric) return false;
      if (a[i].ranking[j].p_bar != b[i].ranking[j].p_bar) return false;
      if (a[i].ranking[j].samples != b[i].ranking[j].samples) return false;
    }
    if (a[i].skipped.size() != b[i].skipped.size()) return false;
    for (std::size_t j = 0; j < a[i].skipped.size(); ++j) {
      if (a[i].skipped[j].metric != b[i].skipped[j].metric) return false;
      if (a[i].skipped[j].reason != b[i].skipped[j].reason) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const util::ExecOptions exec = bench::exec_options_from_args(argc, argv);
  const unsigned hardware = std::thread::hardware_concurrency();

  std::printf("=== Serving path: tree-walk vs compiled, single vs batch ===\n\n");
  const auto suite = bench::collect_suite();
  const auto ensemble = bench::trained_ensemble(suite);
  std::vector<sampling::DatasetView> views;
  views.reserve(suite.size());
  for (const auto& cw : suite) views.emplace_back(cw.samples);
  const auto compiled = serve::MappedModel::compile(ensemble);
  std::printf(
      "workloads: %zu, model: %zu rooflines / %zu pieces, hardware "
      "threads: %u, batch threads: %zu%s\n\n",
      views.size(), compiled.metric_count(), compiled.piece_count(), hardware,
      exec.threads, smoke ? " [smoke]" : "");

  // --- bit-identity: compiled and mapped, single and batch at 1/4/8 -------
  const std::string image_path = bench::cache_dir() + "/serving_model.bin";
  serve::save_model_v3_file(ensemble, image_path);
  const auto mapped = serve::MappedModel::map_file(image_path);
  std::vector<model::Estimate> reference;
  reference.reserve(views.size());
  for (const auto& view : views) reference.push_back(ensemble.estimate(view));
  std::vector<model::Estimate> single;
  std::vector<model::Estimate> mapped_single;
  single.reserve(views.size());
  mapped_single.reserve(views.size());
  for (const auto& view : views) single.push_back(compiled.estimate(view));
  for (const auto& view : views) {
    mapped_single.push_back(mapped.estimate(view));
  }
  bool bit_identical =
      identical(reference, single) && identical(reference, mapped_single);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
    bit_identical &= identical(
        reference, compiled.estimate_batch(views, util::ExecOptions{threads}));
    bit_identical &= identical(
        reference, mapped.estimate_batch(views, util::ExecOptions{threads}));
  }
  std::printf("bit-identical to Ensemble::estimate (compiled + mmap): %s\n",
              bit_identical ? "yes" : "NO");

  // --- model load times ----------------------------------------------------
  const std::string text_path = bench::cache_dir() + "/serving_model.model";
  model::save_model_file(ensemble, text_path);
  auto start = Clock::now();
  const auto from_text = model::load_model_file(text_path);
  const double text_load_s = seconds_since(start);
  start = Clock::now();
  const auto from_bin = model::load_model_any_file(image_path);
  const double bin_load_s = seconds_since(start);
  start = Clock::now();
  const auto recompiled = serve::MappedModel::compile(from_bin);
  const double compile_s = seconds_since(start);
  const bool lossless = from_text.rooflines() == from_bin.rooflines() &&
                        recompiled.piece_count() == compiled.piece_count();
  std::printf(
      "model load: text %.4f s, binary v4 -> Ensemble %.4f s, compile "
      "%.4f s (lossless: %s); v4 image %zu bytes\n",
      text_load_s, bin_load_s, compile_s, lossless ? "yes" : "NO",
      mapped.bytes().size());

  // --- profile ingest: the per-request cost the wire format removes --------
  // Three ways a profile reaches the evaluator: the legacy istream CSV
  // parse (string copy + stream overhead, the pre-v2 request path), the
  // in-place string_view parse the text path uses now, and the
  // spire-profile-bin bounded parse whose result is a zero-copy view into
  // the caller's bytes — what the server evaluates straight out of a v2
  // frame. Medians over repeated full-suite passes; rates are profiles/s.
  std::vector<std::string> profile_csvs;
  std::vector<std::string> profile_bins;
  std::size_t profile_csv_bytes = 0;
  std::size_t profile_bin_bytes = 0;
  for (const auto& cw : suite) {
    std::ostringstream out;
    cw.samples.save_csv(out);
    profile_csvs.push_back(out.str());
    profile_bins.push_back(
        serve::profile_bin::compile(sampling::DatasetView(cw.samples)));
    profile_csv_bytes += profile_csvs.back().size();
    profile_bin_bytes += profile_bins.back().size();
  }
  const int ingest_reps = smoke ? 3 : 15;
  const double istream_pass_s = median_seconds(ingest_reps, [&] {
    for (const auto& csv : profile_csvs) {
      std::istringstream in(csv);
      (void)sampling::Dataset::load_csv(in);
    }
  });
  const double inplace_pass_s = median_seconds(ingest_reps, [&] {
    for (const auto& csv : profile_csvs) {
      (void)sampling::Dataset::load_csv(std::string_view(csv));
    }
  });
  const double bin_view_pass_s = median_seconds(ingest_reps, [&] {
    for (const auto& bin : profile_bins) {
      (void)serve::profile_bin::parse(bin);
    }
  });
  const double suite_n = static_cast<double>(profile_csvs.size());
  const double istream_pps =
      istream_pass_s > 0.0 ? suite_n / istream_pass_s : 0.0;
  const double inplace_pps =
      inplace_pass_s > 0.0 ? suite_n / inplace_pass_s : 0.0;
  const double bin_view_pps =
      bin_view_pass_s > 0.0 ? suite_n / bin_view_pass_s : 0.0;
  std::printf(
      "profile ingest (%zu profiles, %zu CSV bytes -> %zu bin bytes): "
      "istream %.0f/s, in-place %.0f/s (%.2fx), profile-bin view %.0f/s "
      "(%.1fx over istream)\n",
      profile_csvs.size(), profile_csv_bytes, profile_bin_bytes, istream_pps,
      inplace_pps, istream_pps > 0.0 ? inplace_pps / istream_pps : 0.0,
      bin_view_pps, istream_pps > 0.0 ? bin_view_pps / istream_pps : 0.0);

  // --- cold-start: mmap open vs Ensemble load, at fleet scale --------------
  // Medians over repeated loads of the same image file, so the ratio
  // compares like with like: the Ensemble load verifies every byte and
  // rebuilds the rooflines, the open maps and checks the structure tier
  // only. "Cold" includes mapping +
  // structure-tier validation + the first estimate through the fresh
  // mapping (first touch faults the pages in); "warm" reuses a standing
  // mapping. Fleet artifacts are function-identical to the trained model
  // with 50x the pieces (see subdivide above), so the timing reflects the
  // size regime where cold start actually matters.
  const auto fleet = fleet_scale(ensemble, 50);
  const auto fleet_compiled = serve::MappedModel::compile(fleet);
  const std::string fleet_path = bench::cache_dir() + "/serving_fleet.bin";
  serve::save_model_v3_file(fleet, fleet_path);
  const auto fleet_mapped = serve::MappedModel::map_file(fleet_path);
  const bool fleet_identical =
      identical({fleet_compiled.estimate(views.front())},
                {fleet_mapped.estimate(views.front())});
  const int load_reps = smoke ? 3 : 15;
  const double bin_load_median_s = median_seconds(
      load_reps, [&] { (void)model::load_model_any_file(fleet_path); });
  const double mmap_load_s = median_seconds(
      load_reps, [&] { (void)serve::MappedModel::map_file(fleet_path); });
  const double cold_estimate_s = median_seconds(load_reps, [&] {
    const auto fresh = serve::MappedModel::map_file(fleet_path);
    (void)fresh.estimate(views.front());
  });
  const double warm_estimate_s = median_seconds(
      load_reps, [&] { (void)fleet_mapped.estimate(views.front()); });
  const double mmap_ratio =
      mmap_load_s > 0.0 ? bin_load_median_s / mmap_load_s : 0.0;
  std::printf(
      "cold start at fleet scale (%zu pieces, v4 image %zu bytes): v4 -> "
      "Ensemble %.6f s, v4 mmap open %.6f s (%.1fx), first estimate cold "
      "%.6f s / warm %.6f s\n",
      fleet_compiled.piece_count(), fleet_mapped.bytes().size(),
      bin_load_median_s, mmap_load_s, mmap_ratio, cold_estimate_s,
      warm_estimate_s);

  // --- throughput ----------------------------------------------------------
  const int reps = smoke ? 2 : 20;
  const auto run_mode = [&](auto&& pass) {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) pass();
    const double elapsed = seconds_since(t0);
    return static_cast<double>(reps) * static_cast<double>(views.size()) /
           elapsed;
  };
  const double tree_walk_eps = run_mode([&] {
    for (const auto& view : views) (void)ensemble.estimate(view);
  });
  const double compiled_eps = run_mode([&] {
    for (const auto& view : views) (void)compiled.estimate(view);
  });
  const double batch_eps =
      run_mode([&] { (void)compiled.estimate_batch(views, exec); });
  const double ratio = batch_eps / tree_walk_eps;
  // Taken right after the throughput passes, so it sees the same host load.
  const double spin_interval_s = smoke ? 0.05 : 0.25;
  const double spin_one = spin_rate(1, spin_interval_s);
  const double spin_four = spin_rate(4, spin_interval_s);
  const double spin_ratio = spin_one > 0.0 ? spin_four / spin_one : 0.0;
  std::printf(
      "\nestimates/sec: tree-walk serial %.0f, compiled serial %.0f, "
      "compiled batch %.0f\ncompiled batch vs tree-walk serial: %.2fx "
      "(host calibration: 4 spinning threads %.2fx one thread's work rate "
      "over %.2f s)\n",
      tree_walk_eps, compiled_eps, batch_eps, ratio, spin_ratio,
      spin_interval_s);

  // --- single-thread direct path vs scalar reference ---------------------
  // Both passes run in this thread, so the figures are thread-count
  // independent. The direct path (estimate_many, the same call a shard
  // pump issues) differs from the scalar reference (estimate_tables) only
  // in its segment search: branchless instead of std::lower_bound. Recorded
  // at fleet scale and in the SEGMENT-LOOKUP-BOUND regime below, never
  // asserted.
  const auto fleet_tables = fleet_compiled.tables();
  const std::vector<model::Merge> direct_merges(views.size(),
                                                model::Merge::kTimeWeighted);
  std::vector<model::Estimate> scalar_out;
  std::vector<serve::EvalOutcome> direct_out;
  const double fleet_scalar_eps = run_mode([&] {
    scalar_out.clear();
    for (const auto& view : views) {
      scalar_out.push_back(serve::estimate_tables(fleet_tables, view,
                                                  model::Merge::kTimeWeighted));
    }
  });
  const double fleet_direct_eps = run_mode([&] {
    direct_out = serve::estimate_many(fleet_tables, views, direct_merges);
  });
  bool direct_identical = direct_out.size() == scalar_out.size();
  for (std::size_t i = 0; direct_identical && i < direct_out.size(); ++i) {
    direct_identical = direct_out[i].ok() &&
                       identical({scalar_out[i]}, {*direct_out[i].estimate});
  }
  const double fleet_direct_ratio =
      fleet_scalar_eps > 0.0 ? fleet_direct_eps / fleet_scalar_eps : 0.0;
  std::printf(
      "single-thread at fleet scale (%zu pieces): scalar %.0f estimates/s, "
      "direct %.0f estimates/s (%.2fx, bit-identical: %s)\n",
      fleet_compiled.piece_count(), fleet_scalar_eps, fleet_direct_eps,
      fleet_direct_ratio, direct_identical ? "yes" : "NO");

  // The lookup-bound model (~5.9M pieces, per-metric tables far beyond the
  // cache, so both searches pay ~log2(pieces) dependent uncached probes per
  // sample) is compiled in memory, never written to disk: its image
  // would be tens of MB of disk traffic that measures the filesystem, not
  // the evaluator.
  const auto lookup_compiled =
      serve::MappedModel::compile(fleet_scale(ensemble, smoke ? 200 : 9600));
  const auto lookup_tables = lookup_compiled.tables();
  const int lookup_attempts = smoke ? 1 : 3;
  const int lookup_reps = smoke ? 2 : 8;
  double scalar_eps = 0.0;
  double direct_eps = 0.0;
  double direct_ratio = 0.0;
  for (int attempt = 0; attempt < lookup_attempts; ++attempt) {
    // Each pass runs its reps as a contiguous block, the steady state a
    // serving process lives in. The per-pass rate is taken from the
    // FASTEST rep (min time): on a shared host transient neighbor noise
    // only ever slows a rep down, so the min is the stable estimate of
    // each pass's unthrottled speed. Best of the attempts, because the two
    // passes run back to back inside one attempt.
    const auto best_rep_seconds = [&](auto&& pass) {
      double best = std::numeric_limits<double>::infinity();
      for (int r = 0; r < lookup_reps; ++r) {
        const auto t0 = Clock::now();
        pass();
        best = std::min(best, seconds_since(t0));
      }
      return best;
    };
    const double scalar_s = best_rep_seconds([&] {
      scalar_out.clear();
      for (const auto& view : views) {
        scalar_out.push_back(serve::estimate_tables(
            lookup_tables, view, model::Merge::kTimeWeighted));
      }
    });
    const double direct_s = best_rep_seconds([&] {
      direct_out = serve::estimate_many(lookup_tables, views, direct_merges);
    });
    for (std::size_t i = 0; direct_identical && i < direct_out.size(); ++i) {
      direct_identical = direct_out[i].ok() &&
                         identical({scalar_out[i]}, {*direct_out[i].estimate});
    }
    const double per_rep = static_cast<double>(views.size());
    const double s = scalar_s > 0.0 ? per_rep / scalar_s : 0.0;
    const double d = direct_s > 0.0 ? per_rep / direct_s : 0.0;
    if (s > 0.0 && d / s > direct_ratio) {
      scalar_eps = s;
      direct_eps = d;
      direct_ratio = d / s;
    }
  }
  std::printf(
      "single-thread lookup-bound (%zu pieces): scalar %.0f estimates/s, "
      "direct %.0f estimates/s (best of %d: %.2fx, bit-identical: %s)\n",
      lookup_compiled.piece_count(), scalar_eps, direct_eps, lookup_attempts,
      direct_ratio, direct_identical ? "yes" : "NO");

  const bool check_speedup = hardware >= 4;
  if (!check_speedup) {
    std::printf("speedup assertion skipped: only %u hardware thread(s)\n",
                hardware);
  }
  const bool check_mmap = !smoke;
  if (!check_mmap) {
    std::printf("mmap load assertion skipped: smoke mode\n");
  }

  // Peak RSS over the whole run; the lookup-bound model's in-memory image
  // (one copy of its tables) dominates it.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
  std::printf("peak RSS %.1f MiB (lookup-bound image %zu bytes)\n",
              peak_rss_mib, lookup_compiled.bytes().size());

  std::ofstream json("BENCH_serving.json");
  json << "{\n  \"bench\": \"serving\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"hardware_threads\": " << hardware << ",\n"
       << "  \"batch_threads\": " << exec.threads << ",\n"
       << "  \"workloads\": " << views.size() << ",\n"
       << "  \"model_pieces\": " << compiled.piece_count() << ",\n"
       << "  \"peak_rss_mib\": " << peak_rss_mib << ",\n"
       << "  \"image_bytes\": {\"trained\": " << mapped.bytes().size()
       << ", \"fleet\": " << fleet_mapped.bytes().size()
       << ", \"lookup\": " << lookup_compiled.bytes().size() << "},\n"
       << "  \"estimates_per_s\": {\"tree_walk_serial\": " << tree_walk_eps
       << ", \"compiled_serial\": " << compiled_eps
       << ", \"compiled_batch\": " << batch_eps << "},\n"
       << "  \"compiled_batch_vs_tree_walk\": " << ratio << ",\n"
       << "  \"host_calibration\": {\"interval_s\": " << spin_interval_s
       << ", \"one_thread_units_per_s\": " << spin_one
       << ", \"four_thread_units_per_s\": " << spin_four
       << ", \"four_vs_one\": " << spin_ratio << "},\n"
       << "  \"single_thread_fleet_estimates_per_s\": {\"scalar\": "
       << fleet_scalar_eps << ", \"batch_kernel\": " << fleet_direct_eps
       << "},\n"
       << "  \"batch_kernel_vs_scalar_fleet\": " << fleet_direct_ratio << ",\n"
       << "  \"lookup_pieces\": " << lookup_compiled.piece_count() << ",\n"
       << "  \"single_thread_lookup_estimates_per_s\": {\"scalar\": "
       << scalar_eps << ", \"batch_kernel\": " << direct_eps << "},\n"
       << "  \"batch_kernel_vs_scalar\": " << direct_ratio << ",\n"
       << "  \"load_seconds\": {\"text\": " << text_load_s
       << ", \"binary\": " << bin_load_s << ", \"compile\": " << compile_s
       << "},\n"
       << "  \"profile_ingest\": {\"profiles\": " << profile_csvs.size()
       << ", \"csv_bytes\": " << profile_csv_bytes
       << ", \"bin_bytes\": " << profile_bin_bytes
       << ", \"csv_istream_per_s\": " << istream_pps
       << ", \"csv_inplace_per_s\": " << inplace_pps
       << ", \"profile_bin_view_per_s\": " << bin_view_pps << "},\n"
       << "  \"fleet_scale\": {\"pieces\": " << fleet_compiled.piece_count()
       << ", \"image_bytes\": " << fleet_mapped.bytes().size()
       << ", \"ensemble_load_median_s\": " << bin_load_median_s
       << ", \"mmap_open_median_s\": " << mmap_load_s << "},\n"
       << "  \"first_estimate_seconds\": {\"cold_mmap\": " << cold_estimate_s
       << ", \"warm_mmap\": " << warm_estimate_s << "},\n"
       << "  \"mmap_vs_binary_load\": " << mmap_ratio << ",\n"
       << "  \"bit_identical\": "
       << (bit_identical && fleet_identical ? "true" : "false") << ",\n"
       << "  \"lossless_conversion\": " << (lossless ? "true" : "false")
       << ",\n"
       << "  \"speedup_assertion\": "
       << assertion_json(check_speedup,
                         "only " + std::to_string(hardware) +
                             " hardware thread(s), need >= 4",
                         hardware)
       << ",\n"
       << "  \"mmap_load_assertion\": "
       << assertion_json(check_mmap, "smoke mode", hardware) << "\n}\n";
  std::printf("-> BENCH_serving.json\n");

  bool failed = false;
  if (!bit_identical) {
    std::fprintf(stderr,
                 "FAIL: compiled estimates diverged from Ensemble::estimate\n");
    failed = true;
  }
  if (!fleet_identical) {
    std::fprintf(stderr,
                 "FAIL: fleet-scale mapped estimates diverged from compiled\n");
    failed = true;
  }
  if (!lossless) {
    std::fprintf(stderr, "FAIL: text <-> binary conversion is not lossless\n");
    failed = true;
  }
  if (check_speedup && ratio < 3.0) {
    std::fprintf(stderr,
                 "FAIL: compiled batch %.2fx tree-walk serial, need >= 3x\n",
                 ratio);
    failed = true;
  }
  if (!direct_identical) {
    std::fprintf(stderr,
                 "FAIL: direct path diverged from the scalar reference\n");
    failed = true;
  }
  if (!smoke && bin_load_s + compile_s > 0.1) {
    std::fprintf(stderr,
                 "FAIL: binary load + compile %.3f s above the 0.1 s floor\n",
                 bin_load_s + compile_s);
    failed = true;
  }
  if (check_mmap && mmap_ratio < 5.0) {
    std::fprintf(stderr,
                 "FAIL: v4 mmap open only %.2fx faster than the v4 -> "
                 "Ensemble load, need >= 5x\n",
                 mmap_ratio);
    failed = true;
  }
  return failed ? 1 : 0;
}
