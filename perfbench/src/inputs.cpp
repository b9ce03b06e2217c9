#include "inputs.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "sampling/collector.h"
#include "sim/core.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads/profile_stream.h"
#include "workloads/suite.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using spire::sampling::Dataset;
using spire::util::Rng;
using spire::util::derive_seed;

/// The core seed the repository's reproduction collects the suite with.
constexpr std::uint64_t kCoreSeed = 7;

// Sub-streams of a seed, so that profiles and models never share random
// draws.
constexpr std::uint64_t kProfileStream = 2;
constexpr std::uint64_t kModelStream = 3;

/// Windows in a member: the longest metric series (every metric has one
/// sample per window).
std::uint32_t window_count(const Dataset& member) {
  std::size_t windows = 0;
  for (const auto metric : member.metrics()) {
    windows = std::max(windows, member.samples(metric).size());
  }
  return static_cast<std::uint32_t>(windows);
}

/// Windows a draw may leave out of a member of `total` windows: an eighth,
/// and at least two (so a short member still has a few dozen draws).
std::uint32_t max_dropped(std::uint32_t total) {
  return std::min(total - 1, std::max(2u, total / 8));
}

/// Distinct draws from a member of `total` windows: the whole member, or a
/// shorter circular run from any window.
std::size_t distinct_draws(std::uint32_t total) {
  return 1 + std::size_t{total} * max_dropped(total);
}

/// A circular run of consecutive windows of `member`. The whole member is
/// drawn only from its first window: a rotation of it holds the same
/// samples.
WindowDraw draw_windows(const Suite& suite, std::uint32_t member, Rng& rng) {
  const std::uint32_t total = window_count(suite.members.at(member));
  if (total == 0) throw std::runtime_error("suite member without samples");
  WindowDraw draw;
  draw.member = member;
  draw.windows =
      total - static_cast<std::uint32_t>(rng.range(0, max_dropped(total)));
  if (draw.windows < total) {
    draw.start = static_cast<std::uint32_t>(rng.below(total));
  }
  return draw;
}

Dataset collect_member(const spire::workloads::SuiteEntry& entry,
                       std::uint64_t cycles) {
  spire::workloads::ProfileStream stream(entry.profile);
  spire::sim::Core core(spire::sim::CoreConfig{}, stream, kCoreSeed);
  spire::sampling::SampleCollector collector{spire::sampling::CollectorConfig{}};
  Dataset data;
  collector.collect(core, data, cycles);
  return data;
}

std::string member_file(std::size_t index) {
  return "member-" + std::to_string(index) + ".csv";
}

}  // namespace

Suite collect_suite(std::size_t threads, std::uint64_t cycles,
                    std::size_t count) {
  const auto& entries = spire::workloads::hpc_suite();
  if (count == 0 || count > entries.size()) count = entries.size();
  Suite suite;
  suite.members = spire::util::parallel_for_index(
      spire::util::ExecOptions{threads}, count,
      [&](std::size_t i) { return collect_member(entries[i], cycles); });
  for (std::size_t i = 0; i < count; ++i) {
    suite.training.push_back(!entries[i].testing);
  }
  return suite;
}

Suite load_or_collect_suite(const std::string& dir, const std::string& tag,
                            std::size_t threads) {
  const auto& entries = spire::workloads::hpc_suite();
  const fs::path saved = fs::path(dir) / tag;
  bool complete = true;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    complete = complete && fs::exists(saved / member_file(i));
  }
  if (!complete) {
    // Another build's suite is stale: keep only this one.
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(saved);
    const Suite collected = collect_suite(threads);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const fs::path part = saved / (member_file(i) + ".part");
      {
        std::ofstream out(part);
        out << to_csv(collected.members[i]);
        if (!out) throw std::runtime_error("cannot write " + part.string());
      }
      fs::rename(part, saved / member_file(i));
    }
  }
  // Read back what was saved, so that a run that collected the suite and
  // one that loaded it draw from the same bytes.
  Suite suite;
  suite.members = spire::util::parallel_for_index(
      spire::util::ExecOptions{threads}, entries.size(), [&](std::size_t i) {
        std::ifstream in(saved / member_file(i));
        if (!in) throw std::runtime_error("cannot read the saved suite");
        return Dataset::load_csv(in);
      });
  for (const auto& entry : entries) suite.training.push_back(!entry.testing);
  return suite;
}

std::vector<WindowDraw> draw_profiles(const Suite& suite, std::uint64_t seed,
                                      std::size_t count) {
  const std::size_t members = suite.members.size();
  const std::size_t per_member = (count + members - 1) / members;
  for (const Dataset& member : suite.members) {
    if (distinct_draws(window_count(member)) < per_member) {
      throw std::invalid_argument(
          "a suite member has fewer than " + std::to_string(per_member) +
          " distinct window draws");
    }
  }
  // Profile i comes from member i mod 27, so the pool, and any prefix of
  // it, holds the suite's mix of short and long profiles whatever the seed.
  Rng rng(derive_seed(seed, kProfileStream));
  std::set<WindowDraw> seen;
  std::vector<WindowDraw> draws;
  while (draws.size() < count) {
    const auto member = static_cast<std::uint32_t>(draws.size() % members);
    WindowDraw draw;
    do {
      draw = draw_windows(suite, member, rng);
    } while (!seen.insert(draw).second);
    draws.push_back(draw);
  }
  return draws;
}

Dataset make_profile(const Suite& suite, const WindowDraw& draw) {
  const Dataset& member = suite.members.at(draw.member);
  const std::uint32_t total = window_count(member);
  Dataset out;
  for (const auto metric : member.metrics()) {
    const auto& series = member.samples(metric);
    for (std::uint32_t k = 0; k < draw.windows; ++k) {
      const std::uint32_t window = (draw.start + k) % total;
      if (window < series.size()) out.add(metric, series[window]);
    }
  }
  return out;
}

spire::model::Ensemble make_model(const Suite& suite, std::uint64_t seed,
                                  std::size_t index) {
  Rng rng(derive_seed(derive_seed(seed, kModelStream), index));
  Dataset training;
  for (std::uint32_t m = 0; m < suite.members.size(); ++m) {
    if (suite.training[m]) {
      training.merge(make_profile(suite, draw_windows(suite, m, rng)));
    }
  }
  return spire::model::Ensemble::train(training);
}

std::string to_csv(const Dataset& data) {
  std::ostringstream out;
  data.save_csv(out);
  return out.str();
}

}  // namespace perfbench
