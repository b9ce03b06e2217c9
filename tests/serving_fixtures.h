// Fixtures shared by the serving suites (test_serve, test_shard,
// test_server, test_model_v3, test_eval_batch): one trained model, one
// scratch-directory helper, and one bitwise comparison of estimates, so
// every suite evaluates against the same ensemble bits and judges
// identity the same way.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>

#include "counters/events.h"
#include "sampling/dataset.h"
#include "spire/ensemble.h"
#include "util/rng.h"

namespace spire::test {

/// An ensemble trained on 60 random samples for each of five metrics; about
/// one sample in ten has infinite intensity (no memory traffic).
inline model::Ensemble trained_ensemble(std::uint64_t seed) {
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

/// `name` under the test temp directory, removed if it already exists.
inline std::string fresh_dir(const std::string& name) {
  const std::string root = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(root);
  return root;
}

/// Bitwise equality: -0.0 differs from +0.0, and NaN equals the same NaN.
inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Same throughput and p̄ bits, ranking order, sample counts and skips.
inline void expect_identical(const model::Estimate& a,
                             const model::Estimate& b) {
  EXPECT_TRUE(same_bits(a.throughput, b.throughput))
      << a.throughput << " vs " << b.throughput;
  ASSERT_EQ(a.ranking.size(), b.ranking.size());
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].metric, b.ranking[i].metric);
    EXPECT_TRUE(same_bits(a.ranking[i].p_bar, b.ranking[i].p_bar))
        << "metric " << static_cast<int>(a.ranking[i].metric) << ": "
        << a.ranking[i].p_bar << " vs " << b.ranking[i].p_bar;
    EXPECT_EQ(a.ranking[i].samples, b.ranking[i].samples);
  }
  ASSERT_EQ(a.skipped.size(), b.skipped.size());
  for (std::size_t i = 0; i < a.skipped.size(); ++i) {
    EXPECT_EQ(a.skipped[i].metric, b.skipped[i].metric);
    EXPECT_EQ(a.skipped[i].reason, b.skipped[i].reason);
  }
}

}  // namespace spire::test
