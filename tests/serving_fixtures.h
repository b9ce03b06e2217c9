// Fixtures shared by the serving suites (test_serve, test_shard,
// test_server, test_model_v3): one trained model and one scratch-directory
// helper, so every suite evaluates against the same ensemble bits.
#pragma once

#include <gtest/gtest.h>

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

}  // namespace spire::test
