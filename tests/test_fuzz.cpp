// Randomized robustness suite: run the full stack (random workload profile
// -> simulator -> multiplexed collection -> SPIRE training -> estimation)
// under many seeds and assert the structural invariants that must hold for
// ANY input. This is the failure-injection net that catches scheduling
// deadlocks, counter regressions, and fit-validity bugs that targeted
// tests miss.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <sstream>
#include <string>

#include "quality/fault_injector.h"
#include "quality/quality.h"
#include "sampling/collector.h"
#include "serve/model_v3.h"
#include "sim/core.h"
#include "spire/model_bin.h"
#include "spire/model_io.h"
#include "spire/ensemble.h"
#include "spire/metric_roofline.h"
#include "util/rng.h"
#include "workloads/profile_stream.h"

namespace spire {
namespace {

using counters::Event;

workloads::WorkloadProfile random_profile(util::Rng& rng) {
  workloads::WorkloadProfile p;
  p.name = "fuzz";
  p.seed = rng.next();
  p.instruction_count = 30'000 + rng.below(70'000);

  // Draw a random instruction mix; normalize if it oversubscribes.
  p.load_fraction = rng.uniform(0.0, 0.4);
  p.store_fraction = rng.uniform(0.0, 0.25);
  p.branch_fraction = rng.uniform(0.0, 0.3);
  p.fp_fraction = rng.uniform(0.0, 0.35);
  p.vec256_fraction = rng.uniform(0.0, 0.3);
  p.vec512_fraction = rng.uniform(0.0, 0.3);
  p.mul_fraction = rng.uniform(0.0, 0.1);
  p.div_fraction = rng.uniform(0.0, 0.05);
  p.microcoded_fraction = rng.uniform(0.0, 0.03);
  p.locked_fraction = rng.uniform(0.0, 0.03);
  p.nop_fraction = rng.uniform(0.0, 0.1);
  const double total = p.load_fraction + p.store_fraction + p.branch_fraction +
                       p.fp_fraction + p.vec256_fraction + p.vec512_fraction +
                       p.mul_fraction + p.div_fraction + p.microcoded_fraction +
                       p.locked_fraction + p.nop_fraction;
  if (total > 1.0) {
    const double scale = 0.95 / total;
    p.load_fraction *= scale;
    p.store_fraction *= scale;
    p.branch_fraction *= scale;
    p.fp_fraction *= scale;
    p.vec256_fraction *= scale;
    p.vec512_fraction *= scale;
    p.mul_fraction *= scale;
    p.div_fraction *= scale;
    p.microcoded_fraction *= scale;
    p.locked_fraction *= scale;
    p.nop_fraction *= scale;
  }

  p.branch_entropy = rng.uniform(0.0, 1.0);
  p.code_footprint_bytes = 256u << rng.below(12);  // 256 B .. 512 KiB
  p.data_working_set_bytes = 4096ull << rng.below(16);  // 4 KiB .. 128 MiB
  p.mem_pattern = static_cast<workloads::MemPattern>(rng.below(4));
  p.mem_stride_bytes = 8u << rng.below(9);  // 8 B .. 2 KiB
  p.dep_fraction = rng.uniform(0.0, 1.0);
  p.dep_chain = 1 + static_cast<int>(rng.below(16));
  return p;
}

class FuzzPipeline : public ::testing::TestWithParam<int> {};

TEST_P(FuzzPipeline, SimulateCollectTrainEstimate) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const auto profile = random_profile(rng);
  workloads::ProfileStream stream(profile);
  sim::Core core(sim::CoreConfig{}, stream, rng.next());

  sampling::CollectorConfig cc;
  cc.window_cycles = 10'000 + rng.below(40'000);
  cc.slice_cycles = 500 + rng.below(2'000);
  cc.group_size = 1 + static_cast<int>(rng.below(8));
  sampling::SampleCollector collector(cc);
  sampling::Dataset data;
  const auto stats = collector.collect(core, data, 3'000'000);

  // --- Simulator invariants --------------------------------------------
  const auto& c = core.counters();
  const auto cycles = c.get(Event::kCpuClkUnhaltedThread);
  ASSERT_GT(cycles, 0u);
  const auto inst = c.get(Event::kInstRetiredAny);
  EXPECT_GE(c.get(Event::kUopsIssuedAny), c.get(Event::kUopsRetiredRetireSlots));
  EXPECT_GE(c.get(Event::kUopsRetiredRetireSlots), inst);
  EXPECT_LE(inst, 4 * cycles + 4);
  EXPECT_LE(c.get(Event::kCycleActivityStallsTotal), cycles);
  EXPECT_LE(c.get(Event::kCycleActivityStallsMemAny),
            c.get(Event::kCycleActivityCyclesMemAny));
  EXPECT_LE(c.get(Event::kCycleActivityStallsL1dMiss),
            c.get(Event::kCycleActivityStallsTotal));
  EXPECT_LE(c.get(Event::kBrMispRetiredAllBranches),
            c.get(Event::kBrInstRetiredAllBranches));
  std::uint64_t ports = 0;
  for (Event e : {Event::kUopsDispatchedPort0, Event::kUopsDispatchedPort1,
                  Event::kUopsDispatchedPort2, Event::kUopsDispatchedPort3,
                  Event::kUopsDispatchedPort4, Event::kUopsDispatchedPort5,
                  Event::kUopsDispatchedPort6, Event::kUopsDispatchedPort7}) {
    ports += c.get(e);
  }
  EXPECT_EQ(ports, c.get(Event::kUopsExecutedThread));
  // Retired load service levels decompose the retired load count.
  EXPECT_EQ(c.get(Event::kMemLoadRetiredL1Hit) +
                c.get(Event::kMemLoadRetiredFbHit) +
                c.get(Event::kMemLoadRetiredL2Hit) +
                c.get(Event::kMemLoadRetiredL3Hit) +
                c.get(Event::kMemLoadRetiredL3Miss),
            c.get(Event::kMemInstRetiredAllLoads));

  // --- Collection invariants --------------------------------------------
  if (stats.windows == 0) return;  // too short to produce a full window
  for (const auto metric : data.metrics()) {
    for (const auto& s : data.samples(metric)) {
      ASSERT_GT(s.t, 0.0);
      ASSERT_GE(s.w, 0.0);
      ASSERT_GE(s.m, 0.0);
      ASSERT_TRUE(std::isfinite(s.m));
    }
  }

  // --- Fit invariants: bounds cover their own training samples ----------
  // With few windows or aggressive multiplexing, no metric may reach the
  // trainer's min_samples; training is then rightly impossible.
  std::size_t max_per_metric = 0;
  for (const auto metric : data.metrics()) {
    max_per_metric = std::max(max_per_metric, data.samples(metric).size());
  }
  if (max_per_metric < 8 || data.size() < 100) return;
  model::Ensemble::TrainOptions options;
  options.polarity_constrained = GetParam() % 2 == 0;
  const auto ensemble = model::Ensemble::train(data, options);
  for (const auto& [metric, roofline] : ensemble.rooflines()) {
    for (const auto& s : data.samples(metric)) {
      ASSERT_GE(roofline.estimate(s.intensity()) + 1e-7, s.throughput())
          << counters::event_name(metric);
    }
  }
  const auto estimate = ensemble.estimate(data);
  EXPECT_GT(estimate.throughput, 0.0);
  EXPECT_TRUE(std::isfinite(estimate.throughput));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline, ::testing::Range(1, 21));

// ---------------------------------------------------------------------------
// File-format fuzzing: mutated model files and sample CSVs must either load
// (and then behave like any valid model/dataset) or throw std::exception —
// never crash, hang, or silently misparse.
// ---------------------------------------------------------------------------

model::Ensemble small_trained_ensemble(std::uint64_t seed) {
  util::Rng rng(seed);
  sampling::Dataset d;
  for (const Event metric : {Event::kIdqDsbUops, Event::kLsdUops,
                             Event::kBrMispRetiredAllBranches}) {
    for (int i = 0; i < 20; ++i) {
      const double p = rng.uniform(0.1, 4.0);
      const double intensity = std::pow(10.0, rng.uniform(-1.0, 3.0));
      d.add(metric, {1.0, p, p / intensity});
    }
  }
  return model::Ensemble::train(d);
}

sampling::Dataset synthetic_clean_dataset(std::uint64_t seed) {
  util::Rng rng(seed);
  sampling::Dataset d;
  const auto& catalog = counters::metric_events();
  for (int k = 0; k < 6; ++k) {
    const Event metric = catalog[static_cast<std::size_t>(k)];
    const double rate = 0.04 * (k + 1);
    for (int i = 0; i < 120; ++i) {
      const double t = 800.0 + 400.0 * rng.uniform();
      d.add(metric,
            {t, 2.0 * t * rng.uniform(0.5, 1.0), rate * t * rng.uniform(0.5, 1.5)});
    }
  }
  return d;
}

class FuzzModelFile : public ::testing::TestWithParam<int> {};

TEST_P(FuzzModelFile, MutatedModelLoadsOrThrows) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104'729 + 1);
  const auto ensemble = small_trained_ensemble(11);
  std::ostringstream out;
  model::save_model(ensemble, out);
  const std::string clean = out.str();

  // The unmutated text must round-trip to a serialization fixpoint.
  {
    std::istringstream in(clean);
    const auto loaded = model::load_model(in);
    std::ostringstream again;
    model::save_model(loaded, again);
    EXPECT_EQ(clean, again.str());
  }

  for (int round = 0; round < 25; ++round) {
    const std::string mutated =
        rng.chance(0.5)
            ? quality::flip_bits(clean, rng, 1 + rng.below(8))
            : quality::truncate_tail(clean, rng);
    std::istringstream in(mutated);
    try {
      const auto loaded = model::load_model(in);
      // If the mutation still parses, the result must be a well-formed
      // model: re-serializing and re-loading reaches a fixpoint.
      std::ostringstream first;
      model::save_model(loaded, first);
      std::istringstream in2(first.str());
      const auto reloaded = model::load_model(in2);
      std::ostringstream second;
      model::save_model(reloaded, second);
      EXPECT_EQ(first.str(), second.str());
    } catch (const std::exception& e) {
      // Rejection is the expected outcome; diagnostics must point at the
      // offending file ("model: ..." prefix, almost always with a line).
      EXPECT_EQ(std::string(e.what()).rfind("model:", 0), 0u) << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzModelFile, ::testing::Range(1, 13));

class FuzzModelBin : public ::testing::TestWithParam<int> {};

TEST_P(FuzzModelBin, MutatedBinaryModelLoadsOrThrows) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 130'363 + 5);
  const auto ensemble = small_trained_ensemble(11);
  const std::string clean = serve::model_v3_bytes(ensemble);
  const auto load = [](const std::string& bytes) {
    return model::bin::load_model_image(
        std::as_bytes(std::span(bytes.data(), bytes.size())));
  };

  // The unmutated bytes must round-trip to a serialization fixpoint.
  EXPECT_EQ(clean, serve::model_v3_bytes(load(clean)));

  for (int round = 0; round < 25; ++round) {
    const std::string mutated =
        rng.chance(0.5)
            ? quality::flip_bits(clean, rng, 1 + rng.below(8))
            : quality::truncate_tail(clean, rng);
    try {
      const auto loaded = load(mutated);
      // A mutation that still loads must be a well-formed model:
      // re-serializing reaches a fixpoint immediately — the writer emits
      // raw bit patterns, so no precision is lost to round-tripping.
      const std::string first = serve::model_v3_bytes(loaded);
      EXPECT_EQ(first, serve::model_v3_bytes(load(first)));
    } catch (const std::exception& e) {
      // Rejection must be the hardened reader's own diagnostic — with the
      // section and byte offset — never a crash, hang, or
      // over-allocation.
      EXPECT_EQ(std::string(e.what()).rfind("model-bin:", 0), 0u) << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzModelBin, ::testing::Range(1, 13));

TEST(FuzzModelFile, OversizedRegionCountRejectedBeforeAllocation) {
  const std::string text =
      "spire-model v1\n"
      "metric idq.dsb_uops trained_on=10 apex=1 2\n"
      "left 99999999999999 0 0\n"
      "right 1 1 1 inf 1\n";
  std::istringstream in(text);
  try {
    model::load_model(in);
    FAIL() << "expected rejection";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

class FuzzCsv : public ::testing::TestWithParam<int> {};

TEST_P(FuzzCsv, InjectedCorruptionRoundTripsAndMutationsNeverCrash) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  util::Rng rng(seed * 15'485'863 + 7);

  // A FaultInjector-corrupted dataset is still a *well-formed* CSV: it must
  // load back byte-equivalently, defects and all.
  auto data = synthetic_clean_dataset(seed);
  quality::FaultConfig config = quality::FaultConfig::uniform(0.12);
  config.dead_metric_rate = 0.15;
  quality::FaultInjector(seed, config).corrupt(data);
  std::stringstream csv;
  data.save_csv(csv);
  const std::string clean_text = csv.str();
  const auto reloaded = sampling::Dataset::load_csv(csv);
  EXPECT_EQ(reloaded.size(), data.size());
  const auto before = quality::DatasetValidator().validate(data);
  const auto after = quality::DatasetValidator().validate(reloaded);
  for (std::size_t k = 0; k < quality::kDefectKindCount; ++k) {
    const auto kind = static_cast<quality::DefectKind>(k);
    EXPECT_EQ(before.count(kind), after.count(kind))
        << quality::defect_name(kind);
  }

  // Text-level mutations: load either succeeds or throws, never crashes.
  for (int round = 0; round < 25; ++round) {
    const std::string mutated =
        rng.chance(0.5)
            ? quality::flip_bits(clean_text, rng, 1 + rng.below(6))
            : quality::truncate_tail(clean_text, rng);
    std::istringstream in(mutated);
    try {
      const auto loaded = sampling::Dataset::load_csv(in);
      EXPECT_LE(loaded.size(), data.size() + 1);
      // Whatever loaded can always be validated and repaired.
      const auto repaired = quality::sanitize(loaded, quality::Policy::kRepair);
      EXPECT_FALSE(
          quality::DatasetValidator().validate(repaired.data).has_errors());
    } catch (const std::exception& e) {
      EXPECT_EQ(std::string(e.what()).rfind("dataset:", 0), 0u) << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCsv, ::testing::Range(1, 13));

}  // namespace
}  // namespace spire
