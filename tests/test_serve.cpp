// The serving path's one hard promise is bit-identity: everything here
// compares against Ensemble::estimate bit for bit, not with tolerances. A
// served model that is "almost" the tree-walk is a broken served model.
//
// serve::MappedModel is the only model type, and ServedModel below runs
// the identity contract over every way to obtain one: compiled in memory,
// mapped from a v4 file, or opened through the registry.
#include "serve/mapped_model.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.h"
#include "pipeline/engine.h"
#include "sampling/dataset.h"
#include "sampling/dataset_view.h"
#include "serve/model_v3.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "spire/ensemble.h"
#include "spire/model_bin.h"
#include "spire/model_io.h"
#include "util/rng.h"

namespace spire::serve {
namespace {

using counters::Event;
using model::Ensemble;
using model::Estimate;
using sampling::Dataset;
using sampling::DatasetView;

Ensemble trained_ensemble(std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset train;
  for (Event metric : {Event::kIdqDsbUops, Event::kLsdUops,
                       Event::kBrMispRetiredAllBranches,
                       Event::kLongestLatCacheMiss,
                       Event::kMemInstRetiredAllLoads}) {
    for (int i = 0; i < 60; ++i) {
      const double p = rng.uniform(0.1, 4.0);
      const double intensity = rng.chance(0.1)
                                   ? std::numeric_limits<double>::infinity()
                                   : std::pow(10.0, rng.uniform(-1.0, 3.0));
      train.add(metric, {1.0, p, std::isinf(intensity) ? 0.0 : p / intensity});
    }
  }
  return Ensemble::train(train);
}

/// A workload exercising every estimate code path: usable samples across
/// the intensity range, structurally unusable ones (skipped by Eq. 1),
/// metrics the model lacks, and one model metric with only junk samples.
Dataset mixed_workload(std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset d;
  for (Event metric : {Event::kIdqDsbUops, Event::kLsdUops,
                       Event::kBrMispRetiredAllBranches,
                       Event::kLongestLatCacheMiss}) {
    for (int i = 0; i < 40; ++i) {
      const double p = rng.uniform(0.05, 5.0);
      const double intensity = rng.chance(0.15)
                                   ? std::numeric_limits<double>::infinity()
                                   : std::pow(10.0, rng.uniform(-2.0, 4.0));
      d.add(metric, {rng.uniform(0.5, 2.0), p,
                     std::isinf(intensity) ? 0.0 : p / intensity});
    }
    d.add(metric, {0.0, 1.0, 1.0});    // t <= 0: skipped
    d.add(metric, {1.0, -1.0, 1.0});   // negative work: skipped
    d.add(metric, {std::numeric_limits<double>::quiet_NaN(), 1.0, 1.0});
  }
  // A metric the model has no roofline for: ignored entirely.
  for (int i = 0; i < 10; ++i) {
    d.add(Event::kUopsIssuedAny, {1.0, 1.0, 1.0});
  }
  // A model metric with only structurally unusable samples: lands in
  // Estimate::skipped with the "no structurally usable samples" reason.
  d.add(Event::kMemInstRetiredAllLoads, {-3.0, 1.0, 1.0});
  return d;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const Estimate& a, const Estimate& b) {
  EXPECT_TRUE(same_bits(a.throughput, b.throughput))
      << a.throughput << " vs " << b.throughput;
  ASSERT_EQ(a.ranking.size(), b.ranking.size());
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].metric, b.ranking[i].metric);
    EXPECT_TRUE(same_bits(a.ranking[i].p_bar, b.ranking[i].p_bar))
        << a.ranking[i].p_bar << " vs " << b.ranking[i].p_bar;
    EXPECT_EQ(a.ranking[i].samples, b.ranking[i].samples);
  }
  ASSERT_EQ(a.skipped.size(), b.skipped.size());
  for (std::size_t i = 0; i < a.skipped.size(); ++i) {
    EXPECT_EQ(a.skipped[i].metric, b.skipped[i].metric);
    EXPECT_EQ(a.skipped[i].reason, b.skipped[i].reason);
  }
}

std::string temp_path(const std::string& name) {
  // Parallel ctest runs each case as its own process, and the ServedModel
  // instances share file names — pid-suffix them so one process never
  // truncates a file another has mapped.
  return ::testing::TempDir() + "/" +
         std::to_string(static_cast<unsigned>(::getpid())) + "_" + name;
}

// --------------------------------------------------------------------------
// ServedModel: the identity contract, once per way to obtain a model
// --------------------------------------------------------------------------

enum class Source { kInMemory, kMappedFile, kRegistry };

// gtest prints the parameter after each instance's index; ctest names the
// instances by it (Source/ServedModel.<Test>/InMemory).
void PrintTo(Source source, std::ostream* os) {
  switch (source) {
    case Source::kInMemory: *os << "InMemory"; return;
    case Source::kMappedFile: *os << "MappedFile"; return;
    case Source::kRegistry: *os << "Registry"; return;
  }
}

std::shared_ptr<const MappedModel> obtain(Source source,
                                          const Ensemble& ensemble) {
  switch (source) {
    case Source::kInMemory:
      return std::make_shared<const MappedModel>(
          MappedModel::compile(ensemble));
    case Source::kMappedFile: {
      const std::string path = temp_path("served_model.bin");
      save_model_v3_file(ensemble, path);
      return std::make_shared<const MappedModel>(MappedModel::map_file(path));
    }
    case Source::kRegistry: {
      const std::string root = temp_path("served_model_registry");
      std::filesystem::remove_all(root);
      ModelRegistry registry(root);
      return registry.open(registry.publish(ensemble));
    }
  }
  return nullptr;
}

class ServedModel : public ::testing::TestWithParam<Source> {};

TEST_P(ServedModel, EstimateIsBitIdenticalToEnsemble) {
  const Ensemble ensemble = trained_ensemble(17);
  const auto served = obtain(GetParam(), ensemble);
  EXPECT_EQ(served->metric_count(), ensemble.metric_count());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Dataset workload = mixed_workload(seed);
    const DatasetView view(workload);
    for (const model::Merge merge :
         {model::Merge::kTimeWeighted, model::Merge::kUnweighted}) {
      expect_identical(ensemble.estimate(view, merge),
                       served->estimate(view, merge));
    }
  }
}

TEST_P(ServedModel, BatchIsBitIdenticalAtOneFourEightThreads) {
  const Ensemble ensemble = trained_ensemble(29);
  const auto served = obtain(GetParam(), ensemble);
  std::vector<Dataset> workloads;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    workloads.push_back(mixed_workload(seed));
  }
  const std::vector<DatasetView> views(workloads.begin(), workloads.end());
  std::vector<Estimate> reference;
  for (const DatasetView& view : views) {
    reference.push_back(ensemble.estimate(view));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
    const auto batch =
        served->estimate_batch(views, util::ExecOptions{threads});
    ASSERT_EQ(batch.size(), reference.size()) << threads << " threads";
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_identical(reference[i], batch[i]);
    }
  }
  // The coalesced single pass a shard pump issues serves the same bits.
  const std::vector<model::Merge> merges(views.size(),
                                         model::Merge::kTimeWeighted);
  const auto outcomes = served->estimate_many(views, merges);
  ASSERT_EQ(outcomes.size(), reference.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].error;
    expect_identical(reference[i], *outcomes[i].estimate);
  }
}

TEST_P(ServedModel, ThrowsTheEnsembleErrorOnNoSharedMetric) {
  const Ensemble ensemble = trained_ensemble(17);
  const auto served = obtain(GetParam(), ensemble);
  Dataset workload;
  workload.add(Event::kUopsIssuedAny, {1.0, 1.0, 1.0});
  const DatasetView view(workload);
  std::string ensemble_error;
  try {
    ensemble.estimate(view);
  } catch (const std::invalid_argument& e) {
    ensemble_error = e.what();
  }
  ASSERT_FALSE(ensemble_error.empty());
  try {
    served->estimate(view);
    FAIL() << "served estimate must throw like the ensemble";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(ensemble_error, e.what());
  }
  // The batch propagates the same exception (lowest index, like a serial
  // loop) at any thread count; the coalesced pass reports its text.
  const std::vector<DatasetView> views{view};
  EXPECT_THROW(served->estimate_batch(views, util::ExecOptions{4}),
               std::invalid_argument);
  const std::vector<model::Merge> merges{model::Merge::kTimeWeighted};
  const auto outcomes = served->estimate_many(views, merges);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok());
  EXPECT_EQ(outcomes[0].error, ensemble_error);
}

INSTANTIATE_TEST_SUITE_P(Source, ServedModel,
                         ::testing::Values(Source::kInMemory,
                                           Source::kMappedFile,
                                           Source::kRegistry));

// --------------------------------------------------------------------------
// MappedModel::compile: the in-memory image
// --------------------------------------------------------------------------

TEST(MappedModel, CompileFlattensEveryRoofline) {
  const Ensemble ensemble = trained_ensemble(17);
  const MappedModel compiled = MappedModel::compile(ensemble);
  EXPECT_EQ(compiled.metric_count(), ensemble.metric_count());
  std::size_t pieces = 0;
  for (const auto& [metric, roofline] : ensemble.rooflines()) {
    if (roofline.left().has_value()) pieces += roofline.left()->pieces().size();
    pieces += roofline.right().pieces().size();
  }
  EXPECT_EQ(compiled.piece_count(), pieces);
  // metrics() preserves the map's ascending order.
  auto it = ensemble.rooflines().begin();
  for (const Event metric : compiled.metrics()) {
    EXPECT_EQ(metric, (it++)->first);
  }
}

TEST(MappedModel, CheckedInModelsRoundTripAndServeIdentically) {
  const std::string dir = std::string(SPIRE_TESTDATA_DIR) + "/models";
  std::ifstream csv(dir + "/parboil.samples.csv");
  ASSERT_TRUE(csv.is_open());
  const Dataset workload = Dataset::load_csv(csv);
  const DatasetView view(workload);
  std::size_t models = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".model") continue;
    ++models;
    const Ensemble original = model::load_model_file(entry.path().string());
    // v1 -> v4 -> ensemble must be lossless...
    const std::string image = model_v3_bytes(original);
    const Ensemble reloaded = model::bin::load_model_image(
        std::as_bytes(std::span(image.data(), image.size())));
    EXPECT_EQ(original.rooflines(), reloaded.rooflines())
        << entry.path().string();
    // ...and the compiled form of the reloaded artifact must serve the
    // exact tree-walk estimates.
    const MappedModel compiled = MappedModel::compile(reloaded);
    try {
      const Estimate reference = original.estimate(view);
      expect_identical(reference, compiled.estimate(view));
    } catch (const std::invalid_argument&) {
      // Model shares no metric with the parboil samples: fine, covered by
      // ThrowsTheEnsembleErrorOnNoSharedMetric semantics.
      EXPECT_THROW(compiled.estimate(view), std::invalid_argument);
    }
  }
  EXPECT_GE(models, 3u);
}

// A model compiled from either format (text v1 or binary v4, told apart
// by load_model_any_file's sniff) serves the tree-walk's bits.
TEST(CompiledModel, FromFileSniffsBothFormats) {
  const Ensemble ensemble = trained_ensemble(41);
  const std::string text_path = temp_path("serve_model.model");
  const std::string bin_path = temp_path("serve_model.bin");
  model::save_model_file(ensemble, text_path);
  save_model_v3_file(ensemble, bin_path);
  const MappedModel from_text =
      MappedModel::compile(model::load_model_any_file(text_path));
  const MappedModel from_bin =
      MappedModel::compile(model::load_model_any_file(bin_path));
  const Dataset workload = mixed_workload(3);
  const DatasetView view(workload);
  const Estimate reference = ensemble.estimate(view);
  expect_identical(reference, from_text.estimate(view));
  expect_identical(reference, from_bin.estimate(view));
}

// --------------------------------------------------------------------------
// EstimationService: per-file error isolation
// --------------------------------------------------------------------------

TEST(EstimationService, IsolatesPerFileFailures) {
  const Ensemble ensemble = trained_ensemble(17);
  const EstimationService service(MappedModel::compile(ensemble));

  const std::string good_path = ::testing::TempDir() + "/serve_good.csv";
  {
    std::ofstream out(good_path);
    mixed_workload(5).save_csv(out);
  }
  const std::string junk_path = ::testing::TempDir() + "/serve_junk.csv";
  {
    std::ofstream out(junk_path);
    out << "this is not a sample csv\n";
  }
  const std::vector<std::string> paths = {
      good_path, "/nonexistent/serve_missing.csv", junk_path, good_path};

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    BatchOptions options;
    options.exec = util::ExecOptions{threads};
    const auto results = service.estimate_files(paths, options);
    ASSERT_EQ(results.size(), paths.size());
    // Input order is preserved regardless of scheduling.
    for (std::size_t i = 0; i < paths.size(); ++i) {
      EXPECT_EQ(results[i].source, paths[i]);
    }
    EXPECT_TRUE(results[0].ok());
    EXPECT_GT(results[0].samples, 0u);
    EXPECT_TRUE(results[0].error.empty());
    EXPECT_FALSE(results[1].ok());
    EXPECT_NE(results[1].error.find("cannot open"), std::string::npos);
    EXPECT_FALSE(results[2].ok());
    EXPECT_FALSE(results[2].error.empty());
    EXPECT_TRUE(results[3].ok());
    // The same file estimates to the same bits, and both match the
    // tree-walk reference.
    const Estimate reference =
        ensemble.estimate(DatasetView(mixed_workload(5)));
    expect_identical(reference, *results[0].estimate);
    expect_identical(reference, *results[3].estimate);
  }
}

TEST(EstimationService, FromFilePicksTheBackendByFormat) {
  // One backend, two ways in: a v4 image is mapped as is; text v1 loads
  // the ensemble and compiles it into an in-memory image. Both serve the
  // same file to the tree-walk's bits; a v3 file is refused by version.
  const Ensemble ensemble = trained_ensemble(41);
  const std::string text_path = temp_path("serve_service.model");
  const std::string v4_path = temp_path("serve_service.bin");
  model::save_model_file(ensemble, text_path);
  save_model_v3_file(ensemble, v4_path);
  EXPECT_THROW(EstimationService::from_file(std::string(SPIRE_TESTDATA_DIR) +
                                            "/lint/v3_artifact.model"),
               std::runtime_error);

  const std::string csv_path = temp_path("serve_service.csv");
  {
    std::ofstream out(csv_path);
    mixed_workload(11).save_csv(out);
  }
  const std::vector<std::string> paths = {csv_path};
  const Estimate reference = ensemble.estimate(DatasetView(mixed_workload(11)));
  for (const std::string& path : {text_path, v4_path}) {
    const EstimationService service = EstimationService::from_file(path);
    EXPECT_EQ(service.metric_count(), ensemble.metric_count()) << path;
    const auto results = service.estimate_files(paths);
    ASSERT_TRUE(results[0].ok()) << path << ": " << results[0].error;
    expect_identical(reference, *results[0].estimate);
  }
}

// --------------------------------------------------------------------------
// Pipeline engine stages
// --------------------------------------------------------------------------

TEST(EngineServe, CompileAndEstimateBatchStages) {
  const Ensemble ensemble = trained_ensemble(17);
  const std::string model_path = ::testing::TempDir() + "/serve_engine.bin";
  save_model_v3_file(ensemble, model_path);
  const std::string csv_path = ::testing::TempDir() + "/serve_engine.csv";
  {
    std::ofstream out(csv_path);
    mixed_workload(7).save_csv(out);
  }

  pipeline::Engine engine;
  engine.load_model(model_path)  // binary artifact through the sniffing path
      .compile()
      .estimate_batch({csv_path, "/nonexistent/serve_engine_missing.csv"});
  const auto& ctx = engine.context();
  ASSERT_NE(ctx.model, nullptr);
  EXPECT_EQ(ctx.model->metric_count(), ensemble.metric_count());
  ASSERT_EQ(ctx.batch_results.size(), 2u);
  ASSERT_TRUE(ctx.batch_results[0].ok());
  EXPECT_FALSE(ctx.batch_results[1].ok());
  expect_identical(ensemble.estimate(DatasetView(mixed_workload(7))),
                   *ctx.batch_results[0].estimate);
}

TEST(EngineServe, EstimateBatchCompilesOnDemand) {
  const Ensemble ensemble = trained_ensemble(17);
  const std::string model_path = ::testing::TempDir() + "/serve_engine2.model";
  model::save_model_file(ensemble, model_path);
  const std::string csv_path = ::testing::TempDir() + "/serve_engine2.csv";
  {
    std::ofstream out(csv_path);
    mixed_workload(9).save_csv(out);
  }
  pipeline::Engine engine;
  engine.load_model(model_path).estimate_batch({csv_path});
  EXPECT_NE(engine.context().model, nullptr);
  ASSERT_EQ(engine.context().batch_results.size(), 1u);
  EXPECT_TRUE(engine.context().batch_results[0].ok());
}

TEST(EngineServe, CompileRequiresAnEnsemble) {
  pipeline::Engine engine;
  EXPECT_THROW(engine.compile(), std::runtime_error);
  EXPECT_THROW(engine.estimate_batch({"whatever.csv"}), std::runtime_error);
}

// --------------------------------------------------------------------------
// Lint over binary artifacts
// --------------------------------------------------------------------------

TEST(LintBinary, CleanBinaryArtifactLintsClean) {
  const Ensemble ensemble = trained_ensemble(17);
  const std::string bin_path = ::testing::TempDir() + "/serve_lint.bin";
  save_model_v3_file(ensemble, bin_path);
  const auto report = lint::lint_model_file(bin_path);
  EXPECT_TRUE(report.clean()) << report.describe();
  EXPECT_EQ(report.metrics_scanned, ensemble.metric_count());
}

TEST(LintBinary, CorruptBinaryArtifactGetsTypedFinding) {
  const Ensemble ensemble = trained_ensemble(17);
  const std::string truncated = model_v3_bytes(ensemble).substr(0, 64);
  const std::string bad_path = ::testing::TempDir() + "/serve_lint_bad.bin";
  {
    std::ofstream out(bad_path, std::ios::binary);
    out << truncated;
  }
  const auto report = lint::lint_model_file(bad_path);
  EXPECT_TRUE(report.has_errors());
  ASSERT_EQ(report.count("binary-load"), 1u) << report.describe();
  // The finding carries the strict reader's diagnostic, prefix included.
  for (const auto& finding : report.findings) {
    if (finding.rule_id == "binary-load") {
      EXPECT_EQ(finding.message.rfind("model-bin:", 0), 0u) << finding.message;
    }
  }
}

}  // namespace
}  // namespace spire::serve
