#include "spire/model_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <fstream>
#include <span>
#include <sstream>

#include "serve/mapped_model.h"
#include "serve/model_v3.h"
#include "spire/model_bin.h"
#include "util/rng.h"

namespace spire::model {
namespace {

using counters::Event;
using sampling::Dataset;
using sampling::Sample;

Sample sample_at(double intensity, double throughput) {
  if (std::isinf(intensity)) return {1.0, throughput, 0.0};
  return {1.0, throughput, throughput / intensity};
}

Ensemble make_ensemble(std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset train;
  for (Event metric : {Event::kIdqDsbUops, Event::kBrMispRetiredAllBranches,
                       Event::kLongestLatCacheMiss}) {
    for (int i = 0; i < 60; ++i) {
      const double intensity = rng.chance(0.1)
                                   ? std::numeric_limits<double>::infinity()
                                   : std::pow(10.0, rng.uniform(-1.0, 3.0));
      train.add(metric, sample_at(intensity, rng.uniform(0.1, 4.0)));
    }
  }
  return Ensemble::train(train);
}

TEST(ModelIo, RoundTripPreservesRooflinesExactly) {
  const Ensemble original = make_ensemble(11);
  std::stringstream buf;
  save_model(original, buf);
  const Ensemble loaded = load_model(buf);

  ASSERT_EQ(loaded.metric_count(), original.metric_count());
  for (const auto& [metric, roofline] : original.rooflines()) {
    const auto it = loaded.rooflines().find(metric);
    ASSERT_NE(it, loaded.rooflines().end());
    EXPECT_EQ(it->second, roofline) << counters::event_name(metric);
  }
}

TEST(ModelIo, RoundTripPreservesEstimates) {
  const Ensemble original = make_ensemble(23);
  std::stringstream buf;
  save_model(original, buf);
  const Ensemble loaded = load_model(buf);

  util::Rng rng(99);
  for (const auto& [metric, roofline] : original.rooflines()) {
    const auto& other = loaded.rooflines().at(metric);
    for (int i = 0; i < 200; ++i) {
      const double intensity = std::pow(10.0, rng.uniform(-2.0, 5.0));
      EXPECT_DOUBLE_EQ(roofline.estimate(intensity), other.estimate(intensity));
    }
    EXPECT_DOUBLE_EQ(
        roofline.estimate(std::numeric_limits<double>::infinity()),
        other.estimate(std::numeric_limits<double>::infinity()));
  }
}

TEST(ModelIo, BadHeaderThrows) {
  std::istringstream in("not-a-model\n");
  EXPECT_THROW(load_model(in), std::runtime_error);
}

TEST(ModelIo, UnknownMetricThrows) {
  std::istringstream in(
      "spire-model v1\n"
      "metric fake.event trained_on=5 apex=1 2\n"
      "left 0\n"
      "right 1 1 2 inf 2\n");
  EXPECT_THROW(load_model(in), std::runtime_error);
}

TEST(ModelIo, TruncatedInputThrows) {
  std::istringstream in(
      "spire-model v1\n"
      "metric idq.dsb_uops trained_on=5 apex=1 2\n"
      "left 0\n");
  EXPECT_THROW(load_model(in), std::runtime_error);
}

TEST(ModelIo, EmptyModelThrows) {
  std::istringstream in("spire-model v1\n");
  EXPECT_THROW(load_model(in), std::runtime_error);
}

TEST(ModelIo, ParsesHandWrittenModel) {
  std::istringstream in(
      "spire-model v1\n"
      "metric idq.dsb_uops trained_on=12 apex=2 3\n"
      "left 2 0 0 2 3\n"
      "right 2 2 3 10 1 10 1 inf 1\n");
  const Ensemble ens = load_model(in);
  const auto& roofline = ens.rooflines().at(Event::kIdqDsbUops);
  EXPECT_EQ(roofline.training_sample_count(), 12u);
  EXPECT_DOUBLE_EQ(roofline.apex_intensity(), 2.0);
  EXPECT_DOUBLE_EQ(roofline.estimate(1.0), 1.5);  // on the left segment
  EXPECT_DOUBLE_EQ(roofline.estimate(6.0), 2.0);  // on the right segment
  EXPECT_DOUBLE_EQ(roofline.estimate(1e9), 1.0);  // horizontal tail
}

TEST(ModelIo, DuplicateMetricThrowsWithLineNumber) {
  std::istringstream in(
      "spire-model v1\n"
      "metric idq.dsb_uops trained_on=12 apex=2 3\n"
      "left 2 0 0 2 3\n"
      "right 1 2 3 inf 3\n"
      "metric idq.dsb_uops trained_on=12 apex=2 3\n"
      "left 0\n"
      "right 1 2 3 inf 3\n");
  try {
    load_model(in);
    FAIL() << "duplicate metric must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("duplicate metric"),
              std::string::npos)
        << e.what();
  }
}

TEST(ModelIo, FileRoundTrip) {
  const Ensemble original = make_ensemble(31);
  const std::string path = ::testing::TempDir() + "/spire_model.txt";
  save_model_file(original, path);
  const Ensemble loaded = load_model_file(path);
  EXPECT_EQ(loaded.metric_count(), original.metric_count());
  EXPECT_THROW(load_model_file("/nonexistent/model.txt"), std::runtime_error);
}

// --------------------------------------------------------------------------
// Binary format v4
// --------------------------------------------------------------------------

std::string image_of(const Ensemble& ensemble) {
  return serve::model_v3_bytes(ensemble);
}

Ensemble load_image(const std::string& bytes) {
  return bin::load_model_image(std::as_bytes(std::span(bytes.data(), bytes.size())));
}

/// The error text of load_image(bytes); "" when it loads.
std::string load_error(const std::string& bytes) {
  try {
    (void)load_image(bytes);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string temp_file(const std::string& name) {
  // ctest runs each case as its own process: pid-suffix shared names.
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

TEST(ModelIoBin, RoundTripPreservesRooflinesExactly) {
  const Ensemble original = make_ensemble(11);
  const Ensemble loaded = load_image(image_of(original));
  ASSERT_EQ(loaded.metric_count(), original.metric_count());
  for (const auto& [metric, roofline] : original.rooflines()) {
    const auto it = loaded.rooflines().find(metric);
    ASSERT_NE(it, loaded.rooflines().end());
    EXPECT_EQ(it->second, roofline) << counters::event_name(metric);
  }
}

TEST(ModelIoBin, ConversionIsLosslessBothWays) {
  const Ensemble original = make_ensemble(57);
  // text -> binary -> text reproduces the text bytes; binary -> text ->
  // binary reproduces the binary bytes.
  std::stringstream text1;
  save_model(original, text1);
  const std::string bin1 = image_of(load_model(text1));
  std::stringstream text2;
  save_model(load_image(bin1), text2);
  EXPECT_EQ(text1.str(), text2.str());
  text2.seekg(0);
  EXPECT_EQ(bin1, image_of(load_model(text2)));
}

TEST(ModelIoBin, MagicLeadsTheFile) {
  const std::string bytes = image_of(make_ensemble(3));
  EXPECT_EQ(bytes.substr(0, kModelImageMagic.size()), kModelImageMagic);
  EXPECT_EQ(binary_model_version(bytes), kModelBinFormatVersion);
}

TEST(ModelIoBin, BadMagicThrows) {
  EXPECT_NE(load_error(std::string("spire-model v1\nmetric ...") +
                       std::string(300, '\0'))
                .find("bad magic"),
            std::string::npos);
  EXPECT_EQ(binary_model_version("spire-model v1\n"), 0);
  EXPECT_EQ(binary_model_version("spire-model-bin v\n"), 0);
  EXPECT_EQ(binary_model_version("spire-model-bin v04\n"), 0);
  EXPECT_EQ(binary_model_version("spire-model-bin v4"), 0);
}

TEST(ModelIoBin, FutureVersionNamesAllSupportedVersions) {
  // Any other version, older or newer, is named next to the one this
  // build reads, with the way back: recompile from text.
  for (const int version : {2, 3, 9, 123456789}) {
    const std::string magic =
        "spire-model-bin v" + std::to_string(version) + "\n";
    EXPECT_EQ(binary_model_version(magic), version);
    const std::string what = load_error(magic + std::string(300, '\x01'));
    EXPECT_EQ(what.rfind("model-bin:", 0), 0u) << what;
    EXPECT_NE(what.find(unsupported_binary_version(version)), std::string::npos)
        << what;
    EXPECT_NE(what.find("binary model format v" + std::to_string(version) +
                        " is not supported (this build reads v4)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("recompile"), std::string::npos) << what;
  }
}

TEST(ModelIoBin, TruncationAtEveryByteThrowsCleanly) {
  const std::string bytes = image_of(make_ensemble(7));
  const std::string path = temp_file("truncated.bin");
  // Every prefix must be rejected by both readers — the Ensemble rebuild
  // and the full-tier mapping — with the hardened validator's own
  // diagnostic: never a crash, hang, or silent partial model.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::string prefix = bytes.substr(0, len);
    const std::string what = load_error(prefix);
    EXPECT_EQ(what.rfind("model-bin:", 0), 0u) << len << ": " << what;
    write_bytes(path, prefix);
    try {
      (void)serve::MappedModel::map_file(path, bin::Verify::kFull);
      ADD_FAILURE() << "prefix of " << len << " bytes must not map";
    } catch (const std::runtime_error& e) {
      const std::string mapped = e.what();
      EXPECT_TRUE(mapped.rfind("model-bin:", 0) == 0 ||
                  mapped.rfind("mmap:", 0) == 0)
          << len << ": " << mapped;
    }
  }
}

TEST(ModelIoBin, OversizedSectionCountIsRejectedBeforeAllocation) {
  // Header counts of 2^32-1 must throw on the bound, not size anything by
  // them.
  const std::string clean = image_of(make_ensemble(7));
  const std::size_t metric_count_at = bin::kFlatHeaderOffset + 8;
  for (const std::size_t at : {metric_count_at, metric_count_at + 4}) {
    std::string bytes = clean;
    bytes.replace(at, 4, "\xff\xff\xff\xff");
    const std::string what = load_error(bytes);
    EXPECT_NE(what.find(at == metric_count_at ? "flat metric count"
                                              : "flat piece count"),
              std::string::npos)
        << what;
  }
}

TEST(ModelIoBin, SectionByteCountMustMatchTables) {
  std::string bytes = image_of(make_ensemble(7));
  // Grow the x0 section's declared byte count by one double: the
  // cross-check against the header's piece count must reject it.
  const std::size_t entry_at = bin::kFlatHeaderOffset + bin::kFlatHeaderBytes +
                               3 * bin::kSectionEntryBytes;
  bytes[entry_at + 16] = static_cast<char>(bytes[entry_at + 16] + 8);
  const std::string what = load_error(bytes);
  EXPECT_NE(what.find("section x0 has"), std::string::npos) << what;
}

TEST(ModelIoBin, TrailingGarbageIsRejected) {
  const std::string clean = image_of(make_ensemble(7));
  // Bytes appended after the footer move the footer window.
  EXPECT_EQ(load_error(clean + "x").rfind("model-bin:", 0), 0u);
  // Bytes between the last section and the footer, even with the footer's
  // file size patched to match, are caught by the contiguity walk.
  const std::size_t footer_at = clean.size() - bin::kFooterBytes;
  std::string padded = clean.substr(0, footer_at) + std::string(8, '\0') +
                       clean.substr(footer_at);
  const std::uint64_t size = padded.size();
  for (int i = 0; i < 8; ++i) {
    padded[footer_at + 8 + 8 + i] = static_cast<char>(size >> (8 * i));
  }
  const std::string what = load_error(padded);
  EXPECT_NE(what.find("trailing garbage"), std::string::npos) << what;
}

TEST(ModelIoBin, FileWrappersAndSniffing) {
  const Ensemble original = make_ensemble(31);
  const std::string bin_path = temp_file("spire_model.bin");
  const std::string text_path = temp_file("spire_model_v1.txt");
  serve::save_model_v3_file(original, bin_path);
  save_model_file(original, text_path);

  EXPECT_EQ(binary_model_file_version(bin_path), kModelBinFormatVersion);
  EXPECT_EQ(binary_model_file_version(text_path), 0);
  EXPECT_EQ(binary_model_file_version("/nonexistent/model.bin"), 0);

  // load_model_any_file dispatches on the leading bytes; both routes land
  // on the same rooflines.
  const Ensemble from_bin = load_model_any_file(bin_path);
  const Ensemble from_text = load_model_any_file(text_path);
  EXPECT_EQ(from_bin.rooflines(), from_text.rooflines());
  EXPECT_EQ(from_bin.rooflines(), original.rooflines());
  EXPECT_THROW(load_model_any_file("/nonexistent/model.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace spire::model
