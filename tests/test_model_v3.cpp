// Binary v4 images + zero-copy serving: the mapped path's promises are (a)
// bit identity with the tree-walk at any thread count (the ServedModel
// suite in test_serve.cpp), (b) zero per-table copying (every table span
// points into the mapping), and (c) no crafted or corrupted image ever
// gets a pointer formed into it — every defect is a clean
// "model-bin: ..." diagnostic naming a section or byte offset. The
// registry adds content-addressed identity: publishing the same model from
// either source format converges on one id, publish is atomic and
// race-safe, and gc never removes pinned or live-mapped objects.
#include "serve/mapped_model.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lint/lint.h"
#include "pipeline/engine.h"
#include "quality/fault_injector.h"
#include "sampling/dataset.h"
#include "sampling/dataset_view.h"
#include "serve/model_v3.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "spire/ensemble.h"
#include "spire/model_bin.h"
#include "spire/model_io.h"
#include "util/hash.h"
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
    d.add(metric, {0.0, 1.0, 1.0});
    d.add(metric, {1.0, -1.0, 1.0});
    d.add(metric, {std::numeric_limits<double>::quiet_NaN(), 1.0, 1.0});
  }
  d.add(Event::kMemInstRetiredAllLoads, {-3.0, 1.0, 1.0});
  return d;
}

void expect_identical(const Estimate& a, const Estimate& b) {
  EXPECT_EQ(a.throughput, b.throughput);
  ASSERT_EQ(a.ranking.size(), b.ranking.size());
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].metric, b.ranking[i].metric);
    EXPECT_EQ(a.ranking[i].p_bar, b.ranking[i].p_bar);
    EXPECT_EQ(a.ranking[i].samples, b.ranking[i].samples);
  }
  ASSERT_EQ(a.skipped.size(), b.skipped.size());
  for (std::size_t i = 0; i < a.skipped.size(); ++i) {
    EXPECT_EQ(a.skipped[i].metric, b.skipped[i].metric);
    EXPECT_EQ(a.skipped[i].reason, b.skipped[i].reason);
  }
}

std::string temp_path(const std::string& name) {
  // Parallel ctest runs each case of this binary as its own process, and
  // several cases (notably every FuzzModelV3 instance) use the same file
  // names — pid-suffix them so one process never truncates a file another
  // is mid-mmap on (which showed up as SIGBUS under `ctest -j`).
  return ::testing::TempDir() + "/" +
         std::to_string(static_cast<unsigned>(::getpid())) + "_" + name;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --------------------------------------------------------------------------
// Format: stream round-trip, sniffing, superset property
// --------------------------------------------------------------------------

/// The parent format's image of testdata/models/handwritten.model, kept as
/// a lint fixture: the one v3 file the suite still reads bytes of.
std::string v3_fixture_path() {
  return std::string(SPIRE_TESTDATA_DIR) + "/lint/v3_artifact.model";
}

std::span<const std::byte> as_span(const std::string& bytes) {
  return std::as_bytes(std::span(bytes.data(), bytes.size()));
}

TEST(ModelV3, FileVersionSniffingRoutesAllThreeFormats) {
  const Ensemble ensemble = trained_ensemble(17);
  const std::string v1 = temp_path("sniff_v1.model");
  const std::string v4 = temp_path("sniff_v4.bin");
  model::save_model_file(ensemble, v1);
  save_model_v3_file(ensemble, v4);

  EXPECT_EQ(model::binary_model_file_version(v1), 0);
  EXPECT_EQ(model::binary_model_file_version(v3_fixture_path()), 3);
  EXPECT_EQ(model::binary_model_file_version(v4), 4);
  EXPECT_EQ(model::binary_model_file_version(temp_path("sniff_none")), 0);

  for (const std::string& path : {v1, v4}) {
    EXPECT_EQ(ensemble.rooflines(),
              model::load_model_any_file(path).rooflines())
        << path;
  }
  // A v3 file is routed to the binary reader, which names its version
  // instead of mis-parsing it as text.
  try {
    (void)model::load_model_any_file(v3_fixture_path());
    FAIL() << "a v3 file must not load";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(model::unsupported_binary_version(3)),
              std::string::npos)
        << e.what();
  }
}

TEST(ModelV3, CheckedInModelsSerializeToPinnedBytes) {
  // Registry ids of the checked-in models, recorded with `spire_cli
  // registry publish`. The id is the fnv1a64 of the v4 bytes, so any byte
  // the flatten walk or the image writer changes moves an id; a
  // deliberate format change updates these literals.
  const std::string dir = std::string(SPIRE_TESTDATA_DIR) + "/models/";
  const std::pair<const char*, const char*> pinned[] = {
      {"handwritten", "31b293318044c9d7"},
      {"trained_parboil", "f46ca41be83f57f4"},
      {"trained_multi", "abd864602906a6a9"},
  };
  for (const auto& [name, id] : pinned) {
    const Ensemble ensemble =
        model::load_model_any_file(dir + name + ".model");
    const std::string bytes = model_v3_bytes(ensemble);
    EXPECT_EQ(util::fnv1a64_hex(bytes), id) << name;
    // An in-memory compile serves exactly those bytes.
    const MappedModel compiled = MappedModel::compile(ensemble);
    const std::span<const std::byte> image = compiled.bytes();
    ASSERT_EQ(image.size(), bytes.size()) << name;
    EXPECT_EQ(std::memcmp(image.data(), bytes.data(), bytes.size()), 0)
        << name;
    EXPECT_EQ(compiled.path(), "<memory>");
  }
}

TEST(ModelV3, EvalTablesAreTheV3TablesByteForByte) {
  // The evaluator reads the metric ranges and the four endpoint columns.
  // Their payloads are the ones the v3 format carried: these are the
  // CRC-32s of those v3 sections for the checked-in models, so no
  // estimate can move with the format.
  using model::bin::Section;
  const std::string dir = std::string(SPIRE_TESTDATA_DIR) + "/models/";
  struct Pinned {
    const char* name;
    std::uint32_t ranges, x0, y0, x1, y1;
  };
  const Pinned pinned[] = {
      {"handwritten", 0x266618b4, 0x62cd9613, 0x6bd04d6d, 0x79da2279,
       0x364cd4db},
      {"trained_parboil", 0x60a570ab, 0x9395eec8, 0xfc6281c6, 0x1edf039b,
       0x5c1a727b},
      {"trained_multi", 0x5d87b659, 0x09ddb097, 0x85c05120, 0x4828ef8c,
       0xbfc25420},
  };
  for (const Pinned& p : pinned) {
    const std::string bytes = model_v3_bytes(
        model::load_model_file(dir + p.name + ".model"));
    const auto layout = model::bin::check_flat_region(as_span(bytes));
    const auto crc_of = [&](Section s) {
      const auto& extent = layout.section(s);
      return util::crc32(std::string_view(bytes).substr(extent.offset,
                                                        extent.bytes));
    };
    EXPECT_EQ(crc_of(Section::kMetricRanges), p.ranges) << p.name;
    EXPECT_EQ(crc_of(Section::kX0), p.x0) << p.name;
    EXPECT_EQ(crc_of(Section::kY0), p.y0) << p.name;
    EXPECT_EQ(crc_of(Section::kX1), p.x1) << p.name;
    EXPECT_EQ(crc_of(Section::kY1), p.y1) << p.name;
  }
}

// --------------------------------------------------------------------------
// MappedModel: zero-copy structure
// --------------------------------------------------------------------------

TEST(MappedModel, TableSpansPointIntoTheMappingNotCopies) {
  const Ensemble ensemble = trained_ensemble(17);
  const std::string path = temp_path("mapped_spans.bin");
  save_model_v3_file(ensemble, path);
  const MappedModel mapped = MappedModel::map_file(path);

  // Every table span must sit inside one contiguous buffer — the mapping —
  // at exactly the file offsets the section table declares. If any table
  // were deserialized into a heap copy, these distances could not all hold.
  const auto& layout = mapped.view().layout;
  const EvalTables t = mapped.tables();
  const char* ranges = reinterpret_cast<const char*>(t.ranges.data());
  const auto distance_to = [&](const void* p) {
    return reinterpret_cast<const char*>(p) - ranges;
  };
  using model::bin::Section;
  const std::ptrdiff_t base =
      static_cast<std::ptrdiff_t>(layout.section(Section::kMetricRanges).offset);
  EXPECT_EQ(distance_to(t.x0.data()),
            static_cast<std::ptrdiff_t>(layout.section(Section::kX0).offset) - base);
  EXPECT_EQ(distance_to(t.y0.data()),
            static_cast<std::ptrdiff_t>(layout.section(Section::kY0).offset) - base);
  EXPECT_EQ(distance_to(t.x1.data()),
            static_cast<std::ptrdiff_t>(layout.section(Section::kX1).offset) - base);
  EXPECT_EQ(distance_to(t.y1.data()),
            static_cast<std::ptrdiff_t>(layout.section(Section::kY1).offset) - base);
  EXPECT_EQ(distance_to(mapped.view().strings.data()),
            static_cast<std::ptrdiff_t>(layout.section(Section::kStrings).offset) - base);
  EXPECT_EQ(layout.file_size, mapped.bytes().size());

  // Mapped tables equal in-memory compiled tables value-for-value (the
  // "by construction" guarantee, spot-verified).
  const MappedModel compiled = MappedModel::compile(ensemble);
  const EvalTables c = compiled.tables();
  ASSERT_EQ(t.piece_count(), c.piece_count());
  for (std::size_t i = 0; i < t.piece_count(); ++i) {
    EXPECT_EQ(t.x0[i], c.x0[i]);
    EXPECT_EQ(t.y0[i], c.y0[i]);
    EXPECT_EQ(t.x1[i], c.x1[i]);
    EXPECT_EQ(t.y1[i], c.y1[i]);
  }
}

// --------------------------------------------------------------------------
// Hardening: fuzzed and hand-corrupted artifacts
// --------------------------------------------------------------------------

class FuzzModelV3 : public ::testing::TestWithParam<int> {};

TEST_P(FuzzModelV3, EveryMutationIsRejectedWithADiagnostic) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 86'243 + 3);
  const Ensemble ensemble = trained_ensemble(11);
  const std::string clean = model_v3_bytes(ensemble);
  const std::string path = temp_path("fuzz_v4.bin");

  // The unmutated image maps and rebuilds.
  write_file(path, clean);
  EXPECT_NO_THROW(MappedModel::map_file(path));
  EXPECT_NO_THROW(model::bin::load_model_image(as_span(clean)));

  const auto expect_diagnostic = [](const std::exception& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what.rfind("model-bin:", 0) == 0 ||
                what.rfind("mmap:", 0) == 0)
        << what;
  };
  for (int round = 0; round < 25; ++round) {
    const std::string mutated =
        rng.chance(0.5) ? quality::flip_bits(clean, rng, 1 + rng.below(8))
                        : quality::truncate_tail(clean, rng);
    if (mutated == clean) continue;
    write_file(path, mutated);
    // Full verification: the whole-file CRC covers every byte before the
    // footer and the footer is fully cross-checked, so EVERY mutation must
    // be rejected, with the hardened validator's own diagnostic. Never a
    // crash or SIGBUS.
    try {
      MappedModel::map_file(path, model::bin::Verify::kFull);
      FAIL() << "mutation must be rejected (round " << round << ")";
    } catch (const std::exception& e) {
      expect_diagnostic(e);
    }
    // The structure tier (the default serving open) may accept damage the
    // CRCs would catch, but it must never crash, SIGBUS, or index out of
    // bounds — a mutated image either rejects with a diagnostic or
    // serves estimates without UB (ASan/UBSan runs enforce the latter).
    try {
      const MappedModel survived = MappedModel::map_file(path);
      for (const counters::Event metric : survived.metrics()) {
        (void)metric;
      }
      (void)survived.view().strings;
    } catch (const std::exception& e) {
      expect_diagnostic(e);
    }
    // The Ensemble rebuild fully verifies first, so it rejects the same
    // bytes.
    try {
      model::bin::load_model_image(as_span(mutated));
      FAIL() << "rebuild must reject (round " << round << ")";
    } catch (const std::exception& e) {
      expect_diagnostic(e);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzModelV3, ::testing::Range(1, 9));

TEST(ModelV3Hardening, TargetedCorruptionsNameTheSectionAndOffset) {
  const Ensemble ensemble = trained_ensemble(11);
  const std::string clean = model_v3_bytes(ensemble);
  const std::string path = temp_path("corrupt_v4.bin");

  const auto expect_rejected_at = [&](const std::string& bytes,
                                      const std::string& needle,
                                      model::bin::Verify verify) {
    write_file(path, bytes);
    try {
      MappedModel::map_file(path, verify);
      FAIL() << "expected rejection containing '" << needle << "'";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  // Structural damage must be rejected at BOTH tiers — the fast serving
  // open gives up nothing on geometry/bounds safety.
  const auto expect_rejected = [&](const std::string& bytes,
                                   const std::string& needle) {
    expect_rejected_at(bytes, needle, model::bin::Verify::kStructure);
    expect_rejected_at(bytes, needle, model::bin::Verify::kFull);
  };

  // Recover the layout to aim precisely.
  const auto layout = model::bin::check_flat_region(as_span(clean));
  using model::bin::Section;

  // A flipped byte inside a payload: full verification's per-section CRC
  // pinpoints it. The structure tier, by contract, maps such bytes — CRC
  // work belongs to the publish/lint gate, not every serving open.
  {
    std::string bytes = clean;
    bytes[layout.section(Section::kX0).offset + 3] ^= 0x40;
    expect_rejected_at(bytes, "section x0 CRC mismatch",
                       model::bin::Verify::kFull);
    write_file(path, bytes);
    EXPECT_NO_THROW(MappedModel::map_file(path));
  }
  {
    std::string bytes = clean;
    bytes[layout.section(Section::kStrings).offset] ^= 0x01;
    expect_rejected_at(bytes, "section strings CRC mismatch",
                       model::bin::Verify::kFull);
  }
  // Footer file_size that disagrees with the actual byte count.
  {
    std::string bytes = clean;
    bytes[bytes.size() - 24] ^= 0x08;  // footer.file_size low byte
    expect_rejected(bytes, "footer declares");
  }
  // Broken footer magic.
  {
    std::string bytes = clean;
    bytes[bytes.size() - 1] ^= 0xFF;
    expect_rejected(bytes, "bad footer magic");
  }
  // A flat offset in the footer other than the fixed header position.
  {
    std::string bytes = clean;
    bytes[bytes.size() - 32] ^= 0x04;  // footer.flat_offset low byte
    expect_rejected(bytes, "flat header offset");
  }
  // Truncation: structural rejection before any pointer is formed.
  expect_rejected(clean.substr(0, clean.size() - 7), "footer");
  expect_rejected(clean.substr(0, model::bin::kFlatHeaderOffset + 16),
                  "truncated");
  // Growth after write (appended garbage) moves the footer window.
  expect_rejected(clean + std::string(64, 'x'), "footer");
  // Flat magic corruption.
  {
    std::string bytes = clean;
    bytes[model::bin::kFlatHeaderOffset] ^= 0x10;
    expect_rejected(bytes, "flat magic");
  }
  // Wrong magic byte.
  {
    std::string bytes = clean;
    bytes[2] ^= 0x20;
    expect_rejected(bytes, "magic");
  }
  // An image of another version is named, at either tier.
  {
    std::string bytes = clean;
    bytes[model::kModelImageMagic.size() - 2] = '3';
    expect_rejected(bytes, model::unsupported_binary_version(3));
  }
}

TEST(ModelV3Hardening, VerificationTiersSplitCrcWorkFromBoundsSafety) {
  const Ensemble ensemble = trained_ensemble(11);
  const std::string clean = model_v3_bytes(ensemble);
  const std::string path = temp_path("tiers_v4.bin");
  const auto layout = model::bin::check_flat_region(as_span(clean));

  // Clean artifacts pass both tiers.
  write_file(path, clean);
  EXPECT_NO_THROW(MappedModel::map_file(path));
  EXPECT_NO_THROW(MappedModel::map_file(path, model::bin::Verify::kFull));

  // Flip a byte in a trained_on count. The full tier names the section;
  // the structure tier maps the file — and because the bit-identity
  // evaluator never reads metric-info, estimates remain bit-identical to
  // a clean in-memory compile even on the damaged image.
  std::string bytes = clean;
  bytes[layout.section(model::bin::Section::kMetricInfo).offset + 16] ^= 0x10;
  write_file(path, bytes);
  try {
    MappedModel::map_file(path, model::bin::Verify::kFull);
    FAIL() << "full verification must reject the metric-info flip";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("metric-info"), std::string::npos)
        << e.what();
  }
  const MappedModel mapped = MappedModel::map_file(path);
  const MappedModel compiled = MappedModel::compile(ensemble);
  const Dataset workload = mixed_workload(5);
  const DatasetView view(workload);
  const Estimate a = mapped.estimate(view);
  const Estimate b = compiled.estimate(view);
  EXPECT_EQ(a.throughput, b.throughput);

  // The registry's entry gate runs full verification: damaged bytes never
  // become published objects, which is what makes the fast open sound.
  ModelRegistry registry(temp_path("reg_tiers_gate"));
  EXPECT_THROW(registry.publish_bytes(bytes), std::runtime_error);
  EXPECT_NO_THROW(registry.publish_bytes(clean));
}

// --------------------------------------------------------------------------
// Registry: content addressing, atomicity, pin/gc, cache
// --------------------------------------------------------------------------

std::string fresh_registry_root(const std::string& name) {
  const std::string root = temp_path(name);
  std::filesystem::remove_all(root);
  return root;
}

TEST(ModelRegistry, PublishConvergesAcrossEverySourceFormat) {
  const Ensemble ensemble = trained_ensemble(17);
  ModelRegistry registry(fresh_registry_root("reg_converge"));

  const std::string v1 = temp_path("reg_src.model");
  const std::string v4 = temp_path("reg_src.bin");
  model::save_model_file(ensemble, v1);
  save_model_v3_file(ensemble, v4);

  const std::string id = registry.publish(ensemble);
  EXPECT_EQ(id.size(), 16u);
  EXPECT_EQ(id, util::fnv1a64_hex(model_v3_bytes(ensemble)));
  EXPECT_EQ(id, registry.publish_file(v1));
  EXPECT_EQ(id, registry.publish_file(v4));
  {
    std::ifstream raw(v4, std::ios::binary);
    std::stringstream buf;
    buf << raw.rdbuf();
    EXPECT_EQ(id, registry.publish_bytes(buf.str()));
  }
  EXPECT_EQ(registry.list(), std::vector<std::string>{id});
  EXPECT_TRUE(registry.contains(id));

  // The stored object serves bit-identically to the source ensemble.
  const auto mapped = registry.open(id);
  const Dataset workload = mixed_workload(3);
  const DatasetView view(workload);
  expect_identical(ensemble.estimate(view), mapped->estimate(view));
}

TEST(ModelRegistry, PublishBytesValidatesBeforeStoring) {
  ModelRegistry registry(fresh_registry_root("reg_validate"));
  EXPECT_THROW(registry.publish_bytes("garbage"), std::runtime_error);
  std::string forged(std::string(model::kModelImageMagic) +
                     std::string(512, '\0'));
  EXPECT_THROW(registry.publish_bytes(forged), std::runtime_error);
  // A v3 image is refused by version, through either entry point.
  std::ifstream v3(v3_fixture_path(), std::ios::binary);
  std::stringstream v3_bytes;
  v3_bytes << v3.rdbuf();
  for (const auto& publish :
       {std::function<void()>([&] { registry.publish_bytes(v3_bytes.str()); }),
        std::function<void()>([&] { registry.publish_file(v3_fixture_path()); })}) {
    try {
      publish();
      ADD_FAILURE() << "a v3 image must not publish";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(
          std::string(e.what()).find(model::unsupported_binary_version(3)),
          std::string::npos)
          << e.what();
    }
  }
  EXPECT_TRUE(registry.list().empty());
}

TEST(ModelRegistry, RejectsMalformedIds) {
  ModelRegistry registry(fresh_registry_root("reg_ids"));
  EXPECT_THROW(registry.open("not-an-id"), std::runtime_error);
  EXPECT_THROW(registry.open("../../etc/passwd"), std::runtime_error);
  EXPECT_THROW(registry.open("ABCDEF0123456789"), std::runtime_error);  // upper
  EXPECT_FALSE(registry.contains("zz"));
  const std::string absent(16, 'a');
  EXPECT_THROW(registry.open(absent), std::runtime_error);
}

TEST(ModelRegistry, OpenSharesOneMappingThroughTheCache) {
  ModelRegistry registry(fresh_registry_root("reg_cache"));
  const std::string id1 = registry.publish(trained_ensemble(17));
  const std::string id2 = registry.publish(trained_ensemble(29));
  ASSERT_NE(id1, id2);
  const auto a = registry.open(id1);
  const auto b = registry.open(id1);
  EXPECT_EQ(a.get(), b.get());  // one mapping, shared

  // A live consumer mapping is reused rather than remapped, whatever was
  // opened in between.
  (void)registry.open(id2);
  EXPECT_EQ(a.get(), registry.open(id1).get());
  EXPECT_EQ(registry.cache_stats().misses, 2u);
}

// The mapping counters the server surfaces as registry_cache_* in
// `serverctl stats`: every open() is exactly one hit (a still-live
// mapping reused) or one miss (fresh mmap). The registry holds no mapping
// itself, so an id nobody maps any more is mapped afresh; gc() moves no
// counter.
TEST(ModelRegistry, CacheCountersTrackHitsMissesAndEvictionsExactly) {
  ModelRegistry registry(fresh_registry_root("reg_counters"));
  const std::string id1 = registry.publish(trained_ensemble(17));
  const std::string id2 = registry.publish(trained_ensemble(29));
  ASSERT_NE(id1, id2);
  auto stats = [&] { return registry.cache_stats(); };
  EXPECT_EQ(stats().hits, 0u);
  EXPECT_EQ(stats().misses, 0u);

  auto keep = registry.open(id1);  // fresh mmap
  EXPECT_EQ(stats().misses, 1u);
  EXPECT_EQ(registry.open(id1).get(), keep.get());  // live: reused
  EXPECT_EQ(stats().hits, 1u);
  (void)registry.open(id2);  // fresh mmap, dropped at once
  EXPECT_EQ(stats().misses, 2u);
  (void)registry.open(id2);  // nobody held it: mapped again
  EXPECT_EQ(stats().misses, 3u);
  EXPECT_EQ(stats().hits, 1u);
  keep.reset();
  (void)registry.open(id1);  // the last consumer is gone: mapped again
  EXPECT_EQ(stats().misses, 4u);
  EXPECT_EQ(stats().hits, 1u);

  const auto before = stats();
  (void)registry.gc();
  EXPECT_EQ(stats().hits, before.hits);
  EXPECT_EQ(stats().misses, before.misses);
}

TEST(ModelRegistry, GcKeepsPinnedAndLiveObjectsOnly) {
  ModelRegistry registry(fresh_registry_root("reg_gc"));
  const std::string pinned = registry.publish(trained_ensemble(17));
  const std::string live = registry.publish(trained_ensemble(29));
  const std::string loose = registry.publish(trained_ensemble(43));
  ASSERT_EQ(registry.list().size(), 3u);

  registry.pin(pinned);
  EXPECT_EQ(registry.pinned(), std::vector<std::string>{pinned});
  auto handle = registry.open(live);

  const auto removed = registry.gc();
  EXPECT_EQ(removed, std::vector<std::string>{loose});
  EXPECT_TRUE(registry.contains(pinned));
  EXPECT_TRUE(registry.contains(live));
  EXPECT_FALSE(registry.contains(loose));
  // The live mapping keeps serving after gc.
  const Dataset workload = mixed_workload(5);
  EXPECT_NO_THROW(handle->estimate(DatasetView(workload)));

  // Drop the pin and the handle: everything is now collectable.
  registry.unpin(pinned);
  handle.reset();
  auto removed2 = registry.gc();
  std::sort(removed2.begin(), removed2.end());
  std::vector<std::string> expected{pinned, live};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(removed2, expected);
  EXPECT_TRUE(registry.list().empty());
}

TEST(ModelRegistry, ConcurrentPublishOfTheSameBytesConverges) {
  const Ensemble ensemble = trained_ensemble(17);
  ModelRegistry registry(fresh_registry_root("reg_race"));
  std::string id_a, id_b;
  std::thread a([&] { id_a = registry.publish(ensemble); });
  std::thread b([&] { id_b = registry.publish(ensemble); });
  a.join();
  b.join();
  EXPECT_EQ(id_a, id_b);
  EXPECT_EQ(registry.list(), std::vector<std::string>{id_a});
  // The object is whole (atomic rename: no reader can see a partial file).
  EXPECT_NO_THROW(registry.open(id_a));
}

TEST(ModelRegistry, CacheIterationSurvivesConcurrentOpenPublishAndGc) {
  // Concurrency-contract regression: live_ is SPIRE_GUARDED_BY(mutex_).
  // Readers open four pinned ids (two of them held alive for the whole
  // run, two mapped and dropped on every pass) while a collector keeps
  // publishing an unpinned model and collecting it. Under TSan it is the
  // registry's open/publish/gc race regression; in any build a successful
  // open must serve a bit-exact mapping.
  ModelRegistry registry(fresh_registry_root("reg_cache_race"));
  std::vector<Ensemble> models;
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    models.push_back(trained_ensemble(static_cast<std::uint64_t>(100 + i)));
    ids.push_back(registry.publish(models.back()));
    registry.pin(ids.back());  // gc must never collect the working set
  }
  const Ensemble loose = trained_ensemble(200);
  const Dataset workload = mixed_workload(11);
  const DatasetView view(workload);
  std::vector<Estimate> expected;
  expected.reserve(models.size());
  for (const Ensemble& m : models) expected.push_back(m.estimate(view));

  std::atomic<bool> stop{false};
  std::atomic<int> opens{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      const std::shared_ptr<const MappedModel> held =
          registry.open(ids[static_cast<std::size_t>(t % 2)]);
      opens.fetch_add(1);
      for (int i = 0; i < 300; ++i) {
        const std::size_t k =
            static_cast<std::size_t>(t + i) % ids.size();
        const std::shared_ptr<const MappedModel> mapped =
            registry.open(ids[k]);
        expect_identical(mapped->estimate(view), expected[k]);
        opens.fetch_add(1);
      }
    });
  }
  std::thread collector([&] {
    while (!stop.load()) {
      (void)registry.publish(loose);
      registry.gc();  // collects `loose` while readers open and drop
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (std::thread& r : readers) r.join();
  stop.store(true);
  collector.join();
  EXPECT_EQ(opens.load(), 4 * 301);
  // Everything pinned survived every gc pass; the loose model did not.
  EXPECT_EQ(registry.list().size(), ids.size());
  // Counter accounting holds under the same pressure: every open was
  // exactly one hit or one miss. The held ids always hit; the first
  // open of any id is a miss.
  const ModelRegistry::CacheStats stats = registry.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(4 * 301));
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

TEST(ModelRegistry, LatestTracksMtimeWithDeterministicTieBreak) {
  ModelRegistry registry(fresh_registry_root("reg_latest"));
  EXPECT_TRUE(registry.latest().empty());
  const std::string a = registry.publish(trained_ensemble(17));
  EXPECT_EQ(registry.latest(), a);
  const std::string b = registry.publish(trained_ensemble(29));
  // Make the ordering explicit rather than racing filesystem timestamps.
  const auto now = std::filesystem::file_time_type::clock::now();
  std::filesystem::last_write_time(registry.object_path(a), now);
  std::filesystem::last_write_time(registry.object_path(b),
                                   now + std::chrono::seconds(2));
  EXPECT_EQ(registry.latest(), b);
  std::filesystem::last_write_time(registry.object_path(a),
                                   now + std::chrono::seconds(4));
  EXPECT_EQ(registry.latest(), a);
  // Equal mtimes: the lexicographically larger id wins, deterministically.
  std::filesystem::last_write_time(registry.object_path(b),
                                   now + std::chrono::seconds(4));
  EXPECT_EQ(registry.latest(), std::max(a, b));
}

TEST(ModelRegistry, HotSwapReaderNeverSeesATornMappingUnderConcurrentGc) {
  // A serving reader resolves "latest" and estimates in a loop while a
  // publisher alternates objects and a collector gc's aggressively. Each
  // round pins the version it publishes and unpins the one it retires, as
  // a deployment does, so the retired object is collected the moment no
  // reader maps it. The reader may lose a resolve race (open() of a
  // just-collected id throws cleanly) but an open that SUCCEEDS must
  // always serve a bit-exact result for whichever of the two models it
  // mapped — never a torn or partially collected mapping.
  ModelRegistry registry(fresh_registry_root("reg_swap_gc"));
  const Ensemble model_a = trained_ensemble(17);
  const Ensemble model_b = trained_ensemble(29);
  const Dataset workload = mixed_workload(7);
  const DatasetView view(workload);
  const Estimate expect_a = model_a.estimate(view);
  const Estimate expect_b = model_b.estimate(view);
  const std::string id_a = registry.publish(model_a);
  const std::string id_b = registry.publish(model_b);
  ASSERT_NE(id_a, id_b);

  std::atomic<bool> stop{false};
  std::atomic<int> served{0};
  std::thread publisher([&] {
    for (int round = 0; !stop.load(); ++round) {
      // Republish whichever the gc may have collected and advance its
      // mtime so latest() genuinely alternates.
      const bool even = round % 2 == 0;
      const std::string& fresh = even ? id_a : id_b;
      registry.publish(even ? model_a : model_b);
      registry.pin(fresh);
      std::filesystem::last_write_time(
          registry.object_path(fresh),
          std::filesystem::file_time_type::clock::now() +
              std::chrono::seconds(round + 1));
      registry.unpin(even ? id_b : id_a);
      registry.gc();  // the retired object vanishes unless a reader maps it
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread reader([&] {
    while (served.load() < 200 && !stop.load()) {
      const std::string latest = registry.latest();
      if (latest.empty()) continue;
      std::shared_ptr<const MappedModel> mapped;
      try {
        mapped = registry.open(latest);
      } catch (const std::runtime_error&) {
        continue;  // lost the race to gc — a clean miss, not a tear
      }
      const Estimate got = mapped->estimate(view);
      if (latest == id_a) {
        expect_identical(got, expect_a);
      } else if (latest == id_b) {
        expect_identical(got, expect_b);
      } else {
        ADD_FAILURE() << "latest() returned unknown id " << latest;
      }
      served.fetch_add(1);
    }
  });
  reader.join();
  stop.store(true);
  publisher.join();
  EXPECT_GE(served.load(), 200);
}

// --------------------------------------------------------------------------
// Service + engine integration
// --------------------------------------------------------------------------

TEST(EstimationService, FromRegistryServesBitIdentically) {
  const Ensemble ensemble = trained_ensemble(17);
  ModelRegistry registry(fresh_registry_root("reg_service"));
  const std::string id = registry.publish(ensemble);
  const EstimationService service =
      EstimationService::from_registry(registry, id);
  EXPECT_EQ(service.metric_count(), ensemble.metric_count());

  const std::string csv = temp_path("reg_service.csv");
  {
    std::ofstream out(csv);
    mixed_workload(7).save_csv(out);
  }
  const std::vector<std::string> paths = {csv};
  const auto results = service.estimate_files(paths);
  ASSERT_TRUE(results[0].ok());
  expect_identical(ensemble.estimate(DatasetView(mixed_workload(7))),
                   *results[0].estimate);
}

TEST(EngineServe, CompileV3PublishAndResolveStages) {
  const Ensemble ensemble = trained_ensemble(17);
  const std::string model_path = temp_path("engine_v4_src.bin");
  save_model_v3_file(ensemble, model_path);
  const std::string csv_path = temp_path("engine_v3.csv");
  {
    std::ofstream out(csv_path);
    mixed_workload(7).save_csv(out);
  }
  const std::string root = fresh_registry_root("reg_engine");
  const std::string image_path = temp_path("engine_out.bin");

  // Train-side: load, write an image, publish to the registry.
  pipeline::Engine producer;
  producer.load_model(model_path).compile_v3(image_path).publish(root);
  const std::string id = producer.context().published_id;
  ASSERT_EQ(id.size(), 16u);
  EXPECT_NO_THROW(MappedModel::map_file(image_path));

  // Serve-side: resolve by content id, estimate through the mapping.
  pipeline::Engine consumer;
  consumer.resolve_model(root, id).estimate_batch({csv_path});
  ASSERT_NE(consumer.context().model, nullptr);
  ASSERT_TRUE(consumer.context().ensemble.has_value());
  ASSERT_EQ(consumer.context().batch_results.size(), 1u);
  ASSERT_TRUE(consumer.context().batch_results[0].ok());
  expect_identical(ensemble.estimate(DatasetView(mixed_workload(7))),
                   *consumer.context().batch_results[0].estimate);
}

// --------------------------------------------------------------------------
// Lint over v4 images
// --------------------------------------------------------------------------

TEST(LintV3, CleanV3ArtifactLintsClean) {
  const Ensemble ensemble = trained_ensemble(17);
  const std::string path = temp_path("lint_v4.bin");
  save_model_v3_file(ensemble, path);
  const auto report = lint::lint_model_file(path);
  EXPECT_TRUE(report.clean()) << report.describe();
  EXPECT_EQ(report.metrics_scanned, ensemble.metric_count());
}

TEST(LintV3, FlatCorruptionGetsTypedFinding) {
  const Ensemble ensemble = trained_ensemble(17);
  std::string bytes = model_v3_bytes(ensemble);
  const auto layout = model::bin::check_flat_region(as_span(bytes));
  bytes[layout.section(model::bin::Section::kX1).offset + 5] ^= 0x02;
  const std::string path = temp_path("lint_v4_bad.bin");
  write_file(path, bytes);

  const auto report = lint::lint_model_file(path);
  EXPECT_TRUE(report.has_errors());
  ASSERT_EQ(report.count("flat-structure"), 1u) << report.describe();
  for (const auto& finding : report.findings) {
    if (finding.rule_id == "flat-structure") {
      EXPECT_NE(finding.message.find("x1"), std::string::npos)
          << finding.message;
    }
  }
}

}  // namespace
}  // namespace spire::serve
