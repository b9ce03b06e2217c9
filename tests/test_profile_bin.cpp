// spire-profile-bin v1 and the parsed-profile cache.
//
// The binary workload format is request-path attack surface: every byte of
// it arrives over a socket. These tests pin the three properties the wire
// path depends on:
//
//  * lossless: CSV <-> binary conversion round-trips every double
//    bit-exactly, and compile() is canonical (byte-identical output for
//    equal inputs, fixpoint under decompile/compile);
//  * hardened: every structural defect — bad magic, oversized counts,
//    cross-check mismatches, flipped bits under the CRCs, truncation at
//    any prefix — is rejected with a "profile-bin:" diagnostic naming the
//    section and byte offset, never a crash or wild read (the fuzz suite
//    mirrors FuzzModelBin);
//  * bit-identical evaluation: an estimate through the zero-copy parsed
//    view equals the estimate through the Dataset the CSV path builds,
//    both on the aligned (aliasing) and misaligned (owned-copy) parse
//    paths. The CI matrix runs this at SIMD ON and OFF.
//
// ProfileCache gets the same treatment EstimateCache did: LRU discipline,
// the capacity bound, zero-capacity disable, and counter truthfulness.
#include "serve/profile_bin.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "counters/events.h"
#include "quality/fault_injector.h"
#include "sampling/dataset.h"
#include "sampling/dataset_view.h"
#include "serve/estimate_cache.h"
#include "serve/profile_cache.h"
#include "spire/ensemble.h"
#include "util/hash.h"
#include "util/rng.h"

namespace spire::serve {
namespace {

using counters::Event;
using sampling::Dataset;
using sampling::DatasetView;

Dataset mixed_workload(std::uint64_t seed, int per_metric = 40) {
  util::Rng rng(seed);
  Dataset d;
  for (Event metric : {Event::kIdqDsbUops, Event::kLsdUops,
                       Event::kBrMispRetiredAllBranches,
                       Event::kLongestLatCacheMiss}) {
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

model::Ensemble trained_ensemble(std::uint64_t seed) {
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
  return model::Ensemble::train(train);
}

// --------------------------------------------------------------------------
// Lossless, canonical conversion
// --------------------------------------------------------------------------

TEST(ProfileBin, CompileParseRoundTripsEverySampleBitExactly) {
  const Dataset data = mixed_workload(7);
  const std::string bytes = profile_bin::compile(DatasetView(data));
  ASSERT_TRUE(profile_bin::looks_like(bytes));

  const profile_bin::ProfileView parsed = profile_bin::parse(bytes);
  EXPECT_EQ(parsed.samples(), data.size());
  const DatasetView original(data);
  ASSERT_EQ(parsed.view().metrics(), original.metrics());
  for (const Event metric : original.metrics()) {
    const auto want = original.samples(metric);
    const auto got = parsed.view().samples(metric);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      // memcmp, not ==: bit-exact doubles, including signed zeros.
      EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof want[i]), 0);
    }
  }
  // std::string heap storage is at least 8-aligned on every platform we
  // build for, so the happy path must alias the buffer, not copy it.
  if (reinterpret_cast<std::uintptr_t>(bytes.data()) % 8 == 0) {
    EXPECT_TRUE(parsed.zero_copy());
  }
}

TEST(ProfileBin, CompileIsCanonicalAndAFixpointUnderDecompile) {
  const Dataset data = mixed_workload(11);
  const std::string first = profile_bin::compile(DatasetView(data));
  const std::string second = profile_bin::compile(DatasetView(data));
  EXPECT_EQ(first, second) << "compile is not deterministic";

  const Dataset back = profile_bin::decompile(first);
  EXPECT_EQ(back.size(), data.size());
  EXPECT_EQ(profile_bin::compile(DatasetView(back)), first)
      << "decompile/compile is not a fixpoint";
}

TEST(ProfileBin, CsvAndBinaryConversionIsLosslessBothWays) {
  const Dataset data = mixed_workload(13);
  const std::string binary = profile_bin::compile(DatasetView(data));

  // binary -> CSV -> binary: the CSV writer prints round-trippable
  // precision, so the recompiled profile is byte-identical.
  std::ostringstream csv;
  profile_bin::decompile(binary).save_csv(csv);
  const Dataset reparsed = Dataset::load_csv(std::string_view(csv.str()));
  EXPECT_EQ(profile_bin::compile(DatasetView(reparsed)), binary);
}

TEST(ProfileBin, MisalignedBufferFallsBackToOneOwnedCopy) {
  const Dataset data = mixed_workload(17, 10);
  const std::string bytes = profile_bin::compile(DatasetView(data));
  // Shift the profile to an odd address: the samples section can no longer
  // be aliased as f64 triples, so the parser must copy — and the view must
  // still carry identical samples.
  std::string shifted = "x" + bytes;
  const std::string_view misaligned(shifted.data() + 1, bytes.size());
  const profile_bin::ProfileView parsed = profile_bin::parse(misaligned);
  EXPECT_FALSE(parsed.zero_copy());
  const DatasetView original(data);
  for (const Event metric : original.metrics()) {
    const auto want = original.samples(metric);
    const auto got = parsed.view().samples(metric);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof want[i]), 0);
    }
  }
}

// --------------------------------------------------------------------------
// Hardened parse: structured rejection, bounded before allocation
// --------------------------------------------------------------------------

/// Expects parse() to throw a "profile-bin:" diagnostic mentioning
/// `section` (and always an offset — the substring "offset" is part of the
/// uniform message shape).
void expect_rejected(const std::string& bytes, const char* section,
                     const profile_bin::Limits& limits = {}) {
  try {
    (void)profile_bin::parse(bytes, limits);
    FAIL() << "defective profile accepted (wanted " << section
           << " rejection)";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("profile-bin:", 0), 0u) << what;
    EXPECT_NE(what.find(section), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
  }
}

TEST(ProfileBin, RejectsEveryHeaderDefectWithSectionAndOffset) {
  const Dataset data = mixed_workload(19, 5);
  const std::string clean = profile_bin::compile(DatasetView(data));
  auto mutate = [&](std::size_t offset, unsigned char value) {
    std::string bad = clean;
    bad[offset] = static_cast<char>(value);
    return bad;
  };

  expect_rejected(mutate(0, 'X'), "header");                // magic
  expect_rejected(mutate(8, 9), "header");                  // version
  expect_rejected(mutate(12, 0xff), "header");              // metric_count
  expect_rejected(mutate(16, 0xff), "header");              // total_samples
  expect_rejected(mutate(36, 1), "header");                 // reserved
  expect_rejected(clean.substr(0, 17), "header");           // truncated header
  expect_rejected(clean.substr(0, clean.size() - 8), "header");  // short file
  expect_rejected(clean + "tail", "header");                // trailing bytes
}

TEST(ProfileBin, CrcsCatchBitCorruptionInNamesAndSamples) {
  const Dataset data = mixed_workload(23, 5);
  const std::string clean = profile_bin::compile(DatasetView(data));
  const std::size_t dir_end =
      profile_bin::kHeaderBytes +
      DatasetView(data).metrics().size() * profile_bin::kDirEntryBytes;

  // One flipped bit in the names section: meta CRC trips.
  std::string bad_names = clean;
  bad_names[dir_end] ^= 0x20;
  expect_rejected(bad_names, "names");

  // One flipped bit in the last sample: samples CRC trips.
  std::string bad_samples = clean;
  bad_samples[clean.size() - 1] ^= 0x01;
  expect_rejected(bad_samples, "samples");

  // kStructure skips the CRCs by design: the same corrupt bytes parse.
  EXPECT_NO_THROW((void)profile_bin::parse(bad_samples, {},
                                           profile_bin::Verify::kStructure));
}

TEST(ProfileBin, LimitsBoundTheParseBeforeAnyAllocation) {
  const Dataset data = mixed_workload(29, 8);
  const std::string clean = profile_bin::compile(DatasetView(data));

  profile_bin::Limits tight;
  tight.max_samples = 3;  // the profile carries 32
  expect_rejected(clean, "header", tight);

  profile_bin::Limits narrow;
  narrow.max_metrics = 1;  // the profile carries 4
  expect_rejected(clean, "header", narrow);

  profile_bin::Limits short_names;
  short_names.max_name_bytes = 2;
  expect_rejected(clean, "", short_names);
}

class FuzzProfileBin : public ::testing::TestWithParam<int> {};

TEST_P(FuzzProfileBin, MutatedProfilesParseOrThrowStructured) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 48'611 + 3);
  const Dataset data = mixed_workload(static_cast<std::uint64_t>(GetParam()));
  const std::string clean = profile_bin::compile(DatasetView(data));

  for (int round = 0; round < 25; ++round) {
    const std::string mutated =
        rng.chance(0.5) ? quality::flip_bits(clean, rng, 1 + rng.below(8))
                        : quality::truncate_tail(clean, rng);
    try {
      const profile_bin::ProfileView parsed = profile_bin::parse(mutated);
      // Full verification passed: whatever survived the CRCs must still be
      // a well-formed profile — recompiling its decompiled form is a
      // fixpoint (raw double bits travel unchanged).
      (void)parsed;
      const Dataset back = profile_bin::decompile(mutated);
      const std::string recompiled = profile_bin::compile(DatasetView(back));
      EXPECT_EQ(profile_bin::compile(
                    DatasetView(profile_bin::decompile(recompiled))),
                recompiled);
    } catch (const std::runtime_error& e) {
      // Rejection must be the parser's own diagnostic — section + offset —
      // never a crash, hang, or over-allocation.
      EXPECT_EQ(std::string(e.what()).rfind("profile-bin:", 0), 0u)
          << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzProfileBin, ::testing::Range(1, 13));

// --------------------------------------------------------------------------
// Bit-identical evaluation through the zero-copy view
// --------------------------------------------------------------------------

TEST(ProfileBin, EstimateThroughBinaryViewMatchesCsvPathBitExactly) {
  const model::Ensemble ensemble = trained_ensemble(17);
  for (std::uint64_t seed = 3; seed < 8; ++seed) {
    const Dataset data = mixed_workload(seed);

    // The CSV path: text -> Dataset -> view (what the text protocol does).
    std::ostringstream csv;
    data.save_csv(csv);
    const Dataset from_csv = Dataset::load_csv(std::string_view(csv.str()));
    const model::Estimate via_csv = ensemble.estimate(DatasetView(from_csv));

    // The binary path: compiled bytes -> zero-copy view, no Dataset.
    const std::string binary = profile_bin::compile(DatasetView(data));
    const profile_bin::ProfileView parsed = profile_bin::parse(binary);
    const model::Estimate via_bin = ensemble.estimate(parsed.view());

    EXPECT_EQ(via_bin.throughput, via_csv.throughput);  // bit-identical
    ASSERT_EQ(via_bin.ranking.size(), via_csv.ranking.size());
    for (std::size_t i = 0; i < via_bin.ranking.size(); ++i) {
      EXPECT_EQ(via_bin.ranking[i].metric, via_csv.ranking[i].metric);
      EXPECT_EQ(via_bin.ranking[i].p_bar, via_csv.ranking[i].p_bar);
      EXPECT_EQ(via_bin.ranking[i].samples, via_csv.ranking[i].samples);
    }

    // The misaligned owned-copy fallback evaluates identically too.
    std::string shifted = "x" + binary;
    const profile_bin::ProfileView copied = profile_bin::parse(
        std::string_view(shifted.data() + 1, binary.size()));
    EXPECT_EQ(ensemble.estimate(copied.view()).throughput,
              via_csv.throughput);
  }
}

// --------------------------------------------------------------------------
// Column names: the exact rejection texts and offsets
// --------------------------------------------------------------------------

/// A profile whose columns carry `names` in the given order, one sample
/// each, with correct CRCs, so only the names can be at fault.
std::string profile_with_names(const std::vector<std::string>& names) {
  const auto u32 = [](std::string& out, std::uint32_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  const auto u64 = [](std::string& out, std::uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  std::size_t names_bytes = 0;
  for (const std::string& name : names) names_bytes += name.size();
  std::string out;
  u64(out, profile_bin::kMagic);
  u32(out, profile_bin::kFormatVersion);
  u32(out, static_cast<std::uint32_t>(names.size()));
  u64(out, names.size());  // one sample per column
  u32(out, static_cast<std::uint32_t>(names_bytes));
  u32(out, 0);  // meta CRC, patched below
  u32(out, 0);  // samples CRC, patched below
  u32(out, 0);  // reserved
  for (const std::string& name : names) {
    u32(out, static_cast<std::uint32_t>(name.size()));
    u32(out, 0);
    u64(out, 1);
  }
  for (const std::string& name : names) out += name;
  out.append((8 - out.size() % 8) % 8, '\0');
  const std::size_t samples_offset = out.size();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const double sample[3] = {1.0, 2.0, 0.5};
    out.append(reinterpret_cast<const char*>(sample), sizeof sample);
  }
  const std::string_view view(out);
  const std::uint32_t meta = util::crc32(view.substr(
      profile_bin::kHeaderBytes, samples_offset - profile_bin::kHeaderBytes));
  const std::uint32_t samples = util::crc32(view.substr(samples_offset));
  std::memcpy(out.data() + 28, &meta, sizeof meta);
  std::memcpy(out.data() + 32, &samples, sizeof samples);
  return out;
}

/// Byte offset of column `column`'s name in profile_with_names(names).
std::size_t name_offset(const std::vector<std::string>& names,
                        std::size_t column) {
  std::size_t offset =
      profile_bin::kHeaderBytes + names.size() * profile_bin::kDirEntryBytes;
  for (std::size_t i = 0; i < column; ++i) offset += names[i].size();
  return offset;
}

/// The full text parse() throws for `bytes`, or "" when it accepts them.
std::string rejection(const std::string& bytes) {
  try {
    (void)profile_bin::parse(bytes);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ProfileBin, CatalogOrderedNamesParse) {
  const std::vector<std::string> names = {
      std::string(counters::event_name(Event::kIdqDsbUops)),
      std::string(counters::event_name(Event::kLsdUops)),
      std::string(counters::event_name(Event::kLongestLatCacheMiss))};
  const profile_bin::ProfileView profile =
      profile_bin::parse(profile_with_names(names));
  EXPECT_EQ(profile.view().metrics(),
            (std::vector<Event>{Event::kIdqDsbUops, Event::kLsdUops,
                                Event::kLongestLatCacheMiss}));
}

TEST(ProfileBin, RejectsAnUnknownMetricNameWithItsOffset) {
  const std::vector<std::string> names = {
      std::string(counters::event_name(Event::kIdqDsbUops)),
      "no_such.event",
      std::string(counters::event_name(Event::kLsdUops))};
  EXPECT_EQ(rejection(profile_with_names(names)),
            "profile-bin: unknown metric 'no_such.event' (section names, "
            "offset " +
                std::to_string(name_offset(names, 1)) + ")");
}

TEST(ProfileBin, RejectsADuplicateMetricNameWithItsOffset) {
  const std::string lsd(counters::event_name(Event::kLsdUops));
  const std::vector<std::string> names = {
      std::string(counters::event_name(Event::kIdqDsbUops)), lsd, lsd};
  EXPECT_EQ(rejection(profile_with_names(names)),
            "profile-bin: metric '" + lsd +
                "' out of catalog order (columns must be unique and "
                "catalog-ordered) (section names, offset " +
                std::to_string(name_offset(names, 2)) + ")");
}

TEST(ProfileBin, RejectsAnOutOfOrderMetricNameWithItsOffset) {
  const std::string dsb(counters::event_name(Event::kIdqDsbUops));
  const std::vector<std::string> names = {
      std::string(counters::event_name(Event::kLongestLatCacheMiss)), dsb};
  EXPECT_EQ(rejection(profile_with_names(names)),
            "profile-bin: metric '" + dsb +
                "' out of catalog order (columns must be unique and "
                "catalog-ordered) (section names, offset " +
                std::to_string(name_offset(names, 1)) + ")");
}

// --------------------------------------------------------------------------
// ProfileCache: LRU discipline, bounds, counters
// --------------------------------------------------------------------------

std::shared_ptr<const ParsedProfile> parsed_profile(std::uint64_t seed) {
  return ParsedProfile::make(mixed_workload(seed, 3));
}

TEST(ProfileCache, LruRefreshOnHitEvictsTheColdestEntry) {
  ProfileCache cache(/*capacity=*/2);
  cache.insert(1, parsed_profile(1));
  cache.insert(2, parsed_profile(2));
  ASSERT_NE(cache.lookup(1), nullptr);  // refresh: 2 is now coldest
  cache.insert(3, parsed_profile(3));   // evicts 2
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);

  const ProfileCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ProfileCache, EvictionNeverInvalidatesALiveReference) {
  ProfileCache cache(1);
  cache.insert(1, parsed_profile(1));
  const std::shared_ptr<const ParsedProfile> held = cache.lookup(1);
  ASSERT_NE(held, nullptr);
  cache.insert(2, parsed_profile(2));  // evicts hash 1 from the cache
  EXPECT_EQ(cache.lookup(1), nullptr);
  // ...but the shared_ptr the "batch" still holds stays fully usable.
  EXPECT_GT(held->view.metrics().size(), 0u);
  EXPECT_EQ(held->data.size(), held->view.size());
}

TEST(ProfileCache, ZeroCapacityDisablesWithoutCounting) {
  ProfileCache cache(0);
  cache.insert(1, parsed_profile(1));
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ProfileCache, CapacityBoundsTheTotalUnderManyInserts) {
  ProfileCache cache(/*capacity=*/8);
  for (std::uint64_t h = 1; h <= 64; ++h) {
    cache.insert(h, parsed_profile(h));
  }
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.stats().evictions, 64u - 8u);
}

TEST(ProfileCache, KeysMatchTheWireHashTheServerComputes) {
  // The cache is keyed on EstimateCache::workload_hash of the exact
  // workload bytes — the key the estimate memo-cache derives — so parse
  // results are shared across the two layers without re-hashing.
  const Dataset data = mixed_workload(31, 3);
  std::ostringstream csv;
  data.save_csv(csv);
  const std::uint64_t key = EstimateCache::workload_hash(csv.str());

  ProfileCache cache(4);
  cache.insert(key, ParsedProfile::make(Dataset::load_csv(
                        std::string_view(csv.str()))));
  const auto hit = cache.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->data.size(), data.size());
}

}  // namespace
}  // namespace spire::serve
