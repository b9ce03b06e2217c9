// util/hash.h: the three byte hashes and their contracts.
//
//  * wyhash64 — the serving workload key. Known answers from the reference
//    algorithm, outputs frozen at every length 0..64 (each short-input,
//    16-byte and 48-byte stripe boundary) and at 100, 1000 and 310,000
//    bytes, every bit of the input reaching the result, and no dependence
//    on alignment.
//  * crc32 — the artifact and wire checksum. Its two arms (slicing-by-8
//    table, carry-less-multiply fold) must agree bit for bit on every
//    length, alignment and start state, one-shot and streamed in chunks.
//  * fnv1a64_hex — registry ids, which name files on disk: pinned to
//    literals so a change to the function fails here, not in a registry.
#include "util/hash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "serve/estimate_cache.h"
#include "util/hash_detail.h"
#include "util/rng.h"

namespace spire::util {
namespace {

std::vector<std::byte> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::byte> out(n);
  for (std::byte& b : out) b = static_cast<std::byte>(rng.next() & 0xFFu);
  return out;
}

// --------------------------------------------------------------------------
// wyhash64
// --------------------------------------------------------------------------

std::vector<std::byte> pattern_bytes(std::size_t n) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::byte>(((i * 131 + 17) ^ (i >> 3)) & 0xFFu);
  }
  return out;
}

TEST(HashWyhash, ReferenceVectors) {
  // The reference implementation's test vectors: message i under seed i.
  EXPECT_EQ(wyhash64("", 0), 0x93228a4de0eec5a2ull);
  EXPECT_EQ(wyhash64("a", 1), 0xc5bac3db178713c4ull);
  EXPECT_EQ(wyhash64("abc", 2), 0xa97f2f7b1d9b3314ull);
  EXPECT_EQ(wyhash64("message digest", 3), 0x786d1f1df3801df4ull);
  EXPECT_EQ(wyhash64("abcdefghijklmnopqrstuvwxyz", 4), 0xdca5a8138ad37c87ull);
  EXPECT_EQ(wyhash64("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                     "0123456789",
                     5),
            0xb9e734f117cfaf70ull);
  EXPECT_EQ(wyhash64("1234567890123456789012345678901234567890"
                     "1234567890123456789012345678901234567890",
                     6),
            0x6cc5eab49a92d617ull);
}

TEST(HashWyhash, PinnedOutputsAtEveryTailLength) {
  // Seed 0 (the workload key) over the first n bytes of a fixed pattern,
  // computed once and frozen: n <= 16 takes the short reads, 17..48 the
  // 16-byte loop, and longer inputs the three-lane 48-byte stripes with
  // every remainder.
  static constexpr std::array<std::uint64_t, 68> kExpected = {
      0x93228a4de0eec5a2ull, 0x1cc099d21fc723d6ull, 0x8f0e342ba4b7d963ull,
      0x231f56b3d7c89346ull, 0x337080986971a0b2ull, 0xa671a9712dfd9bbdull,
      0xf8b877892073af56ull, 0xc0b45ebd7af884c3ull, 0x5e56e5b8209cf2ccull,
      0xa4992e148e1bcc3eull, 0xff4312a1c7d05d7bull, 0x565effa24867b696ull,
      0x46d1d6d91723edf0ull, 0x5da8934835c91937ull, 0x9ac141d39ac054edull,
      0xb6f4cb05e625a81dull, 0xdd0d3762c7ce088bull, 0x4d83c527a063ea3aull,
      0x07d9297746fb09e0ull, 0xa851f93f43270738ull, 0x967af56beb2ee3fbull,
      0xc47e901e549537c2ull, 0xe8934b95be1578f2ull, 0x45afdd9ba3572460ull,
      0xbdd8b1da9604a0f8ull, 0xf7cc923b8f6e3ad9ull, 0x3087d7fcbb0d78e9ull,
      0x1af1010b77994b39ull, 0x9e713e2e786f4c63ull, 0xde8b37fbfa6d318cull,
      0xa47eba79ee0ecfe8ull, 0x31e2ca3865044ee4ull, 0x83517dfc700cb0c0ull,
      0x67a9e9252bbc91dfull, 0xf2563d94cde9fc90ull, 0x7f4145d62c6adc68ull,
      0x89dcec50cca4fa40ull, 0x336d36a0e5f9f674ull, 0x28d7b463290f29abull,
      0x115b118de6aabf73ull, 0xef14e23416ba9a36ull, 0x45cc9ccba6350e9eull,
      0x56fa27dc85367c87ull, 0x07aed284f211a9f5ull, 0x2c013b44ade4735eull,
      0xd1da53c7b8a569f0ull, 0xf2649bb39d695e66ull, 0xfadcde8ffda5eb6full,
      0xb62edc6f3a6c0bc8ull, 0x6302d009c6a4572bull, 0x38fea599cf75817eull,
      0xdfd043ef62fdf92eull, 0x9c0f4bbd3359181full, 0x1ec125a3436c1dbfull,
      0x6c301c0763544ca7ull, 0xc027652d54932da1ull, 0x28ff623d08b5e527ull,
      0xe11c4b007817f0a6ull, 0x0c20ddec7e171e2bull, 0x3d66f5d74e2f63c0ull,
      0x23c19a703b5bf7d2ull, 0x6d249a457ecfedcaull, 0x6eea9bd9b4135a49ull,
      0xa42acd9255486961ull, 0x997a612aef14b3f7ull, 0x697f0bc11b3d9c71ull,
      0xdf27f732c2241894ull, 0x03b4f0df4dff8816ull,
  };
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.insert(lengths.end(), {100, 1000, 310000});
  ASSERT_EQ(lengths.size(), kExpected.size());
  const std::vector<std::byte> pattern = pattern_bytes(310000);
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    const std::size_t n = lengths[i];
    EXPECT_EQ(wyhash64(std::span<const std::byte>(pattern.data(), n)),
              kExpected[i])
        << "length " << n;
    // The string_view overload hashes the same bytes.
    EXPECT_EQ(wyhash64(std::string_view(
                  reinterpret_cast<const char*>(pattern.data()), n)),
              kExpected[i])
        << "length " << n;
  }
}

TEST(HashWyhash, EverySingleBitFlipChangesTheHash) {
  std::vector<std::byte> bytes = pattern_bytes(1024);
  const std::uint64_t base = wyhash64(bytes);
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    const std::byte mask{static_cast<unsigned char>(1u << (bit % 8))};
    bytes[bit / 8] ^= mask;
    ASSERT_NE(wyhash64(bytes), base) << "bit " << bit;
    bytes[bit / 8] ^= mask;
  }
}

TEST(HashWyhash, SameResultAtEveryAlignment) {
  Rng rng(31);
  const std::vector<std::byte> source = random_bytes(rng, 4096);
  for (const std::size_t n : {0u, 3u, 16u, 17u, 48u, 49u, 97u, 1000u, 4096u}) {
    const std::uint64_t expected =
        wyhash64(std::span<const std::byte>(source.data(), n));
    std::vector<std::byte> shifted(n + 16);
    for (std::size_t offset = 0; offset < 16; ++offset) {
      std::copy_n(source.begin(), n, shifted.begin() + offset);
      const std::span<const std::byte> bytes(shifted.data() + offset, n);
      EXPECT_EQ(wyhash64(bytes), expected)
          << "length " << n << " offset " << offset;
    }
  }
}

TEST(HashWyhash, NoCollisionAmongNearDuplicateCsvRows) {
  // Two million rows that differ from their neighbours in a digit or two,
  // the shape of the text workloads the key tells apart.
  std::vector<std::uint64_t> hashes;
  hashes.reserve(2'000'000);
  std::string row;
  for (std::uint32_t i = 0; i < 2'000'000; ++i) {
    row = "idq.dsb_uops,50000," + std::to_string(i % 1000) + "," +
          std::to_string(i / 1000) + ".5\n";
    hashes.push_back(wyhash64(row));
  }
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end());
}

TEST(HashWyhash, PortableProductMatchesTheCompilers) {
  Rng rng(128);
  std::vector<std::uint64_t> values = {0, 1, 0xFFFFFFFFull, 0x100000000ull,
                                       ~std::uint64_t{0}};
  for (int i = 0; i < 2000; ++i) values.push_back(rng.next());
  for (const std::uint64_t a : values) {
    for (std::size_t j = 0; j < 8; ++j) {
      const std::uint64_t b = values[(j * 257 + a) % values.size()];
      const detail::Product128 product = detail::mul128_portable(a, b);
      EXPECT_EQ(product.lo, a * b);
#if defined(__SIZEOF_INT128__)
      const unsigned __int128 wide = static_cast<unsigned __int128>(a) * b;
      ASSERT_EQ(product.hi, static_cast<std::uint64_t>(wide >> 64))
          << a << " * " << b;
#endif
    }
  }
  // (2^64 - 1)^2 = 2^128 - 2^65 + 1.
  const detail::Product128 top =
      detail::mul128_portable(~std::uint64_t{0}, ~std::uint64_t{0});
  EXPECT_EQ(top.lo, 1u);
  EXPECT_EQ(top.hi, ~std::uint64_t{0} - 1);
}

TEST(HashWyhash, IsTheServingWorkloadKey) {
  // The one key the memo cache and the profile cache share.
  const std::string csv = "metric,time,p,intensity\nIDQ.DSB_UOPS,1,2,3\n";
  EXPECT_EQ(serve::EstimateCache::workload_hash(csv), wyhash64(csv));
  EXPECT_NE(wyhash64(csv), fnv1a64(csv));
}

// --------------------------------------------------------------------------
// CRC-32
// --------------------------------------------------------------------------

TEST(HashCrc32, KnownAnswers) {
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  std::string all(256, '\0');
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<char>(i);
  EXPECT_EQ(crc32(all), 0x29058C73u);
}

TEST(HashCrc32, DispatchPicksTheFoldWhereTheHostHasPclmul) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  EXPECT_EQ(detail::crc32_fold_supported(),
            __builtin_cpu_supports("pclmul") &&
                __builtin_cpu_supports("sse4.1"));
#else
  EXPECT_FALSE(detail::crc32_fold_supported());
#endif
}

TEST(HashCrc32, FoldMatchesTableOverEveryLengthAndAlignment) {
  if (!detail::crc32_fold_supported()) {
    GTEST_SKIP() << "no carry-less multiply on this host";
  }
  Rng rng(12);
  const std::vector<std::byte> buffer = random_bytes(rng, 1024 + 64);
  for (std::size_t offset = 0; offset < 64; ++offset) {
    const std::uint32_t start = offset % 2 == 0
                                    ? crc32_init()
                                    : static_cast<std::uint32_t>(rng.next());
    for (std::size_t n = 0; n <= 1024; ++n) {
      const std::span<const std::byte> bytes(buffer.data() + offset, n);
      const std::uint32_t table = detail::crc32_update_table(start, bytes);
      ASSERT_EQ(detail::crc32_update_fold(start, bytes), table)
          << "length " << n << " offset " << offset;
      ASSERT_EQ(crc32_update(start, bytes), table)
          << "length " << n << " offset " << offset;
    }
  }
}

TEST(HashCrc32, FoldMatchesTableOnLargeRandomBuffers) {
  if (!detail::crc32_fold_supported()) {
    GTEST_SKIP() << "no carry-less multiply on this host";
  }
  Rng rng(400);
  for (int round = 0; round < 8; ++round) {
    const std::size_t n = 400 * 1024 + static_cast<std::size_t>(
                                           rng.next() % 4096);
    const std::vector<std::byte> buffer = random_bytes(rng, n);
    const std::uint32_t start = static_cast<std::uint32_t>(rng.next());
    EXPECT_EQ(detail::crc32_update_fold(start, buffer),
              detail::crc32_update_table(start, buffer))
        << "round " << round << " length " << n;
    EXPECT_EQ(crc32(buffer),
              crc32_final(detail::crc32_update_table(crc32_init(), buffer)));
  }
}

TEST(HashCrc32, ChunkedStreamingEqualsOneShot) {
  // The v3 loader feeds crc32_update section by section: chunks below the
  // fold's 64-byte minimum and above it must compose to the one-shot CRC.
  Rng rng(77);
  const std::vector<std::byte> buffer = random_bytes(rng, 96 * 1024 + 13);
  const std::uint32_t whole = crc32(buffer);
  for (int round = 0; round < 16; ++round) {
    std::uint32_t streamed = crc32_init();
    std::uint32_t streamed_table = crc32_init();
    std::size_t at = 0;
    while (at < buffer.size()) {
      const std::size_t cap = round % 2 == 0 ? 100 : 5000;
      const std::size_t len = std::min<std::size_t>(
          buffer.size() - at, static_cast<std::size_t>(rng.next() % cap));
      const std::span<const std::byte> chunk(buffer.data() + at, len);
      streamed = crc32_update(streamed, chunk);
      streamed_table = detail::crc32_update_table(streamed_table, chunk);
      at += len;
    }
    EXPECT_EQ(crc32_final(streamed), whole) << "round " << round;
    EXPECT_EQ(crc32_final(streamed_table), whole) << "round " << round;
  }
}

// --------------------------------------------------------------------------
// FNV-1a (registry ids)
// --------------------------------------------------------------------------

TEST(HashFnv1a, RegistryIdsArePinned) {
  // A registry id names an object file; these literals are the ids every
  // existing registry was written with.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64_hex("spire registry id"), "229533716bf93ea8");
  std::string all(256, '\0');
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<char>(i);
  EXPECT_EQ(fnv1a64_hex(all), "4242dc5249c33625");
  EXPECT_EQ(fnv1a64_hex(""), "cbf29ce484222325");
}

}  // namespace
}  // namespace spire::util
