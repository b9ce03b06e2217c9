// util/hash.h: the three byte hashes and their contracts.
//
//  * xxh64 — the serving workload key. Known answers from the reference
//    algorithm, and every length 0..96 so each 32-byte stripe, 8-byte,
//    4-byte and 1-byte tail boundary is crossed.
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
// XXH64
// --------------------------------------------------------------------------

TEST(HashXxh64, KnownAnswers) {
  EXPECT_EQ(xxh64(""), 0xef46db3751d8e999ull);
  EXPECT_EQ(xxh64("abc"), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(xxh64("a"), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(xxh64("message digest"), 0x066ed728fceeb3beull);
  EXPECT_EQ(xxh64("abcdefghijklmnopqrstuvwxyz"), 0xcfe1f278fa89835cull);
  EXPECT_EQ(xxh64("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                  "0123456789"),
            0xaaa46907d3047814ull);
  EXPECT_EQ(xxh64("1234567890123456789012345678901234567890"
                  "1234567890123456789012345678901234567890"),
            0xe04a477f19ee145dull);
  EXPECT_EQ(xxh64("abc", 1), 0xbea9ca8199328908ull);
}

TEST(HashXxh64, EveryTailBoundaryUpTo96Bytes) {
  // XXH64 of the first n bytes of a fixed pattern, from the reference
  // algorithm: n < 32 takes the short path, and every n crosses a
  // different mix of the 32-byte stripe loop and the 8-, 4- and 1-byte
  // tails.
  static constexpr std::array<std::uint64_t, 97> kExpected = {
      0xef46db3751d8e999ull, 0xad10cd9780ac4ff7ull, 0xb22635899e8f2235ull,
      0x40626d96276e4594ull, 0x882207c122c76e23ull, 0xa3da885eec618bb4ull,
      0xad9c2ecd863325f1ull, 0xcfc90033aa9dac4full, 0x90fda2f089fa86deull,
      0x1f78e316a793067aull, 0xf0b4fe8eba8ed80cull, 0x46bcdc0241342ddcull,
      0x940e6cb5b273abc9ull, 0x058adf388f92cf5aull, 0x10def9408326fa05ull,
      0xa97fe2df2054eaecull, 0x16c669fcadf3d9b8ull, 0xed1adb7d386e9024ull,
      0xd659eb5d9ca2482dull, 0x8cc42afb42a22846ull, 0x759da5cc025233b5ull,
      0x9c7a30049a6a0981ull, 0x67cebf41f79b4f33ull, 0x5981a8eb506722a5ull,
      0x63f92f6ef8a83269ull, 0xe080bb209931d2dbull, 0x8f94291bf95a917aull,
      0xfbe2fbf0e02577a4ull, 0x61b24e79a4b75b52ull, 0x191e1b21e8fab9d9ull,
      0x03cd7cb29c300fc1ull, 0xef611567be989431ull, 0x8b8a6388430846bdull,
      0x5fa8ff8718d5077cull, 0x24b3900aa42c5220ull, 0x1d0b5e436a4eafc3ull,
      0x6cb02faf1b6957bbull, 0x918e7388111340dbull, 0x12c286b688e594b2ull,
      0x443aaecd7b61beaeull, 0xbe8585be6a2fb9b7ull, 0x3746c0360441566eull,
      0x143ee6218a654411ull, 0xae8bc5ee22b75bfaull, 0x19a2643a6358088cull,
      0x4eedea166fd70942ull, 0xdf65c6016b5f61cfull, 0x2ae3f11933a5b482ull,
      0xd6a920ab2abcb8c3ull, 0xc08042cb2ec0f8d6ull, 0x984fd226561f63ffull,
      0xa8ae4d842f7952cdull, 0x52fe09bc32f22ca2ull, 0xcecd4d4a9d900f71ull,
      0x1fa6ccb45df27628ull, 0x5e53232ca749861aull, 0xa7fc00df26ef901bull,
      0x6b5afe31df3c6882ull, 0x94ae3ab52603966bull, 0x1e4efa043015416aull,
      0x49415f6ccbf4bbd3ull, 0xc6e86f8ba028c8a4ull, 0x2328028a6f6aded0ull,
      0xa2e458027ca40dedull, 0x020f4789bde9b770ull, 0xc25808eb30fb3574ull,
      0x4ca296fb068385a7ull, 0x0106d7856eb584c3ull, 0xbf32c2865469d75full,
      0xa68373fdde2893f0ull, 0x954fe6980a55bd83ull, 0x5c0961e52eda82f9ull,
      0xd47af65a2937c807ull, 0x196eb5cc2dade718ull, 0xf029a36717d1603bull,
      0x6a5c70fa3b3f0cd9ull, 0x4dcfb67f0d49896bull, 0x9bd7ab46e65d110eull,
      0x68c35fdc71fa8ad3ull, 0x128eb166bf543718ull, 0x5e1041e32f4790a2ull,
      0x5c02ab95fb8b126eull, 0xee739d993bb544e7ull, 0x741124d4b7acccbbull,
      0x8c88aec97f93102cull, 0x9d98552e5b962ef9ull, 0x9aee4b28807acc3bull,
      0xaa5431877bf20fadull, 0x284b4cca3c772e86ull, 0xae6bf4a07e98548aull,
      0x16def89024c67592ull, 0x04c00f253d00a41full, 0x9d893ac86d53a9cfull,
      0x911fcac0d339371bull, 0x330fac18bb56ae41ull, 0x2b7f7d39e7a0f780ull,
      0x1cfb7e1016f6392bull,
  };
  std::vector<std::byte> pattern(kExpected.size());
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::byte>(((i * 131 + 17) ^ (i >> 3)) & 0xFFu);
  }
  for (std::size_t n = 0; n < kExpected.size(); ++n) {
    const std::span<const std::byte> prefix(pattern.data(), n);
    EXPECT_EQ(xxh64(prefix), kExpected[n]) << "length " << n;
    // The string_view overload hashes the same bytes.
    EXPECT_EQ(xxh64(std::string_view(
                  reinterpret_cast<const char*>(pattern.data()), n)),
              kExpected[n])
        << "length " << n;
  }
  const std::uint64_t seed = 0x9E3779B97F4A7C15ull;
  EXPECT_EQ(xxh64(std::span<const std::byte>(pattern.data(), 96), seed),
            0x75ae516022e1d60aull);
  EXPECT_EQ(xxh64(std::span<const std::byte>(pattern.data(), 37), seed),
            0x2555929951bf0ce4ull);
}

TEST(HashXxh64, IsTheServingWorkloadKey) {
  // The one key the memo cache and the profile cache share.
  const std::string csv = "metric,time,p,intensity\nIDQ.DSB_UOPS,1,2,3\n";
  EXPECT_EQ(serve::EstimateCache::workload_hash(csv), xxh64(csv));
  EXPECT_NE(xxh64(csv), fnv1a64(csv));
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
