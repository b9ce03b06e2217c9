#include "util/hash.h"

#include <array>
#include <bit>
#include <cstring>

#include "util/contract.h"
#include "util/hash_detail.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SPIRE_CRC32_FOLD 1
#include <immintrin.h>
#else
#define SPIRE_CRC32_FOLD 0
#endif

namespace spire::util {

namespace {

constexpr std::uint32_t byteswap32(std::uint32_t v) {
  return (v >> 24) | ((v >> 8) & 0x0000FF00u) | ((v << 8) & 0x00FF0000u) |
         (v << 24);
}

// Little-endian loads: both the CRC and wyhash are defined over the bytes
// in memory order.
std::uint32_t load_le32(const std::byte* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  if constexpr (std::endian::native == std::endian::big) v = byteswap32(v);
  return v;
}

std::uint64_t load_le64(const std::byte* p) {
  return static_cast<std::uint64_t>(load_le32(p)) |
         (static_cast<std::uint64_t>(load_le32(p + 4)) << 32);
}

// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table;
// table[k][b] advances the CRC of byte b through k further zero bytes, so
// eight input bytes fold into the state with eight independent lookups per
// iteration instead of a serial chain of eight dependent ones. Roughly 5x
// the throughput of the one-table loop; it is the whole CRC on hosts
// without a carry-less multiply, and the tail of the fold on hosts with
// one.
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      table[k][i] =
          table[0][table[k - 1][i] & 0xFFu] ^ (table[k - 1][i] >> 8);
    }
  }
  return table;
}

#if SPIRE_CRC32_FOLD

// The fold starts from four 16-byte accumulators, so it needs at least
// this many bytes; shorter inputs take the table loop.
constexpr std::size_t kFoldMinBytes = 64;

__m128i load128(const std::byte* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Folds `n` bytes (n >= 64, n % 16 == 0) into the CRC register `state`:
// four 128-bit accumulators advance 64 bytes per step, fold into one, take
// the remaining 16-byte blocks, then reduce 128 -> 64 -> 32 bits with a
// Barrett step. Constants are x^k mod P(x) for the reflected IEEE
// polynomial, from the Intel paper's bit-reflected appendix (the ones zlib
// and Chromium use).
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold_blocks(
    std::uint32_t state, const std::byte* p, std::size_t n) {
  alignas(16) static constexpr std::uint64_t kK1K2[2] = {0x0154442bd4ull,
                                                         0x01c6e41596ull};
  alignas(16) static constexpr std::uint64_t kK3K4[2] = {0x01751997d0ull,
                                                         0x00ccaa009eull};
  alignas(16) static constexpr std::uint64_t kK5K0[2] = {0x0163cd6124ull, 0};
  alignas(16) static constexpr std::uint64_t kPolyMu[2] = {0x01db710641ull,
                                                           0x01f7011641ull};
  __m128i x1 = _mm_xor_si128(load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load128(p + 16);
  __m128i x3 = load128(p + 32);
  __m128i x4 = load128(p + 48);
  p += 64;
  n -= 64;

  // Each fold step multiplies an accumulator's two halves by their own
  // x^k mod P, which advances it past the next block, and adds the block.
  __m128i k = _mm_load_si128(reinterpret_cast<const __m128i*>(kK1K2));
  while (n >= 64) {
    const __m128i lo1 = _mm_clmulepi64_si128(x1, k, 0x00);
    const __m128i lo2 = _mm_clmulepi64_si128(x2, k, 0x00);
    const __m128i lo3 = _mm_clmulepi64_si128(x3, k, 0x00);
    const __m128i lo4 = _mm_clmulepi64_si128(x4, k, 0x00);
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k, 0x11), lo1);
    x2 = _mm_xor_si128(_mm_clmulepi64_si128(x2, k, 0x11), lo2);
    x3 = _mm_xor_si128(_mm_clmulepi64_si128(x3, k, 0x11), lo3);
    x4 = _mm_xor_si128(_mm_clmulepi64_si128(x4, k, 0x11), lo4);
    x1 = _mm_xor_si128(x1, load128(p));
    x2 = _mm_xor_si128(x2, load128(p + 16));
    x3 = _mm_xor_si128(x3, load128(p + 32));
    x4 = _mm_xor_si128(x4, load128(p + 48));
    p += 64;
    n -= 64;
  }

  // Four accumulators into one, then the remaining 16-byte blocks, all by
  // the one-block distance k3k4.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kK3K4));
  __m128i lo = _mm_clmulepi64_si128(x1, k, 0x00);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k, 0x11), lo);
  x1 = _mm_xor_si128(x1, x2);
  lo = _mm_clmulepi64_si128(x1, k, 0x00);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k, 0x11), lo);
  x1 = _mm_xor_si128(x1, x3);
  lo = _mm_clmulepi64_si128(x1, k, 0x00);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k, 0x11), lo);
  x1 = _mm_xor_si128(x1, x4);
  for (; n >= 16; p += 16, n -= 16) {
    lo = _mm_clmulepi64_si128(x1, k, 0x00);
    x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k, 0x11), lo);
    x1 = _mm_xor_si128(x1, load128(p));
  }

  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k, 0x10));
  k = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kK5K0));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x00),
      _mm_srli_si128(x1, 4));

  // Barrett reduction, 64 -> 32 bits.
  k = _mm_load_si128(reinterpret_cast<const __m128i*>(kPolyMu));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), k, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

#endif  // SPIRE_CRC32_FOLD

}  // namespace

namespace detail {

std::uint32_t crc32_update_table(std::uint32_t state,
                                 std::span<const std::byte> bytes) {
  static const std::array<std::array<std::uint32_t, 256>, 8> kTable =
      make_crc_tables();
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 8) {
    const std::uint32_t lo = load_le32(p) ^ state;
    const std::uint32_t hi = load_le32(p + 4);
    state = kTable[7][lo & 0xFFu] ^ kTable[6][(lo >> 8) & 0xFFu] ^
            kTable[5][(lo >> 16) & 0xFFu] ^ kTable[4][lo >> 24] ^
            kTable[3][hi & 0xFFu] ^ kTable[2][(hi >> 8) & 0xFFu] ^
            kTable[1][(hi >> 16) & 0xFFu] ^ kTable[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n--) {
    state =
        kTable[0][(state ^ static_cast<std::uint32_t>(*p++)) & 0xFFu] ^
        (state >> 8);
  }
  return state;
}

bool crc32_fold_supported() {
#if SPIRE_CRC32_FOLD
  static const bool ok = __builtin_cpu_supports("pclmul") &&
                         __builtin_cpu_supports("sse4.1");
  return ok;
#else
  return false;
#endif
}

std::uint32_t crc32_update_fold(std::uint32_t state,
                                std::span<const std::byte> bytes) {
#if SPIRE_CRC32_FOLD
  if (bytes.size() >= kFoldMinBytes) {
    const std::size_t folded = bytes.size() & ~std::size_t{15};
    state = crc32_fold_blocks(state, bytes.data(), folded);
    bytes = bytes.subspan(folded);
  }
#endif
  return crc32_update_table(state, bytes);
}

}  // namespace detail

std::uint32_t crc32_init() { return 0xFFFFFFFFu; }

std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::byte> bytes) {
  if (!detail::crc32_fold_supported()) {
    return detail::crc32_update_table(state, bytes);
  }
  const std::uint32_t folded = detail::crc32_update_fold(state, bytes);
  // Same contract as the batch kernel's lanes: checked builds re-derive
  // every fast result on the portable path and demand the same bits.
  SPIRE_DCHECK(folded == detail::crc32_update_table(state, bytes),
               "folded CRC-32 diverged from the table path over ",
               bytes.size(), " bytes");
  return folded;
}

std::uint32_t crc32_update(std::uint32_t state, std::string_view bytes) {
  return crc32_update(state,
                      std::as_bytes(std::span(bytes.data(), bytes.size())));
}

std::uint32_t crc32_final(std::uint32_t state) { return state ^ 0xFFFFFFFFu; }

std::uint32_t crc32(std::span<const std::byte> bytes) {
  return crc32_final(crc32_update(crc32_init(), bytes));
}

std::uint32_t crc32(std::string_view bytes) {
  return crc32(std::as_bytes(std::span(bytes.data(), bytes.size())));
}

std::uint64_t fnv1a64(std::span<const std::byte> bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001B3ull;
  }
  return hash;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  return fnv1a64(std::as_bytes(std::span(bytes.data(), bytes.size())));
}

std::string fnv1a64_hex(std::string_view bytes) {
  constexpr char kDigits[] = "0123456789abcdef";
  const std::uint64_t hash = fnv1a64(bytes);
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(15 - i)] = kDigits[(hash >> (4 * i)) & 0xFu];
  }
  return out;
}

namespace {

// wyhash final 4's default secret.
constexpr std::uint64_t kWySecret[4] = {
    0x2d358dccaa6c78a5ull, 0x8bb84b93962eacc9ull, 0x4b33a62ed433d4a3ull,
    0x4d5a2da51de1aa47ull};

// The 128-bit product of a and b, its halves returned in place.
inline void wymum(std::uint64_t& a, std::uint64_t& b) {
#if defined(__SIZEOF_INT128__)
  const unsigned __int128 r = static_cast<unsigned __int128>(a) * b;
  a = static_cast<std::uint64_t>(r);
  b = static_cast<std::uint64_t>(r >> 64);
#else
  const detail::Product128 r = detail::mul128_portable(a, b);
  a = r.lo;
  b = r.hi;
#endif
}

// Folds the two halves of the product back into one word.
inline std::uint64_t wymix(std::uint64_t a, std::uint64_t b) {
  wymum(a, b);
  return a ^ b;
}

// Three bytes of a 1..3-byte input: first, middle and last.
std::uint64_t load_wy3(const std::byte* p, std::size_t n) {
  return (static_cast<std::uint64_t>(p[0]) << 16) |
         (static_cast<std::uint64_t>(p[n >> 1]) << 8) |
         static_cast<std::uint64_t>(p[n - 1]);
}

}  // namespace

std::uint64_t wyhash64(std::span<const std::byte> bytes, std::uint64_t seed) {
  const std::byte* p = bytes.data();
  const std::size_t len = bytes.size();
  seed ^= wymix(seed ^ kWySecret[0], kWySecret[1]);
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  if (len <= 16) {
    if (len >= 4) {
      // Two overlapping pairs of 32-bit reads cover every byte of 4..16.
      const std::size_t mid = (len >> 3) << 2;
      a = (static_cast<std::uint64_t>(load_le32(p)) << 32) | load_le32(p + mid);
      b = (static_cast<std::uint64_t>(load_le32(p + len - 4)) << 32) |
          load_le32(p + len - 4 - mid);
    } else if (len > 0) {
      a = load_wy3(p, len);
    }
  } else {
    std::size_t i = len;
    if (i > 48) {
      // Three independent lanes over 48-byte stripes: the multiplies of
      // one stripe do not wait on each other.
      std::uint64_t see1 = seed;
      std::uint64_t see2 = seed;
      do {
        seed = wymix(load_le64(p) ^ kWySecret[1], load_le64(p + 8) ^ seed);
        see1 = wymix(load_le64(p + 16) ^ kWySecret[2],
                     load_le64(p + 24) ^ see1);
        see2 = wymix(load_le64(p + 32) ^ kWySecret[3],
                     load_le64(p + 40) ^ see2);
        p += 48;
        i -= 48;
      } while (i > 48);
      seed ^= see1 ^ see2;
    }
    while (i > 16) {
      seed = wymix(load_le64(p) ^ kWySecret[1], load_le64(p + 8) ^ seed);
      i -= 16;
      p += 16;
    }
    // The last 16 bytes, overlapping what the loops already took.
    a = load_le64(p + i - 16);
    b = load_le64(p + i - 8);
  }
  a ^= kWySecret[1];
  b ^= seed;
  wymum(a, b);
  return wymix(a ^ kWySecret[0] ^ len, b ^ kWySecret[1]);
}

std::uint64_t wyhash64(std::string_view bytes, std::uint64_t seed) {
  return wyhash64(std::as_bytes(std::span(bytes.data(), bytes.size())), seed);
}

}  // namespace spire::util
