// The two arms of util::crc32_update, exposed so a test can hold them
// against each other over lengths, alignments and start states that the
// public entry point would route to only one of them, and wyhash64's
// portable 64x64->128-bit product, held against the compiler's __int128.
// Not for callers: crc32_update and wyhash64 already pick their arms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace spire::util::detail {

/// Portable slicing-by-8 table CRC-32 update; any length, any host.
std::uint32_t crc32_update_table(std::uint32_t state,
                                 std::span<const std::byte> bytes);

/// True when this host can run crc32_update_fold (x86-64 with PCLMULQDQ
/// and SSE4.1). Decided once per process.
bool crc32_fold_supported();

/// Carry-less-multiply folding CRC-32 update (Intel, "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ"): folds the longest prefix
/// whose length is a multiple of 16 (inputs of 64 bytes or more) and
/// finishes the rest with the table arm. Same result as crc32_update_table for every input.
/// Precondition: crc32_fold_supported(). Builds for other targets have no
/// fold, and there this is the table arm.
std::uint32_t crc32_update_fold(std::uint32_t state,
                                std::span<const std::byte> bytes);

/// The full 128-bit product of `a` and `b` as {low, high} 64-bit halves,
/// formed from four 32x32->64-bit partial products. wyhash64 uses it where
/// the compiler has no `unsigned __int128`; the result is the same.
struct Product128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};
constexpr Product128 mul128_portable(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t a_lo = a & 0xFFFFFFFFu;
  const std::uint64_t a_hi = a >> 32;
  const std::uint64_t b_lo = b & 0xFFFFFFFFu;
  const std::uint64_t b_hi = b >> 32;
  const std::uint64_t ll = a_lo * b_lo;
  const std::uint64_t lh = a_lo * b_hi;
  const std::uint64_t hl = a_hi * b_lo;
  // The middle column: three values below 2^32 each, so no overflow.
  const std::uint64_t mid =
      (ll >> 32) + (lh & 0xFFFFFFFFu) + (hl & 0xFFFFFFFFu);
  return {(mid << 32) | (ll & 0xFFFFFFFFu),
          a_hi * b_hi + (lh >> 32) + (hl >> 32) + (mid >> 32)};
}

}  // namespace spire::util::detail
