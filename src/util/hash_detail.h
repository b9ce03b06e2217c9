// The two arms of util::crc32_update, exposed so a test can hold them
// against each other over lengths, alignments and start states that the
// public entry point would route to only one of them. Not for callers:
// crc32_update already picks the right arm.
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

}  // namespace spire::util::detail
