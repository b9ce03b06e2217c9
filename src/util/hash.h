// Stateless byte-hashing primitives for artifact integrity and identity.
//
// Three different jobs, three different functions:
//   * crc32 — corruption detection inside the binary model image
//     (spire/model_bin.h) and the spire-profile-bin wire format
//     (serve/profile_bin.h). IEEE 802.3 polynomial, the same CRC zip/png
//     use, so artifacts can be cross-checked with standard tools. Every
//     binary request's parse pays it over the whole profile, so it runs a
//     carry-less-multiply fold where the host has one (DESIGN.md §16).
//   * fnv1a64 — content addressing in the model registry
//     (serve/registry.h). An id names a file on disk and must never
//     change, so this stays the function existing registries were built
//     with. Not cryptographic: it names artifacts produced by our own
//     deterministic writer, it does not defend against an adversary
//     minting collisions.
//   * wyhash64 — the serving workload key (serve::EstimateCache::
//     workload_hash), computed over every request payload. Nothing
//     persists it, so it is free to be the fast one: wyhash final 4's
//     construction, which folds 64x64->128-bit multiplies over 48-byte
//     stripes in three independent lanes, two words per multiply.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace spire::util {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected), of `bytes`.
std::uint32_t crc32(std::span<const std::byte> bytes);
std::uint32_t crc32(std::string_view bytes);

/// Streaming form, for callers that see the bytes in chunks (the binary
/// model loader accumulates the whole-file CRC while reading sections):
///   state = crc32_init();
///   state = crc32_update(state, chunk);  // repeat
///   crc   = crc32_final(state);
/// crc32(b) == crc32_final(crc32_update(crc32_init(), b)).
std::uint32_t crc32_init();
std::uint32_t crc32_update(std::uint32_t state, std::span<const std::byte> bytes);
std::uint32_t crc32_update(std::uint32_t state, std::string_view bytes);
std::uint32_t crc32_final(std::uint32_t state);

/// FNV-1a 64-bit hash of `bytes`.
std::uint64_t fnv1a64(std::span<const std::byte> bytes);
std::uint64_t fnv1a64(std::string_view bytes);

/// `fnv1a64` rendered as the canonical registry id: 16 lowercase hex
/// characters, zero-padded.
std::string fnv1a64_hex(std::string_view bytes);

/// wyhash final 4 (the reference algorithm, default secret) of `bytes`
/// under `seed`.
std::uint64_t wyhash64(std::span<const std::byte> bytes,
                       std::uint64_t seed = 0);
std::uint64_t wyhash64(std::string_view bytes, std::uint64_t seed = 0);

}  // namespace spire::util
