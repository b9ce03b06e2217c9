// Memo-cache for served estimates: the warm path of the sharded fleet.
//
// A registry object is immutable and content-addressed, and estimation is
// deterministic, so (model id, workload bytes, merge policy) fully
// determines the estimate — an identical request may be answered from
// memory with the exact bytes a recompute would produce. The cache stores
// opaque value strings (the server stores encoded per-workload reply
// payloads), keyed on the model id, the `workload_hash` (wyhash) of the
// workload's wire bytes, and the merge policy byte; the byte-identity
// contract (DESIGN.md §14) is enforced by tests, not trusted.
//
// The LRU itself is serve::Lru (lru.h), shared with ProfileCache: one
// mutex at rank kCache, never held together with another serving lock or
// the other cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "serve/lru.h"
#include "util/hash.h"

namespace spire::serve {

class EstimateCache {
 public:
  using Stats = LruStats;

  /// The cache key: which model, which exact workload bytes, which merge
  /// policy. The workload is carried as its `workload_hash` — compute it
  /// once per request.
  struct Key {
    std::string model_id;
    std::uint64_t csv_hash = 0;
    std::uint8_t merge = 0;

    bool operator<(const Key& other) const {
      if (csv_hash != other.csv_hash) return csv_hash < other.csv_hash;
      if (merge != other.merge) return merge < other.merge;
      return model_id < other.model_id;
    }
  };

  /// `capacity` bounds the entry count (0 disables the cache: every
  /// lookup misses, every insert is dropped).
  explicit EstimateCache(std::size_t capacity)
      : lru_(capacity, "estimate-cache") {}

  /// util::wyhash64 of a workload's exact wire bytes (text CSV or
  /// spire-profile-bin): the one key this cache and ProfileCache share.
  /// Every request pays it over its whole payload, so it is the fast hash,
  /// not the registry's fnv1a64; nothing persists it.
  static std::uint64_t workload_hash(std::string_view csv_bytes) {
    return util::wyhash64(csv_bytes);
  }

  /// Returns the cached value and refreshes its LRU position, or nullopt.
  std::optional<std::string> lookup(const Key& key) { return lru_.lookup(key); }

  /// Inserts (or replaces) `value` under `key`, evicting the
  /// least-recently-used entry when the capacity is exceeded.
  void insert(const Key& key, std::string value) {
    lru_.insert(key, std::move(value));
  }

  std::size_t capacity() const { return lru_.capacity(); }
  std::size_t size() const { return lru_.size(); }
  Stats stats() const { return lru_.stats(); }

 private:
  Lru<Key, std::string> lru_;
};

}  // namespace spire::serve
