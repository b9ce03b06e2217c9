// Memo-cache for served estimates: the warm path of the sharded fleet.
//
// A registry object is immutable and content-addressed, and estimation is
// deterministic, so (model id, workload bytes, merge policy) fully
// determines the estimate — an identical request may be answered from
// memory with the exact bytes a recompute would produce. The cache stores
// opaque value strings (the server stores encoded per-workload reply
// payloads), keyed on the model id, the `workload_hash` (XXH64) of the
// workload's wire bytes, and the merge policy byte; the byte-identity
// contract (DESIGN.md §14) is enforced by tests, not trusted.
//
// Concurrency: the key hash selects one of `stripes` independent LRU
// stripes, each behind its own util::Mutex at rank kEstimateCache — the
// innermost serving rank, never held together with a shard queue or the
// slot map. Hit/miss/evict counters are lock-free atomics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.h"

namespace spire::serve {

class EstimateCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  /// `capacity` bounds the TOTAL entry count across stripes (0 disables the
  /// cache: every lookup misses, every insert is dropped). `stripes` is
  /// rounded up to at least 1; capacity is split evenly with any remainder
  /// going to the first stripes.
  explicit EstimateCache(std::size_t capacity, std::size_t stripes = 8);

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

  /// util::xxh64 of a workload's exact wire bytes (text CSV or
  /// spire-profile-bin): the one key this cache and ProfileCache share.
  /// Every request pays it over its whole payload, so it is the fast hash,
  /// not the registry's fnv1a64; nothing persists it.
  static std::uint64_t workload_hash(std::string_view csv_bytes);

  /// Returns the cached value and refreshes its LRU position, or nullopt.
  std::optional<std::string> lookup(const Key& key);

  /// Inserts (or refreshes) `value` under `key`, evicting the stripe's
  /// least-recently-used entry when its bound is exceeded.
  void insert(const Key& key, std::string value);

  /// Drops every entry (counters survive; eviction count is unchanged —
  /// clear() is an operator action, not cache pressure).
  void clear();

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  Stats stats() const;

 private:
  struct Stripe {
    util::Mutex mutex{util::lock_rank::Rank::kEstimateCache,
                      "estimate-cache"};
    // Most-recently-used first; index points into the list.
    std::list<std::pair<Key, std::string>> lru SPIRE_GUARDED_BY(mutex);
    std::map<Key, std::list<std::pair<Key, std::string>>::iterator> index
        SPIRE_GUARDED_BY(mutex);
    std::size_t bound = 0;  // immutable after construction
  };

  Stripe& stripe_for(const Key& key);

  const std::size_t capacity_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace spire::serve
