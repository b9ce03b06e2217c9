// Parsed-profile cache: the layer BELOW the estimate memo-cache.
//
// EstimateCache (estimate_cache.h) memoizes whole encoded replies, so an
// exact repeat of (model, workload, merge) never re-evaluates. But a fleet
// replays the same WORKLOAD against many models — every such request misses
// the reply cache and used to re-parse the identical CSV bytes from
// scratch. ProfileCache memoizes the parse itself: keyed on the
// EstimateCache::workload_hash of the workload bytes (the same hash the
// reply-cache key already computes, so the hot path hashes once), it
// stores the parsed-and-viewed form ready to hand to the kernel. A
// reply-cache miss over a profile the fleet has seen then skips straight
// to evaluation.
//
// Values are shared_ptr<const ParsedProfile>: eviction never invalidates a
// batch that is still evaluating through the parse, and concurrent
// requests share one copy. The LRU is serve::Lru (lru.h), the one
// EstimateCache uses, at the same rank kCache. Only the server's
// connection readers use it, one cache call at a time: each
// memo-missed text workload is looked up before enqueue (a hit queues as
// a view of the cached parse), and each parse the reader makes on a miss
// is published here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "sampling/dataset.h"
#include "sampling/dataset_view.h"
#include "serve/lru.h"

namespace spire::serve {

/// One parsed workload: the owning Dataset plus a view resolved over its
/// final storage. Immutable after make() — safe to share across threads.
struct ParsedProfile {
  sampling::Dataset data;
  sampling::DatasetView view;  // over `data`; valid while this is alive

  /// The only way to build one: the view must be taken after the Dataset
  /// reaches its final address, which make() guarantees.
  static std::shared_ptr<const ParsedProfile> make(sampling::Dataset data);
};

class ProfileCache {
 public:
  using Stats = LruStats;

  /// `capacity` bounds the entry count (0 disables the cache).
  explicit ProfileCache(std::size_t capacity)
      : lru_(capacity, "profile-cache") {}

  /// Returns the cached profile and refreshes its LRU position, or nullptr.
  /// `hash` is EstimateCache::workload_hash over the exact workload bytes.
  std::shared_ptr<const ParsedProfile> lookup(std::uint64_t hash) {
    return lru_.lookup(hash).value_or(nullptr);
  }

  /// Inserts (or replaces) `profile` under `hash`, evicting the
  /// least-recently-used entry when the capacity is exceeded. A null profile
  /// is dropped.
  void insert(std::uint64_t hash,
              std::shared_ptr<const ParsedProfile> profile) {
    if (profile != nullptr) lru_.insert(hash, std::move(profile));
  }

  std::size_t capacity() const { return lru_.capacity(); }
  std::size_t size() const { return lru_.size(); }
  Stats stats() const { return lru_.stats(); }

 private:
  Lru<std::uint64_t, std::shared_ptr<const ParsedProfile>> lru_;
};

}  // namespace spire::serve
