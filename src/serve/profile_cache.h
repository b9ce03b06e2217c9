// Parsed-profile cache: the layer BELOW the estimate memo-cache.
//
// EstimateCache (estimate_cache.h) memoizes whole encoded replies, so an
// exact repeat of (model, workload, merge) never re-evaluates. But a fleet
// replays the same WORKLOAD against many models — every such request misses
// the reply cache and used to re-parse the identical CSV bytes from
// scratch. ProfileCache memoizes the parse itself: keyed on the
// EstimateCache::workload_hash of the workload bytes (the same hash the
// reply-cache key already computes, so the hot path hashes once), it
// stores the parsed-and-viewed form ready to hand to the batch kernel. A
// reply-cache miss over a profile the fleet has seen then skips straight
// to evaluation.
//
// Values are shared_ptr<const ParsedProfile>: eviction never invalidates a
// batch that is still evaluating through the parse, and concurrent
// requests share one copy. Striping, LRU discipline, and the counter
// design mirror EstimateCache; the per-stripe mutexes sit at rank
// kProfileCache = 52, acquired with no other serving lock held, and only
// by the server's connection readers: each memo-missed text workload is
// looked up before enqueue (a hit queues as a view of the cached parse),
// and each parse the reader makes on a miss is published here.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "sampling/dataset.h"
#include "sampling/dataset_view.h"
#include "util/thread_annotations.h"

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
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  /// `capacity` bounds the TOTAL entry count across stripes (0 disables the
  /// cache). `stripes` is rounded up to at least 1; capacity is split evenly
  /// with any remainder going to the first stripes.
  explicit ProfileCache(std::size_t capacity, std::size_t stripes = 8);

  /// Returns the cached profile and refreshes its LRU position, or nullptr.
  /// `hash` is EstimateCache::workload_hash over the exact workload bytes.
  std::shared_ptr<const ParsedProfile> lookup(std::uint64_t hash);

  /// Inserts (or refreshes) `profile` under `hash`, evicting the stripe's
  /// least-recently-used entry when its bound is exceeded.
  void insert(std::uint64_t hash, std::shared_ptr<const ParsedProfile> profile);

  /// Drops every entry (counters survive; eviction count unchanged).
  void clear();

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  Stats stats() const;

 private:
  using Entry = std::pair<std::uint64_t, std::shared_ptr<const ParsedProfile>>;

  struct Stripe {
    util::Mutex mutex{util::lock_rank::Rank::kProfileCache, "profile-cache"};
    // Most-recently-used first; index points into the list.
    std::list<Entry> lru SPIRE_GUARDED_BY(mutex);
    std::map<std::uint64_t, std::list<Entry>::iterator> index
        SPIRE_GUARDED_BY(mutex);
    std::size_t bound = 0;  // immutable after construction
  };

  Stripe& stripe_for(std::uint64_t hash);

  const std::size_t capacity_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace spire::serve
