// The one LRU behind the server's two caches: the reply memo
// (estimate_cache.h) and the parsed-profile cache (profile_cache.h).
//
// `capacity` bounds the TOTAL entry count. `stripe_hash(key)` picks one of
// `stripes` independent LRU stripes, and the capacity is split evenly
// across them, the first `capacity % stripes` stripes taking one more.
// A hit moves its entry to the front of its stripe; an insert over an
// existing key replaces the value and refreshes it; an insert past a
// stripe's bound evicts that stripe's least-recently-used entry.
//
// Concurrency: each stripe sits behind its own util::Mutex at rank
// kCacheStripe. Both caches use that one rank, so a thread holds at most
// one stripe of one cache at a time — the lock rank validator reports any
// nesting as a same-rank violation. No other serving lock is held across
// a call. Hit/miss/eviction counters are relaxed atomics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

namespace spire::serve {

struct LruStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

/// The stripe selector of an integer key (a workload hash) is the key
/// itself. A class key declares its own `stripe_hash` next to it.
inline std::uint64_t stripe_hash(std::uint64_t key) { return key; }

template <typename Key, typename Value>
class StripedLru {
 public:
  /// A capacity of 0 disables the cache: every lookup misses, every insert
  /// is dropped. `stripes` is rounded up to at least 1. `name` (a string
  /// literal) labels the stripe mutexes in lock-rank diagnostics.
  StripedLru(std::size_t capacity, std::size_t stripes, const char* name)
      : capacity_(capacity) {
    const std::size_t count = stripes == 0 ? 1 : stripes;
    stripes_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      stripes_.push_back(std::make_unique<Stripe>(
          name, capacity / count + (i < capacity % count ? 1 : 0)));
    }
  }

  /// Returns a copy of the cached value and refreshes its LRU position,
  /// or nullopt.
  std::optional<Value> lookup(const Key& key) {
    if (capacity_ == 0) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    Stripe& stripe = stripe_for(key);
    util::MutexLock lock(stripe.mutex);
    const auto it = stripe.index.find(key);
    if (it == stripe.index.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return stripe.lru.front().second;
  }

  void insert(const Key& key, Value value) {
    if (capacity_ == 0) return;
    Stripe& stripe = stripe_for(key);
    util::MutexLock lock(stripe.mutex);
    if (const auto it = stripe.index.find(key); it != stripe.index.end()) {
      it->second->second = std::move(value);
      stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second);
      return;
    }
    // A stripe whose share of the capacity rounded to zero stays empty.
    if (stripe.bound == 0) return;
    stripe.lru.emplace_front(key, std::move(value));
    stripe.index.emplace(key, stripe.lru.begin());
    while (stripe.lru.size() > stripe.bound) {
      stripe.index.erase(stripe.lru.back().first);
      stripe.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Drops every entry. The counters survive and the eviction count does
  /// not move: clear() is an operator action, not cache pressure.
  void clear() {
    for (const auto& stripe : stripes_) {
      util::MutexLock lock(stripe->mutex);
      stripe->lru.clear();
      stripe->index.clear();
    }
  }

  std::size_t capacity() const { return capacity_; }

  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& stripe : stripes_) {
      util::MutexLock lock(stripe->mutex);
      total += stripe->lru.size();
    }
    return total;
  }

  LruStats stats() const {
    LruStats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    return stats;
  }

 private:
  using Entry = std::pair<Key, Value>;

  struct Stripe {
    Stripe(const char* name, std::size_t stripe_bound)
        : mutex(util::lock_rank::Rank::kCacheStripe, name),
          bound(stripe_bound) {}
    util::Mutex mutex;
    // Most-recently-used first; index points into the list.
    std::list<Entry> lru SPIRE_GUARDED_BY(mutex);
    std::map<Key, typename std::list<Entry>::iterator> index
        SPIRE_GUARDED_BY(mutex);
    const std::size_t bound;
  };

  Stripe& stripe_for(const Key& key) {
    return *stripes_[stripe_hash(key) % stripes_.size()];
  }

  const std::size_t capacity_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace spire::serve
