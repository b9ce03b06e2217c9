// The one LRU behind the server's two caches: the reply memo
// (estimate_cache.h) and the parsed-profile cache (profile_cache.h).
//
// `capacity` bounds the entry count. A hit moves its entry to the front;
// an insert over an existing key replaces the value and refreshes it; an
// insert past the bound evicts the least-recently-used entry. Every key
// competes for the whole capacity, so which keys stay resident depends on
// recency alone, never on the key's hash.
//
// Concurrency: the list and index sit behind one util::Mutex at rank
// kCache. Both caches use that one rank, so a thread holds at most one
// cache at a time — the lock rank validator reports any nesting as a
// same-rank violation. No other serving lock is held across a call.
// Hit/miss/eviction counters are relaxed atomics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <utility>

#include "util/thread_annotations.h"

namespace spire::serve {

struct LruStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

template <typename Key, typename Value>
class Lru {
 public:
  /// A capacity of 0 disables the cache: every lookup misses, every insert
  /// is dropped. `name` (a string literal) labels the mutex in lock-rank
  /// diagnostics.
  Lru(std::size_t capacity, const char* name)
      : capacity_(capacity), mutex_(util::lock_rank::Rank::kCache, name) {}

  /// Returns a copy of the cached value and refreshes its LRU position,
  /// or nullopt.
  std::optional<Value> lookup(const Key& key) {
    util::MutexLock lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return lru_.front().second;
  }

  void insert(const Key& key, Value value) {
    if (capacity_ == 0) return;
    util::MutexLock lock(mutex_);
    if (const auto it = index_.find(key); it != index_.end()) {
      it->second->second = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.emplace_front(key, std::move(value));
    index_.emplace(key, lru_.begin());
    if (lru_.size() > capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::size_t capacity() const { return capacity_; }

  std::size_t size() const {
    util::MutexLock lock(mutex_);
    return lru_.size();
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

  const std::size_t capacity_;
  mutable util::Mutex mutex_;
  // Most-recently-used first; index_ points into the list.
  std::list<Entry> lru_ SPIRE_GUARDED_BY(mutex_);
  std::map<Key, typename std::list<Entry>::iterator> index_
      SPIRE_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace spire::serve
