#include "serve/estimate_cache.h"

#include "util/hash.h"

namespace spire::serve {

EstimateCache::EstimateCache(std::size_t capacity, std::size_t stripes)
    : capacity_(capacity) {
  const std::size_t count = stripes == 0 ? 1 : stripes;
  stripes_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto stripe = std::make_unique<Stripe>();
    // Split the total bound evenly; the first `capacity % count` stripes
    // absorb the remainder so the sum of bounds equals the capacity.
    stripe->bound = capacity / count + (i < capacity % count ? 1 : 0);
    stripes_.push_back(std::move(stripe));
  }
}

std::uint64_t EstimateCache::workload_hash(std::string_view csv_bytes) {
  return util::xxh64(csv_bytes);
}

EstimateCache::Stripe& EstimateCache::stripe_for(const Key& key) {
  return *stripes_[key.csv_hash % stripes_.size()];
}

std::optional<std::string> EstimateCache::lookup(const Key& key) {
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

void EstimateCache::insert(const Key& key, std::string value) {
  if (capacity_ == 0) return;
  Stripe& stripe = stripe_for(key);
  util::MutexLock lock(stripe.mutex);
  if (const auto it = stripe.index.find(key); it != stripe.index.end()) {
    // Deterministic estimation means the value cannot have changed; just
    // refresh recency (and the bytes, which are identical by contract).
    it->second->second = std::move(value);
    stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second);
    return;
  }
  // A stripe whose share of the capacity rounded to zero stays empty.
  if (stripe.bound == 0) return;
  stripe.lru.emplace_front(key, std::move(value));
  stripe.index[key] = stripe.lru.begin();
  while (stripe.lru.size() > stripe.bound) {
    stripe.index.erase(stripe.lru.back().first);
    stripe.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void EstimateCache::clear() {
  for (const auto& stripe : stripes_) {
    util::MutexLock lock(stripe->mutex);
    stripe->lru.clear();
    stripe->index.clear();
  }
}

std::size_t EstimateCache::size() const {
  std::size_t total = 0;
  for (const auto& stripe : stripes_) {
    util::MutexLock lock(stripe->mutex);
    total += stripe->lru.size();
  }
  return total;
}

EstimateCache::Stats EstimateCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace spire::serve
