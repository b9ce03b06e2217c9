// Content-addressed model registry: the deployment store for v4 images.
//
// An image's id IS the fnv1a64 hex of its bytes (util/hash.h). The image
// writer is deterministic, so publishing the same model — from an
// Ensemble, a text v1 file, or an existing v4 file — always
// converges on the same id and the same stored bytes; publish is
// idempotent and safe to race from any number of threads or processes.
//
// On-disk layout under the registry root (default ".spire-registry"):
//   objects/<id>    the v4 image, immutable once published
//   pins/<id>       empty marker: gc() must keep this object
//
// Publish writes to a unique temp file in objects/ and renames into place:
// on POSIX, rename is atomic, so a reader (or a concurrent publisher of
// the same content) never observes a partial object. Objects are never
// modified in place, which is what lets MappedModel hold long-lived
// mappings of them without SIGBUS risk.
//
// open() returns shared_ptr<const MappedModel>. A weak-pointer tracking
// map of every mapping handed out makes repeated opens of a model that is
// still mapped share that one mapping, and lets gc() refuse to delete an
// object any live consumer still maps. The registry itself holds no strong
// reference: a mapping lives exactly as long as its consumers (a server
// shard pins the one it serves). All registry state is mutex-protected;
// the returned models themselves are immutable and lock-free to use.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/mapped_model.h"
#include "spire/ensemble.h"
#include "util/thread_annotations.h"

namespace spire::serve {

class ModelRegistry {
 public:
  static constexpr std::string_view kDefaultRoot = ".spire-registry";

  /// Opens (creating directories as needed) the registry at `root`.
  explicit ModelRegistry(std::string root = std::string(kDefaultRoot));

  /// Publishes the canonical v4 image of `ensemble`; returns its id.
  std::string publish(const model::Ensemble& ensemble) SPIRE_EXCLUDES(mutex_);

  /// Loads either model format (text v1, binary v4) from `path` and
  /// publishes its canonical v4 image. Returns the id.
  std::string publish_file(const std::string& path);

  /// Publishes pre-serialized v4 image bytes after full verification.
  /// Throws "model-bin: ..." if the bytes are not a valid v4 image (an
  /// image of another version gets unsupported_binary_version's text).
  /// Returns the id (the hash of exactly these bytes).
  std::string publish_bytes(const std::string& bytes) SPIRE_EXCLUDES(mutex_);

  /// Maps the object with `id`, or returns the mapping an earlier open()
  /// handed out while it is still alive. Throws std::runtime_error when
  /// the id is malformed or not present.
  std::shared_ptr<const MappedModel> open(const std::string& id)
      SPIRE_EXCLUDES(mutex_);

  bool contains(const std::string& id) const;

  /// Absolute-ish path of the object file (existing or not).
  std::string object_path(const std::string& id) const;

  /// All published ids, sorted.
  std::vector<std::string> list() const;

  /// The most recently published id (newest object mtime; ties broken by
  /// the lexicographically larger id so the answer is deterministic).
  /// Empty when the registry holds no objects. This is what "resolve the
  /// latest model" means to the estimation server's hot-swap path.
  std::string latest() const;

  /// Marks `id` as not collectable by gc(). Throws if the object does not
  /// exist.
  void pin(const std::string& id);
  void unpin(const std::string& id);
  std::vector<std::string> pinned() const;

  /// Removes every object that is neither pinned nor currently mapped by a
  /// live MappedModel handed out by open(). Returns the ids removed.
  std::vector<std::string> gc() SPIRE_EXCLUDES(mutex_);

  const std::string& root() const { return root_; }

  /// Mapping reuse counters, exposed through the server's `serverctl
  /// stats`. A hit is an open() that reused a still-live mapping; a miss
  /// mapped the object fresh.
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  CacheStats cache_stats() const {
    CacheStats stats;
    stats.hits = cache_hits_.load(std::memory_order_relaxed);
    stats.misses = cache_misses_.load(std::memory_order_relaxed);
    return stats;
  }

 private:
  std::string pin_path(const std::string& id) const;
  std::string store_bytes_locked(const std::string& bytes)
      SPIRE_REQUIRES(mutex_);

  const std::string root_;

  mutable util::Mutex mutex_{util::lock_rank::Rank::kRegistry, "registry"};
  // Every mapping handed out and possibly still alive; lets open() share
  // a live mapping and gc() detect in-use objects.
  std::map<std::string, std::weak_ptr<const MappedModel>> live_
      SPIRE_GUARDED_BY(mutex_);

  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
};

}  // namespace spire::serve
