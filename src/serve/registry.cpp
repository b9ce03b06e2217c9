#include "serve/registry.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include <fcntl.h>

#include "serve/model_v3.h"
#include "spire/model_bin.h"
#include "spire/model_io.h"
#include "util/hash.h"
#include "util/posix_io.h"

namespace spire::serve {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("registry: " + what);
}

bool valid_id(const std::string& id) {
  if (id.size() != 16) return false;
  for (const char c : id) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

void require_id(const std::string& id) {
  // Ids double as file names; rejecting anything but the 16-hex form also
  // forecloses path traversal through a crafted "id".
  if (!valid_id(id)) fail("malformed id '" + id + "' (want 16 hex chars)");
}

/// Writes `bytes` to a fresh file at `path` through the EINTR-hardened
/// descriptor wrappers: a signal landing mid-publish must surface as a
/// clean failure, never as a silently short object.
bool write_file_bytes(const std::string& path, const std::string& bytes) {
  const int fd = util::open_retry(path.c_str(),
                                  O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                                  0644);
  if (fd < 0) return false;
  const bool ok = util::write_all(fd, bytes.data(), bytes.size());
  util::close_quietly(fd);
  return ok;
}

}  // namespace

ModelRegistry::ModelRegistry(std::string root) : root_(std::move(root)) {
  std::error_code ec;
  fs::create_directories(fs::path(root_) / "objects", ec);
  if (!ec) fs::create_directories(fs::path(root_) / "pins", ec);
  if (ec) fail("cannot create registry root " + root_ + ": " + ec.message());
}

std::string ModelRegistry::object_path(const std::string& id) const {
  return (fs::path(root_) / "objects" / id).string();
}

std::string ModelRegistry::pin_path(const std::string& id) const {
  return (fs::path(root_) / "pins" / id).string();
}

std::string ModelRegistry::store_bytes_locked(const std::string& bytes) {
  const std::string id = util::fnv1a64_hex(bytes);
  const fs::path final_path = object_path(id);
  std::error_code ec;
  if (fs::exists(final_path, ec)) return id;  // already published: converge

  // Unique temp name per process and call; rename is atomic, so concurrent
  // publishers of the same content race benignly to an identical object.
  static std::atomic<std::uint64_t> counter{0};
  const auto self = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const fs::path tmp =
      fs::path(root_) / "objects" /
      (".tmp-" + id + "-" + std::to_string(self) + "-" +
       std::to_string(counter.fetch_add(1, std::memory_order_relaxed)));
  if (!write_file_bytes(tmp.string(), bytes)) {
    fs::remove(tmp, ec);
    fail("cannot write " + tmp.string());
  }
  fs::rename(tmp, final_path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    fail("cannot publish " + final_path.string() + ": " + ec.message());
  }
  return id;
}

std::string ModelRegistry::publish(const model::Ensemble& ensemble) {
  const std::string bytes = model_v3_bytes(ensemble);
  util::MutexLock lock(mutex_);
  return store_bytes_locked(bytes);
}

std::string ModelRegistry::publish_file(const std::string& path) {
  // Either source format normalizes through the deterministic writer, so
  // the same model always lands on the same id.
  return publish(model::load_model_any_file(path));
}

std::string ModelRegistry::publish_bytes(const std::string& bytes) {
  // Full verification (magic and version, layout, CRCs, value policy)
  // before storing; alignment-safe, so the heap buffer is fine here.
  model::bin::check_flat_region(
      std::as_bytes(std::span(bytes.data(), bytes.size())));
  util::MutexLock lock(mutex_);
  return store_bytes_locked(bytes);
}

std::shared_ptr<const MappedModel> ModelRegistry::open(const std::string& id) {
  require_id(id);
  util::MutexLock lock(mutex_);
  std::erase_if(live_,
                [](const auto& entry) { return entry.second.expired(); });
  if (const auto it = live_.find(id); it != live_.end()) {
    if (std::shared_ptr<const MappedModel> model = it->second.lock()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return model;
    }
  }
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  const std::string path = object_path(id);
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    fail("no object with id " + id + " under " + root_);
  }
  auto model = std::make_shared<const MappedModel>(MappedModel::map_file(path));
  live_[id] = model;
  return model;
}

bool ModelRegistry::contains(const std::string& id) const {
  if (!valid_id(id)) return false;
  std::error_code ec;
  return fs::exists(object_path(id), ec);
}

std::vector<std::string> ModelRegistry::list() const {
  std::vector<std::string> ids;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(root_) / "objects", ec)) {
    const std::string name = entry.path().filename().string();
    if (valid_id(name)) ids.push_back(name);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string ModelRegistry::latest() const {
  std::string best_id;
  fs::file_time_type best_time{};
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(root_) / "objects", ec)) {
    const std::string name = entry.path().filename().string();
    if (!valid_id(name)) continue;
    const auto t = fs::last_write_time(entry.path(), ec);
    if (ec) {
      // Raced with a concurrent gc(): the object vanished between the
      // directory scan and the stat. Skip it, don't fail the resolution.
      ec.clear();
      continue;
    }
    if (best_id.empty() || t > best_time ||
        (t == best_time && name > best_id)) {
      best_id = name;
      best_time = t;
    }
  }
  return best_id;
}

void ModelRegistry::pin(const std::string& id) {
  require_id(id);
  if (!contains(id)) fail("cannot pin: no object with id " + id);
  // An existing marker is fine (pin is idempotent), so no O_EXCL here.
  if (!write_file_bytes(pin_path(id), "") &&
      !fs::exists(pin_path(id))) {
    fail("cannot write pin for " + id);
  }
}

void ModelRegistry::unpin(const std::string& id) {
  require_id(id);
  std::error_code ec;
  fs::remove(pin_path(id), ec);
}

std::vector<std::string> ModelRegistry::pinned() const {
  std::vector<std::string> ids;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(fs::path(root_) / "pins", ec)) {
    const std::string name = entry.path().filename().string();
    if (valid_id(name)) ids.push_back(name);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<std::string> ModelRegistry::gc() {
  util::MutexLock lock(mutex_);
  std::vector<std::string> removed;
  std::error_code ec;
  for (const std::string& id : list()) {
    if (fs::exists(pin_path(id), ec)) continue;
    bool in_use = false;
    if (const auto it = live_.find(id); it != live_.end()) {
      in_use = !it->second.expired();
    }
    if (in_use) continue;
    if (fs::remove(object_path(id), ec) && !ec) {
      live_.erase(id);
      removed.push_back(id);
    }
  }
  return removed;
}

}  // namespace spire::serve
