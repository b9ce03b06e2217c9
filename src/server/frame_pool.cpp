#include "server/frame_pool.h"

#include <cstring>
#include <new>

#include <sys/mman.h>

#include "util/contract.h"

namespace spire::server {

FramePool::Buffer FramePool::map(std::size_t bytes) {
  // Private anonymous pages: nothing is touched until the read writes it.
  void* data = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (data == MAP_FAILED) throw std::bad_alloc();
  return Buffer(static_cast<char*>(data), Unmap{bytes});
}

void FramePool::Unmap::operator()(char* data) const {
  ::munmap(data, bytes);
}

FramePool::Frame& FramePool::Frame::operator=(Frame&& other) noexcept {
  if (this != &other) {
    reset();
    pool_ = std::move(other.pool_);
    bytes_ = std::move(other.bytes_);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void FramePool::Frame::reset() {
  if (bytes_ != nullptr) pool_->give_back(std::move(bytes_));
  pool_.reset();
  size_ = 0;
}

FramePool::Frame FramePool::acquire(std::size_t size, bool* fresh) {
  if (fresh != nullptr) *fresh = false;
  Frame frame;
  if (size == 0) return frame;
  {
    util::MutexLock lock(mutex_);
    auto best = spares_.end();
    for (auto it = spares_.begin(); it != spares_.end(); ++it) {
      const std::size_t capacity = it->get_deleter().bytes;
      if (capacity >= size &&
          (best == spares_.end() || capacity < best->get_deleter().bytes)) {
        best = it;
      }
    }
    if (best != spares_.end()) {
      spare_bytes_ -= best->get_deleter().bytes;
      frame.bytes_ = std::move(*best);
      spares_.erase(best);
    }
  }
  if (frame.bytes_ == nullptr) {
    frame.bytes_ = map((size + kGranule - 1) / kGranule * kGranule);
    if (fresh != nullptr) *fresh = true;
  }
  frame.pool_ = shared_from_this();
  frame.size_ = size;
  return frame;
}

void FramePool::give_back(Buffer bytes) {
  const std::size_t capacity = bytes.get_deleter().bytes;
#if SPIRE_DCHECK_ENABLED
  std::memset(bytes.get(), kPoison, capacity);
#endif
  if (capacity > kSpareBytes) return;  // unmapped, never pooled
  // Evicted buffers are unmapped after the lock is released.
  std::vector<Buffer> evicted;
  {
    util::MutexLock lock(mutex_);
    spares_.push_back(std::move(bytes));
    spare_bytes_ += capacity;
    auto end = spares_.begin();
    while (spare_bytes_ > kSpareBytes) {
      spare_bytes_ -= end->get_deleter().bytes;
      evicted.push_back(std::move(*end));
      ++end;
    }
    spares_.erase(spares_.begin(), end);
  }
}

std::size_t FramePool::spare_bytes() const {
  util::MutexLock lock(mutex_);
  return spare_bytes_;
}

std::size_t FramePool::spare_count() const {
  util::MutexLock lock(mutex_);
  return spares_.size();
}

}  // namespace spire::server
