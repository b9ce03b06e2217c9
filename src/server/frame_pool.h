// Receive buffers for one connection's inbound frames.
//
// Every inbound frame, text or binary, is read into a buffer its
// connection's FramePool lends out. The buffer is never zero-filled: the
// read overwrites exactly the bytes a decoder will look at. Workloads
// borrow views into the frame, and the lease returns the buffer to the
// pool when the last workload borrowing it is done: a text request's CSVs
// are parsed before its dispatch returns on the reader thread, and a
// binary request's profiles, pinned by the request's keepalive, are done
// after an inline reply or as a shard pump finishes the request. A steady
// stream of similar frames therefore reuses the same few buffers instead
// of allocating, first-touching and freeing one per frame on another
// thread.
//
// Buffers are anonymous mappings, not heap blocks. Heap buffers held
// across frames pinned memory in glibc's per-thread arenas: the same pool
// on the heap raised `bin-distinct` peak RSS by about 35%, against 11% for
// mapped buffers, whose pages go straight back to the system when a
// buffer is evicted (DESIGN.md §16).
//
// Retained memory is bounded in bytes, not by buffer count: the pool keeps
// at most kSpareBytes of idle buffers. A returning buffer that pushes the
// total over the bound evicts the spares returned longest ago, and one
// larger than the bound is unmapped outright, so a single huge frame never
// leaves a huge idle buffer behind. Buffers never grow: a frame that no
// spare fits gets a new buffer sized for it, and a small frame takes the
// smallest spare that fits, so buffers do not all drift to the largest
// frame ever seen.
//
// Under Debug/SPIRE_CHECKED, every returning buffer is overwritten with a
// poison pattern before it is pooled (or unmapped): a workload that still
// read from a buffer after its lease ended would see poison, not its
// request's bytes, and its reply would no longer match the oracle.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

namespace spire::server {

class FramePool : public std::enable_shared_from_this<FramePool> {
  /// Unmaps one buffer: `bytes` is its capacity (value-initialized to 0
  /// in an empty Buffer).
  struct Unmap {
    std::size_t bytes;
    void operator()(char* data) const;
  };
  using Buffer = std::unique_ptr<char[], Unmap>;

 public:
  /// Idle buffer bytes one connection keeps for later frames.
  static constexpr std::size_t kSpareBytes = std::size_t{2} << 20;
  /// Buffers are sized in whole pages, so frames whose sizes differ by a
  /// little reuse each other's buffers.
  static constexpr std::size_t kGranule = 4096;
  /// The byte every returning buffer is overwritten with in checked builds.
  static constexpr unsigned char kPoison = 0xA5;

  /// One frame's payload, leased from a pool. Move-only; destroying the
  /// lease hands the buffer back. Its contents are unspecified until the
  /// caller fills data()[0, size()).
  class Frame {
   public:
    Frame() = default;
    Frame(Frame&& other) noexcept { *this = std::move(other); }
    Frame& operator=(Frame&& other) noexcept;
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;
    ~Frame() { reset(); }

    char* data() { return bytes_.get(); }
    std::size_t size() const { return size_; }
    std::string_view view() const { return {bytes_.get(), size_}; }

   private:
    friend class FramePool;
    void reset();

    std::shared_ptr<FramePool> pool_;
    Buffer bytes_;
    std::size_t size_ = 0;
  };

  /// Pools are shared: every lease keeps its pool alive, so a buffer can
  /// come back after the connection's reader has gone.
  static std::shared_ptr<FramePool> make() {
    return std::shared_ptr<FramePool>(new FramePool());
  }

  /// Leases a buffer of at least `size` bytes: the smallest spare that
  /// fits, else a new one. `*fresh` (when given) reports whether the frame
  /// needed a new allocation. A zero-byte frame gets an empty lease and
  /// allocates nothing.
  Frame acquire(std::size_t size, bool* fresh = nullptr)
      SPIRE_EXCLUDES(mutex_);

  std::size_t spare_bytes() const SPIRE_EXCLUDES(mutex_);
  std::size_t spare_count() const SPIRE_EXCLUDES(mutex_);

 private:
  FramePool() = default;
  /// A new buffer of `bytes` bytes, contents unspecified.
  static Buffer map(std::size_t bytes);
  void give_back(Buffer bytes) SPIRE_EXCLUDES(mutex_);

  // Rank kLeaf: taken for a few pointer moves, never with another lock
  // acquired inside it, and buffers are unmapped after it is released.
  mutable util::Mutex mutex_{util::lock_rank::Rank::kLeaf, "frame-pool"};
  std::vector<Buffer> spares_ SPIRE_GUARDED_BY(mutex_);  // oldest first
  std::size_t spare_bytes_ SPIRE_GUARDED_BY(mutex_) = 0;
};

}  // namespace spire::server
