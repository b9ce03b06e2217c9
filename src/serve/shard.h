// One model's serving shard: a pinned mapping, a bounded request queue,
// and a batch coalescer.
//
// The fleet-serving architecture (DESIGN.md §14) gives every model its own
// Shard so that overload is isolated per model — a flood against one model
// fills that shard's queue and sheds with a structured error while every
// other shard keeps serving. A shard owns a shared_ptr<const MappedModel>
// pinned for its whole life (the mapping cannot be unmapped or gc'd under
// in-flight requests) wrapped in an EstimationService, plus a FIFO of
// pending requests bounded at construction.
//
// One request shape: every workload arrives as a DatasetView. The server's
// connection reader resolves each one before enqueue (a binary profile
// parsed in place, or a text profile parsed or found already parsed), so
// a shard never sees wire bytes and never parses.
//
// Coalescing: requests are not evaluated one-per-worker. The first enqueue
// into an idle shard schedules one "pump" task on the shared ThreadPool;
// the pump repeatedly drains up to max_batch queued requests, feeds all
// their views to one EstimationService::estimate_views batch, and
// scatters the results — so a burst of same-model requests costs one
// worker wakeup and one estimate_views call instead of N independently
// scheduled evaluations. At most one pump runs per
// shard at any moment, which also serializes evaluation per model while
// leaving cross-shard parallelism to the pool.
//
// Lifecycle: retire() flips the shard to reject NEW requests (the router
// repoints or sheds) while everything already queued still drains through
// the pump — the exactly-one-reply invariant survives hot-swap retirement.
// A Shard MUST be owned by shared_ptr (construct via make_shared): the
// pump task keeps the shard alive through shared_from_this, so a router
// may drop its last reference mid-drain and the shard destructs only
// after the pump goes idle.
//
// Callback contract: for every request accepted by enqueue(), `begin` runs
// exactly once when the request leaves the queue (before any evaluation)
// and `complete` runs exactly once afterwards, both on the pump thread
// with no shard lock held. A request whose deadline expired while queued
// is completed with expired_in_queue = true and an empty result vector; it
// is never evaluated.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sampling/dataset_view.h"
#include "serve/mapped_model.h"
#include "serve/service.h"
#include "spire/ensemble.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace spire::serve {

class Shard : public std::enable_shared_from_this<Shard> {
 public:
  /// enqueue() verdict. kFull and kRetired reject the request without
  /// taking ownership of it; the caller sheds or re-routes.
  enum class Enqueue { kAccepted, kFull, kRetired };

  struct Request {
    /// The workloads, in order. Borrowed: `keepalive` pins what they
    /// point at.
    std::vector<const sampling::DatasetView*> views;
    /// Pins the storage every view borrows (a binary request's frame and
    /// its parsed profiles, or a text request's parses). The pump
    /// releases it right after the request's `complete` returns.
    std::shared_ptr<const void> keepalive;
    model::Merge merge = model::Merge::kTimeWeighted;
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
    /// Runs once as the request leaves the queue (queued -> active
    /// accounting hook for the router's drain predicate).
    std::function<void()> begin;
    /// Runs once with one BatchResult per view (in order), or with an
    /// empty vector and expired_in_queue = true when the deadline passed
    /// before evaluation started.
    std::function<void(std::vector<BatchResult> results,
                       bool expired_in_queue)>
        complete;
  };

  struct Stats {
    std::uint64_t enqueued = 0;
    std::uint64_t shed_full = 0;
    std::uint64_t shed_retired = 0;
    std::uint64_t completed = 0;
    std::uint64_t expired_in_queue = 0;
    std::uint64_t batches = 0;          // pump drain rounds that evaluated
    std::uint64_t batched_requests = 0; // requests across those rounds
    std::uint64_t max_batch_requests = 0;  // largest single round
    std::size_t queue_depth = 0;
    bool retired = false;
  };

  /// Test-only: called with the shard's model id on the pump thread, no
  /// lock held, after a round's requests have begun and before they are
  /// evaluated. A test blocks in it to hold the pump busy, so "this shard
  /// is saturated" is a state it sets instead of a race against the
  /// kernel's speed. Serving code passes none.
  using EvaluationGate = std::function<void(const std::string& model_id)>;

  /// `queue_bound` caps pending (accepted, not yet begun) requests;
  /// `max_batch` caps how many requests one pump round coalesces. Both are
  /// clamped to at least 1. `pool` must outlive the shard. The shard must
  /// be owned by shared_ptr before the first enqueue() (the pump task holds
  /// a self-reference).
  Shard(std::string model_id, std::shared_ptr<const MappedModel> model,
        util::ThreadPool& pool, std::size_t queue_bound,
        std::size_t max_batch = 16, EvaluationGate gate = {});

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  const std::string& model_id() const { return model_id_; }
  const std::shared_ptr<const MappedModel>& model() const { return model_; }

  Enqueue enqueue(Request request) SPIRE_EXCLUDES(mutex_);

  /// Stops accepting new requests; queued requests still drain. Idempotent.
  void retire() SPIRE_EXCLUDES(mutex_);
  bool retired() const SPIRE_EXCLUDES(mutex_);

  std::size_t queue_depth() const SPIRE_EXCLUDES(mutex_);
  Stats stats() const SPIRE_EXCLUDES(mutex_);

 private:
  void pump() SPIRE_EXCLUDES(mutex_);
  void run_batch(std::vector<Request>& batch);

  const std::string model_id_;
  const std::shared_ptr<const MappedModel> model_;
  const EstimationService service_;
  util::ThreadPool& pool_;
  const std::size_t queue_bound_;
  const std::size_t max_batch_;
  const EvaluationGate gate_;

  mutable util::Mutex mutex_{util::lock_rank::Rank::kShardQueue,
                             "shard-queue"};
  std::deque<Request> queue_ SPIRE_GUARDED_BY(mutex_);
  // True while a pump task is scheduled or running; the idle->busy edge is
  // the only place a pump is submitted, so at most one exists per shard.
  bool pump_active_ SPIRE_GUARDED_BY(mutex_) = false;
  bool retired_flag_ SPIRE_GUARDED_BY(mutex_) = false;

  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> shed_full_{0};
  std::atomic<std::uint64_t> shed_retired_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> expired_in_queue_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_requests_{0};
  std::atomic<std::uint64_t> max_batch_requests_{0};
};

}  // namespace spire::serve
