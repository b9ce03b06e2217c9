#include "serve/shard.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace spire::serve {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

Shard::Shard(std::string model_id, std::shared_ptr<const MappedModel> model,
             util::ThreadPool& pool, std::size_t queue_bound,
             EvaluationGate gate)
    : model_id_(std::move(model_id)),
      model_(std::move(model)),
      service_(model_),
      pool_(pool),
      queue_bound_(std::max<std::size_t>(queue_bound, 1)),
      gate_(std::move(gate)) {}

Shard::Enqueue Shard::enqueue(Request request) {
  bool schedule = false;
  {
    util::MutexLock lock(mutex_);
    if (retired_flag_) {
      shed_retired_.fetch_add(1, std::memory_order_relaxed);
      return Enqueue::kRetired;
    }
    if (queue_.size() >= queue_bound_) {
      shed_full_.fetch_add(1, std::memory_order_relaxed);
      return Enqueue::kFull;
    }
    queue_.push_back(std::move(request));
    enqueued_.fetch_add(1, std::memory_order_relaxed);
    // Exactly one pump per shard: schedule only on the idle->busy edge.
    // The flag flips back under this same mutex when the pump finds the
    // queue empty, so no enqueue can be stranded without a pump.
    if (!pump_active_) {
      pump_active_ = true;
      schedule = true;
    }
  }
  // The task owns a strong self-reference: a router may drop its last
  // shared_ptr to a draining shard and destruction waits for the pump.
  if (schedule) (void)pool_.submit([self = shared_from_this()] { self->pump(); });
  return Enqueue::kAccepted;
}

void Shard::retire() {
  util::MutexLock lock(mutex_);
  retired_flag_ = true;
}

bool Shard::retired() const {
  util::MutexLock lock(mutex_);
  return retired_flag_;
}

std::size_t Shard::queue_depth() const {
  util::MutexLock lock(mutex_);
  return queue_.size();
}

Shard::Stats Shard::stats() const {
  Stats stats;
  stats.enqueued = enqueued_.load(std::memory_order_relaxed);
  stats.shed_full = shed_full_.load(std::memory_order_relaxed);
  stats.shed_retired = shed_retired_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.expired_in_queue = expired_in_queue_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.batched_requests = batched_requests_.load(std::memory_order_relaxed);
  stats.max_batch_requests =
      max_batch_requests_.load(std::memory_order_relaxed);
  {
    util::MutexLock lock(mutex_);
    stats.queue_depth = queue_.size();
    stats.retired = retired_flag_;
  }
  return stats;
}

void Shard::pump() {
  for (;;) {
    std::vector<Request> batch;
    {
      util::MutexLock lock(mutex_);
      const std::size_t take = std::min(queue_.size(), kMaxBatch);
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      if (batch.empty()) {
        pump_active_ = false;
        return;
      }
    }
    run_batch(batch);
  }
}

void Shard::run_batch(std::vector<Request>& batch) {
  // Every popped request leaves the queue NOW for accounting purposes,
  // whether it will be evaluated or reported expired.
  for (Request& request : batch) {
    if (request.begin) request.begin();
  }
  // Requests that waited out their deadline in the queue are completed
  // immediately and contribute nothing; the views of the rest are
  // evaluated in one estimate_views call on this worker, which checks
  // each slice's deadline again before the kernel runs.
  const Clock::time_point now = Clock::now();
  std::vector<Request*> evaluable;
  std::vector<ViewJob> jobs;
  for (Request& request : batch) {
    if (request.has_deadline && now >= request.deadline) {
      expired_in_queue_.fetch_add(1, std::memory_order_relaxed);
      completed_.fetch_add(1, std::memory_order_relaxed);
      if (request.complete) request.complete({}, /*expired_in_queue=*/true);
      request.keepalive.reset();
      continue;
    }
    evaluable.push_back(&request);
    for (const sampling::DatasetView* view : request.views) {
      jobs.push_back(
          {view, request.merge, request.deadline, request.has_deadline});
    }
  }
  if (evaluable.empty()) return;

  if (gate_) gate_(model_id_);
  std::vector<BatchResult> results = service_.estimate_views(jobs);

  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(evaluable.size(), std::memory_order_relaxed);
  std::uint64_t seen = max_batch_requests_.load(std::memory_order_relaxed);
  while (seen < evaluable.size() &&
         !max_batch_requests_.compare_exchange_weak(
             seen, evaluable.size(), std::memory_order_relaxed)) {
  }
  // Scatter the flat result vector back into per-request slices.
  auto next = std::make_move_iterator(results.begin());
  for (Request* request : evaluable) {
    const auto end = next + static_cast<std::ptrdiff_t>(request->views.size());
    std::vector<BatchResult> slice(next, end);
    next = end;
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (request->complete) {
      request->complete(std::move(slice), /*expired_in_queue=*/false);
    }
    // This request's results are spent: release what its views borrowed
    // now, not when the whole batch is done.
    request->keepalive.reset();
  }
}

}  // namespace spire::serve
