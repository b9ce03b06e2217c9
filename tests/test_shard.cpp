// serve::Shard and serve::EstimateCache: the per-model serving units the
// sharded server routes between (DESIGN.md §14).
//
// Shard contract under test: bounded admission (kFull past the queue
// bound), retirement semantics (kRetired for new work, queued work still
// drains), exactly-once begin/complete callbacks, queue-deadline expiry
// without evaluation, batch coalescing (a burst pumped as ONE evaluation
// round), and bit-identity of coalesced results with a direct
// Ensemble::estimate. EstimateCache contract: strict LRU per stripe with
// hit/miss/evict counters, value bytes returned exactly as inserted,
// capacity 0 disabling the cache entirely.
#include "serve/shard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sampling/dataset.h"
#include "sampling/dataset_view.h"
#include "serve/estimate_cache.h"
#include "serve/profile_cache.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "spire/ensemble.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace spire::serve {
namespace {

using counters::Event;
using model::Ensemble;
using sampling::Dataset;
using sampling::DatasetView;

Ensemble trained_ensemble(std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset train;
  for (Event metric : {Event::kIdqDsbUops, Event::kLsdUops,
                       Event::kBrMispRetiredAllBranches,
                       Event::kLongestLatCacheMiss,
                       Event::kMemInstRetiredAllLoads}) {
    for (int i = 0; i < 60; ++i) {
      const double p = rng.uniform(0.1, 4.0);
      const double intensity = rng.chance(0.1)
                                   ? std::numeric_limits<double>::infinity()
                                   : std::pow(10.0, rng.uniform(-1.0, 3.0));
      train.add(metric, {1.0, p, std::isinf(intensity) ? 0.0 : p / intensity});
    }
  }
  return Ensemble::train(train);
}

Dataset mixed_workload(std::uint64_t seed, int per_metric = 20) {
  util::Rng rng(seed);
  Dataset d;
  for (Event metric : {Event::kIdqDsbUops, Event::kLsdUops,
                       Event::kBrMispRetiredAllBranches}) {
    for (int i = 0; i < per_metric; ++i) {
      const double p = rng.uniform(0.05, 5.0);
      const double intensity = rng.chance(0.15)
                                   ? std::numeric_limits<double>::infinity()
                                   : std::pow(10.0, rng.uniform(-2.0, 4.0));
      d.add(metric, {rng.uniform(0.5, 2.0), p,
                     std::isinf(intensity) ? 0.0 : p / intensity});
    }
  }
  return d;
}

std::string workload_csv(std::uint64_t seed, int per_metric = 20) {
  std::ostringstream out;
  mixed_workload(seed, per_metric).save_csv(out);
  return out.str();
}

std::string fresh_dir(const std::string& name) {
  const std::string root = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(root);
  return root;
}

// --------------------------------------------------------------------------
// EstimateCache
// --------------------------------------------------------------------------

EstimateCache::Key key_for(const std::string& model_id,
                           const std::string& csv, std::uint8_t merge = 0) {
  EstimateCache::Key key;
  key.model_id = model_id;
  key.csv_hash = EstimateCache::workload_hash(csv);
  key.merge = merge;
  return key;
}

TEST(EstimateCache, HitsMissesAndValueBytesAreExact) {
  EstimateCache cache(8);
  const EstimateCache::Key key = key_for("aaaabbbbccccdddd", "w,1\n");
  EXPECT_FALSE(cache.lookup(key).has_value());
  cache.insert(key, std::string("reply-bytes\0with-nul", 20));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, std::string("reply-bytes\0with-nul", 20));
  EXPECT_EQ(cache.size(), 1u);

  const EstimateCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(EstimateCache, KeyDistinguishesModelWorkloadAndMerge) {
  EstimateCache cache(16);
  cache.insert(key_for("aaaabbbbccccdddd", "w,1\n", 0), "a");
  EXPECT_FALSE(cache.lookup(key_for("eeeeffff00001111", "w,1\n", 0)));
  EXPECT_FALSE(cache.lookup(key_for("aaaabbbbccccdddd", "w,2\n", 0)));
  EXPECT_FALSE(cache.lookup(key_for("aaaabbbbccccdddd", "w,1\n", 1)));
  EXPECT_TRUE(cache.lookup(key_for("aaaabbbbccccdddd", "w,1\n", 0)));
}

TEST(EstimateCache, LruEvictsColdestWithinAStripe) {
  // One stripe makes the LRU order across keys observable.
  EstimateCache cache(2, /*stripes=*/1);
  const auto k1 = key_for("aaaabbbbccccdddd", "one");
  const auto k2 = key_for("aaaabbbbccccdddd", "two");
  const auto k3 = key_for("aaaabbbbccccdddd", "three");
  cache.insert(k1, "1");
  cache.insert(k2, "2");
  ASSERT_TRUE(cache.lookup(k1));  // refresh: k2 is now the coldest
  cache.insert(k3, "3");
  EXPECT_TRUE(cache.lookup(k1));
  EXPECT_FALSE(cache.lookup(k2));
  EXPECT_TRUE(cache.lookup(k3));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);

  // Re-inserting an existing key refreshes in place, never grows.
  cache.insert(k3, "3'");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(*cache.lookup(k3), "3'");
}

TEST(EstimateCache, CapacityZeroDisablesCaching) {
  EstimateCache cache(0);
  const auto key = key_for("aaaabbbbccccdddd", "w");
  cache.insert(key, "value");
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(EstimateCache, ClearDropsEntriesButKeepsCounters) {
  EstimateCache cache(8);
  const auto key = key_for("aaaabbbbccccdddd", "w");
  cache.insert(key, "value");
  ASSERT_TRUE(cache.lookup(key));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(key));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);  // clear() is not cache pressure
}

TEST(EstimateCache, ConcurrentMixedTrafficStaysBoundedAndConsistent) {
  EstimateCache cache(64, /*stripes=*/4);
  constexpr int kThreads = 8;
  constexpr int kOps = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        const auto key =
            key_for("aaaabbbbccccdddd", "csv-" + std::to_string(i % 97));
        if (const auto hit = cache.lookup(key)) {
          // A value must always be exactly what some thread inserted.
          ASSERT_EQ(*hit, "v-" + std::to_string(i % 97));
        } else {
          cache.insert(key, "v-" + std::to_string(i % 97));
        }
        (void)t;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_LE(cache.size(), 64u);
  const EstimateCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kOps);
}

// --------------------------------------------------------------------------
// Shard
// --------------------------------------------------------------------------

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_ = std::make_unique<ModelRegistry>(fresh_dir(
        "shard_reg_" + std::string(::testing::UnitTest::GetInstance()
                                       ->current_test_info()
                                       ->name())));
    model_id_ = registry_->publish(trained_ensemble(17));
    model_ = registry_->open(model_id_);
  }

  std::shared_ptr<Shard> make_shard(util::ThreadPool& pool,
                                    std::size_t queue_bound,
                                    std::size_t max_batch = 16) {
    return std::make_shared<Shard>(model_id_, model_, pool, queue_bound,
                                   max_batch);
  }

  /// Blocks the (single-threaded) pool until release() so enqueues pile up
  /// behind a pump that cannot run yet. The blocked task co-owns the gate
  /// state: release() only notifies, so the gate may be destroyed before
  /// the woken task re-checks the predicate.
  struct PoolGate {
    explicit PoolGate(util::ThreadPool& pool) {
      (void)pool.submit([state = state_] {
        std::unique_lock<std::mutex> lock(state->mutex);
        state->cv.wait(lock, [&] { return state->open; });
      });
    }
    void release() {
      {
        std::lock_guard<std::mutex> lock(state_->mutex);
        state_->open = true;
      }
      state_->cv.notify_all();
    }
    struct State {
      std::mutex mutex;
      std::condition_variable cv;
      bool open = false;
    };
    std::shared_ptr<State> state_ = std::make_shared<State>();
  };

  Shard::Request request(std::vector<std::string> csvs,
                         std::atomic<int>& begun, std::atomic<int>& completed,
                         std::vector<BatchResult>* results_out = nullptr,
                         std::atomic<int>* expired = nullptr) {
    // Resolved the way the server's reader resolves text workloads: each
    // CSV parsed into a ParsedProfile, whose view the request borrows and
    // whose ownership rides the request's keepalive.
    Shard::Request request;
    auto pinned =
        std::make_shared<std::vector<std::shared_ptr<const ParsedProfile>>>();
    for (const std::string& csv : csvs) {
      pinned->push_back(ParsedProfile::make(Dataset::load_csv(csv)));
      request.views.push_back(&pinned->back()->view);
    }
    request.keepalive = std::move(pinned);
    request.begin = [&begun] { begun.fetch_add(1); };
    request.complete = [&completed, results_out, expired](
                           std::vector<BatchResult> results,
                           bool expired_in_queue) {
      if (expired_in_queue && expired != nullptr) expired->fetch_add(1);
      if (results_out != nullptr) *results_out = std::move(results);
      completed.fetch_add(1);
    };
    return request;
  }

  static void wait_for(std::atomic<int>& counter, int at_least) {
    for (int i = 0; i < 5000 && counter.load() < at_least; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(counter.load(), at_least);
  }

  std::unique_ptr<ModelRegistry> registry_;
  std::string model_id_;
  std::shared_ptr<const MappedModel> model_;
};

TEST_F(ShardTest, EstimatesBitIdenticallyToTheEnsemble) {
  util::ThreadPool pool(2);
  const auto shard = make_shard(pool, 8);
  std::atomic<int> begun{0}, completed{0};
  std::vector<BatchResult> results;
  ASSERT_EQ(shard->enqueue(request({workload_csv(3), workload_csv(5)}, begun,
                                   completed, &results)),
            Shard::Enqueue::kAccepted);
  wait_for(completed, 1);
  EXPECT_EQ(begun.load(), 1);
  ASSERT_EQ(results.size(), 2u);
  const Ensemble local = trained_ensemble(17);
  const std::uint64_t seeds[] = {3, 5};
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].error;
    const Dataset workload = mixed_workload(seeds[i]);
    const model::Estimate expected = local.estimate(DatasetView(workload));
    EXPECT_EQ(results[i].estimate->throughput, expected.throughput);
    EXPECT_EQ(results[i].samples, workload.size());
  }
  const Shard::Stats stats = shard->stats();
  EXPECT_EQ(stats.enqueued, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.batches, 1u);
}

TEST_F(ShardTest, CoalescesABurstIntoOnePumpRound) {
  util::ThreadPool pool(1);
  const auto shard = make_shard(pool, 16, /*max_batch=*/16);
  std::atomic<int> begun{0}, completed{0};
  {
    PoolGate gate(pool);  // the pump cannot start until the gate opens
    for (int i = 0; i < 6; ++i) {
      ASSERT_EQ(shard->enqueue(request({workload_csv(3, 2)}, begun, completed)),
                Shard::Enqueue::kAccepted);
    }
    EXPECT_EQ(shard->queue_depth(), 6u);
    gate.release();
    wait_for(completed, 6);
  }
  const Shard::Stats stats = shard->stats();
  EXPECT_EQ(stats.batches, 1u);  // one coalesced evaluation round
  EXPECT_EQ(stats.batched_requests, 6u);
  EXPECT_EQ(stats.max_batch_requests, 6u);
  EXPECT_EQ(stats.completed, 6u);
}

TEST_F(ShardTest, MaxBatchSplitsAnOversizedBurst) {
  util::ThreadPool pool(1);
  const auto shard = make_shard(pool, 16, /*max_batch=*/2);
  std::atomic<int> begun{0}, completed{0};
  {
    PoolGate gate(pool);
    for (int i = 0; i < 5; ++i) {
      ASSERT_EQ(shard->enqueue(request({workload_csv(3, 2)}, begun, completed)),
                Shard::Enqueue::kAccepted);
    }
    gate.release();
    wait_for(completed, 5);
  }
  const Shard::Stats stats = shard->stats();
  EXPECT_EQ(stats.batches, 3u);  // 2 + 2 + 1
  EXPECT_EQ(stats.max_batch_requests, 2u);
}

TEST_F(ShardTest, BoundedQueueShedsWithoutLosingAcceptedWork) {
  util::ThreadPool pool(1);
  const auto shard = make_shard(pool, /*queue_bound=*/2);
  std::atomic<int> begun{0}, completed{0};
  {
    PoolGate gate(pool);
    ASSERT_EQ(shard->enqueue(request({workload_csv(3, 2)}, begun, completed)),
              Shard::Enqueue::kAccepted);
    ASSERT_EQ(shard->enqueue(request({workload_csv(4, 2)}, begun, completed)),
              Shard::Enqueue::kAccepted);
    EXPECT_EQ(shard->enqueue(request({workload_csv(5, 2)}, begun, completed)),
              Shard::Enqueue::kFull);
    gate.release();
    wait_for(completed, 2);
  }
  const Shard::Stats stats = shard->stats();
  EXPECT_EQ(stats.enqueued, 2u);
  EXPECT_EQ(stats.shed_full, 1u);
  EXPECT_EQ(stats.completed, 2u);  // the shed request ran NO callbacks
  EXPECT_EQ(begun.load(), 2);
}

TEST_F(ShardTest, RetiredShardRejectsNewWorkButDrainsItsQueue) {
  util::ThreadPool pool(1);
  const auto shard = make_shard(pool, 8);
  std::atomic<int> begun{0}, completed{0};
  {
    PoolGate gate(pool);
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(shard->enqueue(request({workload_csv(3, 2)}, begun, completed)),
                Shard::Enqueue::kAccepted);
    }
    shard->retire();
    EXPECT_TRUE(shard->retired());
    EXPECT_EQ(shard->enqueue(request({workload_csv(4, 2)}, begun, completed)),
              Shard::Enqueue::kRetired);
    gate.release();
    // Retirement must not drop what was already accepted: exactly one
    // completion per queued request.
    wait_for(completed, 3);
  }
  const Shard::Stats stats = shard->stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.shed_retired, 1u);
  EXPECT_TRUE(stats.retired);
}

TEST_F(ShardTest, QueueDeadlineExpiryCompletesWithoutEvaluating) {
  util::ThreadPool pool(1);
  const auto shard = make_shard(pool, 8);
  std::atomic<int> begun{0}, completed{0}, expired{0};
  std::vector<BatchResult> results{BatchResult{}};  // sentinel: must be cleared
  {
    PoolGate gate(pool);
    Shard::Request expired_request = request({workload_csv(3, 2)}, begun,
                                             completed, &results, &expired);
    expired_request.has_deadline = true;
    expired_request.deadline = std::chrono::steady_clock::now();
    ASSERT_EQ(shard->enqueue(std::move(expired_request)),
              Shard::Enqueue::kAccepted);
    gate.release();
    wait_for(completed, 1);
  }
  EXPECT_EQ(begun.load(), 1);  // begin still runs exactly once
  EXPECT_EQ(expired.load(), 1);
  EXPECT_TRUE(results.empty());  // no evaluation happened
  const Shard::Stats stats = shard->stats();
  EXPECT_EQ(stats.expired_in_queue, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.batches, 0u);
}

// A pump batch evaluates its slices one after another, so a slice's budget
// can run out while the slices before it are evaluated. estimate_views
// checks each deadline right before that slice's evaluation: a small slice
// queued behind a large one, with a deadline a quarter of the large one's
// evaluation time away, expires instead of being evaluated late.
TEST_F(ShardTest, SliceDeadlineIsCheckedRightBeforeItsEvaluation) {
  using Clock = std::chrono::steady_clock;
  const EstimationService service(model_);
  const Dataset large_data = mixed_workload(7, 100'000);
  const Dataset small_data = mixed_workload(9, 20);
  const DatasetView large(large_data);
  const DatasetView small(small_data);

  // t0: the fastest of a few warm evaluations of the large view alone.
  Clock::duration t0 = Clock::duration::max();
  for (int i = 0; i < 3; ++i) {
    const ViewJob job{&large};
    const Clock::time_point start = Clock::now();
    const auto timed = service.estimate_views(std::span(&job, 1));
    t0 = std::min(t0, Clock::now() - start);
    ASSERT_TRUE(timed[0].ok()) << timed[0].error;
  }

  ViewJob jobs[2] = {{&large}, {&small}};
  jobs[1].has_deadline = true;
  jobs[1].deadline = Clock::now() + t0 / 4;
  const std::vector<BatchResult> results = service.estimate_views(jobs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok()) << results[0].error;
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[1].deadline_expired);
  EXPECT_EQ(results[1].error, "deadline expired");
}

TEST_F(ShardTest, DroppingTheLastReferenceMidDrainStillCompletesEverything) {
  util::ThreadPool pool(2);
  std::atomic<int> begun{0}, completed{0};
  {
    PoolGate gate(pool);  // a 2-thread pool still has one free slot...
    auto shard = make_shard(pool, 32);
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(shard->enqueue(request({workload_csv(3, 2)}, begun, completed)),
                Shard::Enqueue::kAccepted);
    }
    // ...so the pump may already be running as the owner lets go: the
    // pump's self-reference keeps the shard alive until its queue drains.
    shard.reset();
    gate.release();
  }
  for (int i = 0; i < 5000 && completed.load() < 8; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(completed.load(), 8);
}

TEST_F(ShardTest, ConcurrentEnqueuersEachGetExactlyOneCompletion) {
  util::ThreadPool pool(4);
  const auto shard = make_shard(pool, 1024, /*max_batch=*/8);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<int> begun{0}, completed{0}, accepted{0};
  std::vector<std::thread> enqueuers;
  enqueuers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    enqueuers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        if (shard->enqueue(request({workload_csv(3 + t % 3, 2)}, begun,
                                   completed)) == Shard::Enqueue::kAccepted) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : enqueuers) thread.join();
  wait_for(completed, accepted.load());
  EXPECT_EQ(accepted.load(), kThreads * kPerThread);  // bound never hit
  EXPECT_EQ(begun.load(), accepted.load());
  EXPECT_EQ(completed.load(), accepted.load());
  const Shard::Stats stats = shard->stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(accepted.load()));
  EXPECT_LE(stats.max_batch_requests, 8u);
  EXPECT_GE(stats.batches, stats.completed / 8);
}

}  // namespace
}  // namespace spire::serve
