// The runtime half of the concurrency contract (DESIGN.md §13): the
// lock-rank validator must reject out-of-rank acquisition, detect the
// cross-thread join-under-lock cycle behind the server's old shutdown
// deadlock, and — just as important — stay silent on the join shapes that
// are safe (joining a finished thread under a mutex it never takes,
// joining under a mutex ranked below everything the thread takes).
//
// In builds where the validator is compiled out (NDEBUG without
// SPIRE_CHECKED) every test skips: there is nothing to observe.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "util/lock_rank.h"
#include "util/thread_annotations.h"

namespace lock_rank = spire::util::lock_rank;
using lock_rank::Rank;
using spire::util::Mutex;
using spire::util::MutexLock;

namespace {

// The handler is a plain function pointer, so captures land in a global.
std::vector<std::string>& violations() {
  static std::vector<std::string> v;
  return v;
}

void capture_violation(const std::string& message) {
  violations().push_back(message);
}

class LockRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!lock_rank::enabled()) {
      GTEST_SKIP() << "lock-rank validator compiled out "
                      "(NDEBUG build without SPIRE_CHECKED)";
    }
    violations().clear();
    lock_rank::reset_for_testing();
    previous_ = lock_rank::set_violation_handler(&capture_violation);
  }

  void TearDown() override {
    if (!lock_rank::enabled()) return;
    lock_rank::set_violation_handler(previous_);
    lock_rank::reset_for_testing();
  }

  lock_rank::ViolationHandler previous_ = nullptr;
};

bool any_violation_contains(const std::string& needle) {
  for (const std::string& v : violations()) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST_F(LockRankTest, InOrderNestingIsClean) {
  Mutex outer(Rank::kLifecycle, "outer-lifecycle");
  Mutex inner(Rank::kSlots, "inner-slots");
  {
    MutexLock a(outer);
    MutexLock b(inner);
  }
  // Repeat: known edges must stay clean too, not just the first pass.
  {
    MutexLock a(outer);
    MutexLock b(inner);
  }
  EXPECT_TRUE(violations().empty())
      << "unexpected violation: " << violations().front();
}

TEST_F(LockRankTest, OutOfRankAcquisitionIsReported) {
  Mutex low(Rank::kLifecycle, "lifecycle-low");
  Mutex high(Rank::kSlots, "slots-high");
  {
    MutexLock a(high);
    MutexLock b(low);  // kLifecycle < kSlots: wrong order
  }
  ASSERT_FALSE(violations().empty());
  EXPECT_TRUE(any_violation_contains("out-of-rank"));
  EXPECT_TRUE(any_violation_contains("lifecycle-low"));
  EXPECT_TRUE(any_violation_contains("slots-high"));
}

TEST_F(LockRankTest, SameRankNestingIsReported) {
  Mutex a(Rank::kLeaf, "leaf-a");
  Mutex b(Rank::kLeaf, "leaf-b");
  {
    MutexLock la(a);
    MutexLock lb(b);  // equal rank: also forbidden (strictly increasing)
  }
  ASSERT_FALSE(violations().empty());
  EXPECT_TRUE(any_violation_contains("out-of-rank"));
}

TEST_F(LockRankTest, ReleasingAnUnheldMutexIsReported) {
  Mutex mu(Rank::kLeaf, "never-held");
  lock_rank::note_release(mu.rank(), mu.name());
  ASSERT_FALSE(violations().empty());
  EXPECT_TRUE(any_violation_contains("does not hold"));
}

// The shutdown deadlock shape: a thread acquires a mutex in its loop, and
// a shutdown path joins that thread WHILE HOLDING the same mutex. The join
// edge must close a cycle through the thread's lifetime node, named in
// the report.
TEST_F(LockRankTest, JoinUnderAMutexTheThreadAcquiresIsACycle) {
  Mutex slots(Rank::kSlots, "server-slots");
  lock_rank::ThreadToken accept_token("accept-thread");
  std::thread accept([&slots, &accept_token] {
    lock_rank::ScopedThreadLifetime lifetime(accept_token);
    MutexLock lock(slots);  // records accept-thread -> slots
  });
  accept.join();  // the real join is safe; only the *modeled* one is not

  ASSERT_TRUE(violations().empty())
      << "setup must be clean: " << violations().front();
  {
    MutexLock lock(slots);
    lock_rank::note_join(accept_token);  // slots -> accept-thread
  }
  ASSERT_FALSE(violations().empty());
  EXPECT_TRUE(any_violation_contains("cycle"));
  EXPECT_TRUE(any_violation_contains("server-slots"));
  EXPECT_TRUE(any_violation_contains("accept-thread"));
  EXPECT_TRUE(any_violation_contains("PR 6"));
}

// Joining a *finished worker* under a mutex the worker never takes is
// safe. Per-thread tokens are what keep this distinguishable from the
// deadlock above; a single shared lifetime node would flag both.
TEST_F(LockRankTest, ReapingAWorkerThatNeverTakesTheMutexIsClean) {
  Mutex slots(Rank::kSlots, "server-slots");
  Mutex write(Rank::kConnectionWrite, "connection-write");
  lock_rank::ThreadToken worker_token("connection-worker");
  std::thread worker([&write, &worker_token] {
    lock_rank::ScopedThreadLifetime lifetime(worker_token);
    MutexLock lock(write);  // worker touches only its reply stream
  });
  worker.join();
  {
    MutexLock lock(slots);
    lock_rank::note_join(worker_token);  // the reap shape
  }
  EXPECT_TRUE(violations().empty())
      << "false positive: " << violations().front();
}

// Joining under a mutex is fine for a thread that only ever acquires
// higher ranks — consistent ordering, no cycle.
TEST_F(LockRankTest, JoinUnderALowerRankedMutexIsClean) {
  Mutex lifecycle(Rank::kLifecycle, "server-lifecycle");
  Mutex slots(Rank::kSlots, "server-slots");
  lock_rank::ThreadToken accept_token("accept-thread");
  std::thread accept([&slots, &accept_token] {
    lock_rank::ScopedThreadLifetime lifetime(accept_token);
    MutexLock lock(slots);
  });
  accept.join();
  {
    MutexLock lock(lifecycle);
    // lifecycle -> accept -> slots: a DAG
    lock_rank::note_join(accept_token);
  }
  EXPECT_TRUE(violations().empty())
      << "false positive: " << violations().front();
}

// A destroyed token's node is pruned: a finished thread cannot be part of
// any future deadlock, so its edges must not linger and poison later
// (legitimate) acquisitions.
TEST_F(LockRankTest, DestroyedTokenEdgesArePruned) {
  Mutex slots(Rank::kSlots, "server-slots");
  {
    lock_rank::ThreadToken token("short-lived");
    std::thread t([&slots, &token] {
      lock_rank::ScopedThreadLifetime lifetime(token);
      MutexLock lock(slots);
    });
    t.join();
    // token destroyed here: its lifetime -> slots edge goes with it
  }
  lock_rank::ThreadToken fresh("fresh");
  {
    MutexLock lock(slots);
    lock_rank::note_join(fresh);  // no history: must be clean
  }
  EXPECT_TRUE(violations().empty())
      << "stale edge survived pruning: " << violations().front();
}

TEST_F(LockRankTest, TryLockParticipatesInRankChecking) {
  Mutex high(Rank::kSlots, "slots-high");
  Mutex low(Rank::kLifecycle, "lifecycle-low");
  MutexLock lock(high);
  ASSERT_TRUE(low.try_lock());  // succeeds, but records the bad order
  low.unlock();
  ASSERT_FALSE(violations().empty());
  EXPECT_TRUE(any_violation_contains("out-of-rank"));
}

TEST_F(LockRankTest, CondVarWaitReacquiresThroughTheValidator) {
  Mutex mu(Rank::kDrain, "drain");
  spire::util::CondVar cv;
  bool ready = false;
  std::thread setter([&] {
    MutexLock lock(mu);
    ready = true;
    cv.notify_all();
  });
  {
    MutexLock lock(mu);
    cv.wait(mu, [&]() SPIRE_NO_THREAD_SAFETY_ANALYSIS { return ready; });
  }
  setter.join();
  EXPECT_TRUE(violations().empty())
      << "unexpected violation: " << violations().front();
}

}  // namespace
