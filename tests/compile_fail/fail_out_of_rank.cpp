// MUST NOT COMPILE under -Werror=thread-safety-beta.
//
// Violation: acquisition order inverted against a declared
// SPIRE_ACQUIRED_AFTER edge — the static mirror of the runtime lock-rank
// table (util/lock_rank.h): lifecycle before slots, never the reverse.
// Expected diagnostic: "Cycle in acquired_before/after dependencies" or
// "mutex 'lifecycle_' must be acquired before 'slots_'".
#include "util/thread_annotations.h"

namespace {

class Router {
 public:
  void correct_order() {
    spire::util::MutexLock lifecycle_lock(lifecycle_);
    spire::util::MutexLock slots_lock(slots_);  // fine: declared
  }

  void inverted_order() {
    spire::util::MutexLock slots_lock(slots_);
    spire::util::MutexLock lifecycle_lock(lifecycle_);  // BAD: violates
                                                        // ACQUIRED_AFTER
  }

 private:
  spire::util::Mutex lifecycle_{spire::util::lock_rank::Rank::kLifecycle,
                                "lifecycle"};
  spire::util::Mutex slots_ SPIRE_ACQUIRED_AFTER(lifecycle_){
      spire::util::lock_rank::Rank::kSlots, "slots"};
};

}  // namespace

int main() {
  Router router;
  router.correct_order();
  router.inverted_order();
  return 0;
}
