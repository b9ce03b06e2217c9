// MUST NOT COMPILE under -Werror=thread-safety-analysis.
//
// Violation: a SPIRE_REQUIRES(mutex_) method is called without the lock
// held. The `_locked` suffix convention (DESIGN.md §13) is machine-checked
// through exactly this attribute — see
// serve::ModelRegistry::store_bytes_locked for a real use. Expected diagnostic: "calling function 'push_locked' requires
// holding mutex 'mutex_' exclusively".
#include "util/thread_annotations.h"

namespace {

class Queue {
 public:
  void push() {
    push_locked();  // BAD: precondition mutex_ not held
  }

  void push_properly() {
    spire::util::MutexLock lock(mutex_);
    push_locked();  // fine
  }

 private:
  void push_locked() SPIRE_REQUIRES(mutex_) { ++size_; }

  spire::util::Mutex mutex_{spire::util::lock_rank::Rank::kLeaf, "queue"};
  int size_ SPIRE_GUARDED_BY(mutex_) = 0;
};

}  // namespace

int main() {
  Queue queue;
  queue.push();
  queue.push_properly();
  return 0;
}
