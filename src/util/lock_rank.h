// Runtime lock-rank validation: the dynamic half of the concurrency
// contract (the static half is util/thread_annotations.h).
//
// Every util::Mutex carries a declared rank from the table below. A
// per-thread stack of held ranks rejects out-of-rank acquisition (locks
// must be taken in strictly increasing rank order), and a process-wide
// acquisition graph — whose nodes are mutex ranks plus one pseudo-node per
// managed thread lifetime — detects cycles that only emerge across
// threads. The cycle detector is what makes the PR 6 deadlock class
// (joining a thread while holding a mutex that thread acquires)
// impossible to reintroduce silently: the join edge closes a cycle
// through the joined thread's lifetime node and is reported naming both
// ranks involved.
//
// The checks are active exactly when SPIRE_DCHECK is (Debug builds, or
// any build with -DSPIRE_CHECKED=ON) and compile to nothing otherwise,
// so Release serving pays zero cost. A violation invokes the installed
// handler; the default prints the full diagnostic to stderr and aborts.
// Tests install a capturing handler instead (set_violation_handler).
#pragma once

#include <cstdint>
#include <string>

namespace spire::util::lock_rank {

#if defined(SPIRE_CHECKED) || !defined(NDEBUG)
#define SPIRE_LOCK_RANK_ENABLED 1
#else
#define SPIRE_LOCK_RANK_ENABLED 0
#endif

/// Compile-time switch mirroring SPIRE_DCHECK_ENABLED: rank bookkeeping
/// exists only in Debug / SPIRE_CHECKED builds.
constexpr bool enabled() { return SPIRE_LOCK_RANK_ENABLED != 0; }

/// The process-wide lock order. A thread may only acquire a mutex whose
/// rank is STRICTLY GREATER than every rank it already holds; two mutexes
/// of the same rank must never be held together. The table is the
/// documented nesting order of the whole tree (DESIGN.md §13) — add new
/// ranks by slotting them between existing values, never by reusing one
/// for a mutex with different nesting.
enum class Rank : int {
  /// Pseudo-rank for managed thread lifetimes (ThreadToken). Never held
  /// on the mutex stack; participates only in the acquisition graph.
  kThreadLifetime = 0,
  kJoin = 10,             // server: join_threads() serialization
  kLifecycle = 20,        // server: drain lifecycle flags + start state
  kConnections = 30,      // server: connection-worker list
  kSlots = 40,            // server: shard + class-binding maps
  kShardQueue = 45,       // serve::Shard pending-request FIFO
  kRegistry = 50,         // serve::ModelRegistry live-mapping map
  kCacheStripe = 55,      // serve::StripedLru stripe (memo + profile caches)
  kDrain = 60,            // server: drain accounting condvar mutex
  kPoolQueue = 70,        // util::ThreadPool work queue
  kConnectionWrite = 80,  // server: per-connection reply stream
  kLeaf = 100,            // default: innermost, nothing may nest under it
};

/// Stable human name for a rank ("connections", "thread-lifetime", ...);
/// violation messages are built from these.
const char* rank_name(Rank rank);

/// One managed thread's lifetime as a graph node. Construct it in the
/// spawning thread, keep it alive until after join, and have the spawned
/// thread hold a ScopedThreadLifetime over its whole body. Destroying the
/// token prunes its node (a finished thread can no longer deadlock).
class ThreadToken {
 public:
  explicit ThreadToken(std::string name);
  ~ThreadToken();
  ThreadToken(const ThreadToken&) = delete;
  ThreadToken& operator=(const ThreadToken&) = delete;

  /// Graph node id; 0 when the validator is compiled out.
  std::uint64_t node() const { return node_; }

 private:
  std::uint64_t node_ = 0;
};

/// RAII marker a managed thread holds for its whole run: while active,
/// every mutex the thread acquires records a lifetime -> rank edge.
class ScopedThreadLifetime {
 public:
  explicit ScopedThreadLifetime(const ThreadToken& token);
  ~ScopedThreadLifetime();
  ScopedThreadLifetime(const ScopedThreadLifetime&) = delete;
  ScopedThreadLifetime& operator=(const ScopedThreadLifetime&) = delete;
};

namespace detail {
void do_note_acquire(Rank rank, const char* name);
void do_note_release(Rank rank, const char* name);
void do_note_join(const ThreadToken& token);
}  // namespace detail

/// Called by util::Mutex just before blocking on the native lock, so an
/// ordering violation is reported before the deadlock it predicts hangs
/// the process. Checks the per-thread stack rule and feeds the graph.
inline void note_acquire(Rank rank, const char* name) {
  if constexpr (enabled()) detail::do_note_acquire(rank, name);
}

/// Called by util::Mutex on unlock; pops the rank off the held stack.
inline void note_release(Rank rank, const char* name) {
  if constexpr (enabled()) detail::do_note_release(rank, name);
}

/// Declare "this thread is about to join the thread behind `token`".
/// Records held-rank -> lifetime edges in the graph; a cycle through the
/// token's node is exactly the PR 6 join-under-lock deadlock shape.
inline void note_join(const ThreadToken& token) {
  if constexpr (enabled()) detail::do_note_join(token);
}

/// Violation sink. The default handler prints `message` to stderr and
/// aborts; tests install a capturing handler and get the old one back.
using ViolationHandler = void (*)(const std::string& message);
ViolationHandler set_violation_handler(ViolationHandler handler);

/// Drops every recorded edge and lifetime node. Only safe while no thread
/// holds a util::Mutex; exists so tests start from a clean graph.
void reset_for_testing();

}  // namespace spire::util::lock_rank
