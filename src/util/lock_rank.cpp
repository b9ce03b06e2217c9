#include "util/lock_rank.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

namespace spire::util::lock_rank {

const char* rank_name(Rank rank) {
  switch (rank) {
    case Rank::kThreadLifetime:
      return "thread-lifetime";
    case Rank::kLifecycle:
      return "lifecycle";
    case Rank::kSlots:
      return "slots";
    case Rank::kShardQueue:
      return "shard-queue";
    case Rank::kRegistry:
      return "registry";
    case Rank::kCache:
      return "cache";
    case Rank::kDrain:
      return "drain";
    case Rank::kPoolQueue:
      return "pool-queue";
    case Rank::kConnectionWrite:
      return "connection-write";
    case Rank::kLeaf:
      return "leaf";
  }
  return "unknown";
}

namespace {

void default_handler(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::abort();
}

std::atomic<ViolationHandler> g_handler{&default_handler};

/// Graph nodes are mutex ranks (id = rank value) plus one id per live
/// ThreadToken (ids start at kFirstTokenNode so they never collide with a
/// rank). Everything lives behind one internal std::mutex — the validator
/// itself must not depend on the machinery it validates.
constexpr std::uint64_t kFirstTokenNode = 1000;

struct GraphState {
  std::mutex mu;
  // Node id -> display name. Rank nodes remember the most recent mutex
  // instance name seen at that rank, which is what diagnostics print.
  std::map<std::uint64_t, std::string> names;
  std::map<std::uint64_t, std::vector<std::uint64_t>> out;
  std::set<std::pair<std::uint64_t, std::uint64_t>> edges;
  std::uint64_t next_token = kFirstTokenNode;
};

GraphState& graph() {
  static GraphState* s = new GraphState();  // never destroyed: threads may
  return *s;                                // outlive static teardown
}

struct Held {
  Rank rank;
  const char* name;
};

thread_local std::vector<Held> t_held;
thread_local std::uint64_t t_lifetime = 0;

Rank node_rank(std::uint64_t node) {
  return node >= kFirstTokenNode ? Rank::kThreadLifetime
                                 : static_cast<Rank>(node);
}

std::string describe_node(const GraphState& g, std::uint64_t node) {
  const auto it = g.names.find(node);
  const std::string label = it == g.names.end() ? "?" : it->second;
  const char* kind = node >= kFirstTokenNode ? "thread" : "mutex";
  return std::string(kind) + " '" + label + "' (rank " +
         rank_name(node_rank(node)) + ")";
}

/// Inserts from -> to; when the reverse path exists the new edge closes a
/// cycle, returned as a printable chain. Caller holds g.mu.
std::string add_edge_locked(GraphState& g, std::uint64_t from,
                            std::uint64_t to) {
  if (from == to) {
    return describe_node(g, from) + " -> itself";
  }
  if (!g.edges.insert({from, to}).second) return {};  // known edge: checked
  g.out[from].push_back(to);
  // DFS for a path to -> ... -> from; with the new edge that is a cycle.
  std::map<std::uint64_t, std::uint64_t> parent;
  std::vector<std::uint64_t> stack{to};
  parent[to] = to;
  bool found = false;
  while (!stack.empty() && !found) {
    const std::uint64_t node = stack.back();
    stack.pop_back();
    const auto it = g.out.find(node);
    if (it == g.out.end()) continue;
    for (const std::uint64_t next : it->second) {
      if (parent.count(next)) continue;
      parent[next] = node;
      if (next == from) {
        found = true;
        break;
      }
      stack.push_back(next);
    }
  }
  if (!found) return {};
  // Reconstruct from -> ... -> to -> from (the new edge shown first).
  std::vector<std::uint64_t> path;
  for (std::uint64_t node = from; node != to; node = parent.at(node)) {
    path.push_back(node);
  }
  path.push_back(to);
  std::string chain = describe_node(g, from);
  for (auto it2 = path.rbegin(); it2 != path.rend(); ++it2) {
    if (*it2 == from) continue;
    chain += " -> " + describe_node(g, *it2);
  }
  chain += " -> " + describe_node(g, from);
  return chain;
}

void report(const std::string& message) {
  g_handler.load(std::memory_order_acquire)(message);
}

}  // namespace

namespace detail {

void do_note_acquire(Rank rank, const char* name) {
  std::string violation;
  if (!t_held.empty()) {
    const Held& top = t_held.back();
    if (static_cast<int>(rank) <= static_cast<int>(top.rank)) {
      violation = std::string("lock-rank: out-of-rank acquisition: mutex '") +
                  name + "' (rank " + rank_name(rank) +
                  ") acquired while holding mutex '" + top.name + "' (rank " +
                  rank_name(top.rank) +
                  "); locks must be acquired in strictly increasing rank "
                  "order (DESIGN.md §13)";
    }
  }
  std::string cycle;
  {
    GraphState& g = graph();
    std::lock_guard<std::mutex> lock(g.mu);
    const auto node = static_cast<std::uint64_t>(rank);
    g.names[node] = name;
    for (const Held& held : t_held) {
      const std::string chain =
          add_edge_locked(g, static_cast<std::uint64_t>(held.rank), node);
      if (!chain.empty() && cycle.empty()) cycle = chain;
    }
    if (t_lifetime != 0) {
      const std::string chain = add_edge_locked(g, t_lifetime, node);
      if (!chain.empty() && cycle.empty()) cycle = chain;
    }
  }
  t_held.push_back({rank, name});
  if (!violation.empty()) report(violation);
  if (!cycle.empty()) {
    report("lock-rank: cycle detected: " + cycle +
           "; this acquisition order can deadlock");
  }
}

void do_note_release(Rank rank, const char* name) {
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->rank == rank && it->name == name) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
  report(std::string("lock-rank: releasing mutex '") + name + "' (rank " +
         rank_name(rank) + ") that this thread does not hold");
}

void do_note_join(const ThreadToken& token) {
  if (token.node() == 0) return;
  std::string cycle;
  {
    GraphState& g = graph();
    std::lock_guard<std::mutex> lock(g.mu);
    for (const Held& held : t_held) {
      const std::string chain = add_edge_locked(
          g, static_cast<std::uint64_t>(held.rank), token.node());
      if (!chain.empty() && cycle.empty()) cycle = chain;
    }
    if (t_lifetime != 0 && t_lifetime != token.node()) {
      const std::string chain = add_edge_locked(g, t_lifetime, token.node());
      if (!chain.empty() && cycle.empty()) cycle = chain;
    }
  }
  if (!cycle.empty()) {
    report("lock-rank: cycle detected: " + cycle +
           "; joining a thread while holding a mutex it acquires can "
           "deadlock (the PR 6 shutdown-vs-accept shape)");
  }
}

}  // namespace detail

ThreadToken::ThreadToken(std::string name) {
  if constexpr (!enabled()) return;
  GraphState& g = graph();
  std::lock_guard<std::mutex> lock(g.mu);
  node_ = g.next_token++;
  g.names[node_] = std::move(name);
}

ThreadToken::~ThreadToken() {
  if (node_ == 0) return;
  // A finished thread can no longer participate in a deadlock; pruning its
  // node keeps the graph bounded by *live* threads, not threads ever made.
  GraphState& g = graph();
  std::lock_guard<std::mutex> lock(g.mu);
  g.names.erase(node_);
  g.out.erase(node_);
  for (auto it = g.edges.begin(); it != g.edges.end();) {
    it = (it->first == node_ || it->second == node_) ? g.edges.erase(it)
                                                     : std::next(it);
  }
  for (auto& [from, targets] : g.out) {
    (void)from;
    std::erase(targets, node_);
  }
}

ScopedThreadLifetime::ScopedThreadLifetime(const ThreadToken& token) {
  if (token.node() != 0) t_lifetime = token.node();
}

ScopedThreadLifetime::~ScopedThreadLifetime() { t_lifetime = 0; }

ViolationHandler set_violation_handler(ViolationHandler handler) {
  return g_handler.exchange(handler ? handler : &default_handler,
                            std::memory_order_acq_rel);
}

void reset_for_testing() {
  GraphState& g = graph();
  std::lock_guard<std::mutex> lock(g.mu);
  g.names.clear();
  g.out.clear();
  g.edges.clear();
  t_held.clear();
}

}  // namespace spire::util::lock_rank
