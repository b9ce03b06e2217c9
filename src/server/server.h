// Resident estimation server, designed around failure.
//
// The serving data plane (serve::MappedModel + ModelRegistry) is immutable
// and lock-free; what was missing is a control plane that survives the
// conditions a long-running process actually meets: malformed and torn
// frames, clients that stall mid-write, load spikes, model republishes,
// and operators sending SIGTERM. EstimationServer is that control plane:
//
//  * transports: a UNIX-domain socket (one reader thread per accepted
//    connection) or any already-open duplex fd pair (stdin/stdout for
//    `spire_cli serve --stdio`, socketpairs in tests). All descriptor I/O
//    goes through util/posix_io.h — EINTR-retried, poll-gated with
//    per-connection read/write timeouts, SIGPIPE ignored — so one broken
//    or malicious peer can never wedge or kill the process;
//  * parsing: the strict bounded protocol parser (server/protocol.h);
//    malformed input becomes a structured kErrorReply, and only errors
//    that poison the stream framing close the connection;
//  * sharded routing: every model id gets its own serve::Shard — a pinned
//    mapping, a bounded request FIFO, and a batch coalescer pumping on the
//    shared util::ThreadPool. Requests route by explicit model id or
//    through a class -> shard binding; admission control is PER SHARD, so
//    one hot model's flood sheds with kOverloaded while every other shard
//    keeps serving (DESIGN.md §14);
//  * one request shape: the connection reader resolves every workload to
//    a sampling::DatasetView before enqueue, and shard pumps evaluate
//    views only. A binary profile is parsed in place over its frame; a
//    text CSV that misses the memo-cache is looked up in a
//    serve::ProfileCache (the parse memoized by workload hash) and, on a
//    miss, parsed on the reader and published there. A CSV that fails to
//    parse, or whose deadline passed before its parse, is answered on the
//    reader as that workload's error result;
//  * memo-cache: a serve::EstimateCache keyed on (model id, wyhash of the
//    workload's wire bytes, merge) answers repeat requests from memory with
//    reply payloads byte-identical to a recompute, consulted before
//    enqueue and filled after evaluation. A request with nothing left to
//    evaluate replies inline and never takes a queue slot;
//  * frame intake: every inbound frame is read, without zero fill, into a
//    receive buffer leased from its connection's FramePool
//    (server/frame_pool.h). A text request's buffer returns to the
//    connection as soon as its dispatch returns (its workloads are parsed
//    by then); a binary request's profiles are evaluated from views into
//    its buffer, which returns when the shard releases the request;
//  * binary profiles + pipelining (protocol v2): kEstimateBinRequest
//    carries spire-profile-bin workloads the reader turns into span views
//    over the frame (serve/profile_bin.h) — no CSV parse, no Dataset
//    materialization, no string copies; replies are written
//    scatter-gather (writev, header on the stack, payload from its own
//    string), and a connection may keep many frames in flight — replies
//    are matched by seq and may return out of order;
//  * deadlines: each request's relative deadline is pinned to an absolute
//    steady_clock instant at frame receipt and enforced twice — when the
//    shard pump dequeues it (an expired request is never evaluated) and
//    per workload slice, before the reader parses it and right before the
//    kernel evaluates it, so a slice whose budget ran out while earlier
//    slices of the same pump batch were evaluated reports
//    kDeadlineExceeded;
//  * hot swap: a swap resolves the registry's latest id, atomically
//    repoints the class -> shard binding, and retires the old shard when
//    nothing else routes to it — retired shards reject new work but drain
//    everything already queued, so in-flight requests finish on the model
//    they were routed to and still get exactly one reply each;
//  * threads: every thread has exactly one owner. The server owns its
//    util::ThreadPool workers and, after start(), the accept thread; the
//    accept thread owns the reader thread of each connection it accepts,
//    joins finished readers at the next accept and the rest before it
//    returns. No other thread joins a reader, and no join runs under a
//    lock. A server never started runs only its pool workers;
//  * shutdown: begin_shutdown() (or SIGTERM/SIGINT, which the thread in
//    run()/wait_until_drained() sees through the shutdown latch) stops
//    accepting, answers new requests with kShuttingDown, and drains
//    in-flight work within a timeout. No thread waits on a clock: the
//    accept loop wakes on that latch, readers on one set when it ends;
//  * chaos: ChaosOptions injects deterministic faults (stalled reads,
//    mid-request swaps, forced overload) at fixed hook points so the
//    failure paths are first-class tested code, not dead branches.
//
// Invariant the chaos suite enforces: every complete, well-framed request
// frame receives exactly one reply frame (success or structured error) —
// torn frames (never completed) receive none, and the connection closes.
// The invariant survives shard retirement: a mid-request swap may retire
// the shard a request sits in, but the shard drains its queue regardless.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/estimate_cache.h"
#include "serve/profile_cache.h"
#include "serve/registry.h"
#include "serve/shard.h"
#include "server/chaos.h"
#include "server/frame_pool.h"
#include "server/protocol.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace spire::server {

struct ServerOptions {
  /// UNIX-domain socket path for start(); unused by serve_connection_fds.
  std::string socket_path;
  /// Worker threads pumping shard batches.
  std::size_t workers = 4;
  /// Per-shard admission bound. Requests enqueued beyond the bound on
  /// THEIR shard are shed with kOverloaded — other shards are unaffected.
  std::size_t max_queue = 64;
  /// Estimate memo-cache entries across all models; 0 disables caching.
  std::size_t cache_entries = 256;
  /// Parsed-profile cache entries (text workloads the fleet has already
  /// parsed are not parsed again); 0 disables it.
  std::size_t profile_cache_entries = 256;
  /// Per-connection budget for finishing one frame read / one reply write
  /// once started; a peer that stalls mid-frame is disconnected.
  int read_timeout_ms = 10'000;
  int write_timeout_ms = 10'000;
  /// How long begin_shutdown waits for in-flight work before giving up.
  int drain_timeout_ms = 5'000;
  /// Deadlines above this are clamped (a client cannot pin a worker
  /// arbitrarily long by declaring an enormous deadline).
  std::uint32_t max_deadline_ms = 60'000;
  Limits limits{};
  ChaosOptions chaos{};
  /// Test-only: handed to every shard (serve::Shard::EvaluationGate). A
  /// test blocks in it to hold a shard's pump busy; serving leaves it
  /// empty.
  serve::Shard::EvaluationGate evaluation_gate;
};

class EstimationServer {
 public:
  /// The registry must outlive the server. No model is resolved yet;
  /// call set_model / swap_to_latest, or let the first request trigger a
  /// lazy resolve of its class binding.
  EstimationServer(serve::ModelRegistry& registry, ServerOptions options);

  /// Equivalent to begin_shutdown() + wait_until_drained().
  ~EstimationServer();

  EstimationServer(const EstimationServer&) = delete;
  EstimationServer& operator=(const EstimationServer&) = delete;

  // --- model routing --------------------------------------------------------

  /// Binds `model_class` to the shard serving an explicit registry id
  /// (creating the shard if needed). Throws when the id is malformed or
  /// unknown.
  void set_model(const std::string& id, const std::string& model_class = "")
      SPIRE_EXCLUDES(slots_mutex_);

  /// Resolves the registry's latest id, repoints `model_class`'s binding
  /// at its shard, retires the previous shard when no binding routes to it
  /// anymore, and bumps the swap generation. Returns false (with `error`
  /// naming the registry root and the candidate id) when the registry is
  /// empty or the artifact cannot be mapped; the binding keeps serving its
  /// previous shard in that case.
  bool swap_to_latest(const std::string& model_class, std::string* id_out,
                      std::string* error_out) SPIRE_EXCLUDES(slots_mutex_);

  /// Current id of the default class binding ("" when nothing resolved yet).
  std::string current_model_id() const SPIRE_EXCLUDES(slots_mutex_);

  /// Total successful swaps across all bindings. Monotonic; observable via
  /// stats and in every estimate reply.
  std::uint64_t swap_generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  // --- socket transport -----------------------------------------------------

  /// Binds, listens, and spawns the accept thread. Throws std::runtime_error
  /// ("server: ...") when the socket cannot be created, when the server
  /// was already started (checked under lifecycle_mutex_, so concurrent
  /// start() calls race safely: exactly one wins), and when shutdown has
  /// begun.
  void start() SPIRE_EXCLUDES(lifecycle_mutex_);

  /// Serves one already-open duplex connection in the calling thread;
  /// returns when the peer closes, the stream becomes unframeable, or a
  /// drain has ended (wait_until_drained sets the drained latch). Frames
  /// that arrive while draining get kShuttingDown. `in_fd`/`out_fd` may be
  /// the same descriptor (socket) or a pipe pair (--stdio). The fds are
  /// not closed.
  /// For a signal to drain the server while the peer holds the stream
  /// open, run this on its own thread and run() on another, as
  /// `spire_cli serve --stdio` does.
  void serve_connection_fds(int in_fd, int out_fd);

  // --- shutdown -------------------------------------------------------------

  /// SIGTERM/SIGINT -> graceful shutdown. The handler only writes one
  /// byte to the shutdown latch (async-signal safe, never blocks); the
  /// signal is acted on by the thread in run()/wait_until_drained(), which
  /// calls begin_shutdown() when it sees the byte. A process that installs
  /// the handlers must therefore have a thread in run() — `spire_cli serve`
  /// enters it in both modes. Also ignores SIGPIPE. Only one server per
  /// process may install handlers.
  void install_signal_handlers();

  /// Stops accepting connections and marks the server draining: frames
  /// already queued or in flight finish, new requests get kShuttingDown.
  /// Idempotent, callable from any thread.
  void begin_shutdown() SPIRE_EXCLUDES(lifecycle_mutex_);

  bool shutdown_requested() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// Blocks on the shutdown latch until shutdown was requested (calling
  /// begin_shutdown() itself when a signal wrote the latch), waits for
  /// in-flight work to drain, sets the drained latch that stops every
  /// reader, and joins the accept thread, which has joined its readers by
  /// then. Returns true when the drain completed within drain_timeout_ms
  /// of the shutdown request. Any number of threads may wait; each returns
  /// after the join.
  bool wait_until_drained() SPIRE_EXCLUDES(lifecycle_mutex_, drain_mutex_);

  /// What the serving thread runs in both transports: blocks in
  /// wait_until_drained() until begin_shutdown or a signal. Returns 0 on a
  /// clean drain, 1 when the drain timed out.
  int run();

  // --- observability --------------------------------------------------------

  /// Ordering contract: every counter a request moves is published before
  /// that request's reply bytes are written, so a snapshot taken after a
  /// client has read a reply already counts it. frame_buffer_allocs (frames
  /// whose connection had no spare receive buffer to lend) is counted when
  /// the frame's buffer is leased, before its payload is read. bytes_written
  /// and replies_ok/replies_error count a reply when its write begins: a write
  /// that then fails or stalls past write_timeout_ms stays counted (the
  /// counters never go back), its connection is closed, and a stall also
  /// counts in io_timeouts.
  StatsReply stats_snapshot() const SPIRE_EXCLUDES(slots_mutex_);

  /// One row per live or draining shard, sorted by model id.
  ShardsReply shards_snapshot() const SPIRE_EXCLUDES(slots_mutex_);

  const ServerOptions& options() const { return options_; }
  const std::string& socket_path() const { return options_.socket_path; }

 private:
  struct Connection;
  struct PendingEstimate;

  /// Owns `listen_fd` (a bound, listening socket) for its whole run and
  /// closes it once draining starts. The descriptor is handed over by
  /// value from start(), so only the accept thread ever sees it. Waits on
  /// it and the shutdown latch. Owns every reader thread it spawns: joins
  /// finished ones at the next accept, and the rest (which exit on the
  /// drained latch or EOF) before it returns.
  void accept_loop(int listen_fd);
  /// Joins the accept thread exactly once, with no lock held; a second
  /// caller returns only after that join has finished.
  void join_threads();
  void connection_loop(std::shared_ptr<Connection> conn);
  /// One frame: reads, parses, dispatches; returns false when the
  /// connection should close.
  bool serve_one_frame(const std::shared_ptr<Connection>& conn);
  /// Decodes a text request and hands its CSVs, borrowed from the frame,
  /// to the shared tail, which parses the memo misses. The frame's lease
  /// ends when this returns.
  void dispatch_estimate(const std::shared_ptr<Connection>& conn,
                         std::uint64_t seq, FramePool::Frame frame,
                         std::chrono::steady_clock::time_point received);
  /// The v2 binary twin: decodes kEstimateBinRequest zero-copy and parses
  /// the spire-profile-bin workloads into span views over the frame (whose
  /// lease it pins until the shard releases the request) — no Dataset
  /// materialization, no string copies.
  void dispatch_estimate_bin(const std::shared_ptr<Connection>& conn,
                             std::uint64_t seq, FramePool::Frame frame,
                             std::chrono::steady_clock::time_point received);
  /// Both dispatch paths reduce their request to this neutral form before
  /// the shared tail: routing, memo-cache consult, resolving every miss to
  /// a view (text: ProfileCache, else a parse), and either an inline reply
  /// or an enqueue of the views.
  struct EstimateInputs;
  void dispatch_estimate_common(const std::shared_ptr<Connection>& conn,
                                std::uint64_t seq, EstimateInputs inputs,
                                std::chrono::steady_clock::time_point received);
  /// Shard completion callback body: encodes each fresh result once into
  /// its reply block and the memo-cache, sends, and settles drain
  /// accounting.
  void finish_estimate(const std::shared_ptr<PendingEstimate>& pending,
                       std::vector<serve::BatchResult> results,
                       bool expired_in_queue);
  /// The one estimate-reply writer, for inline replies and finish_estimate:
  /// the reply prefix plus `pending`'s already-encoded result blocks.
  void send_estimate_reply(const PendingEstimate& pending);

  bool send_frame(const std::shared_ptr<Connection>& conn, FrameType type,
                  std::uint64_t seq, std::string payload);
  bool send_error(const std::shared_ptr<Connection>& conn, std::uint64_t seq,
                  ErrorCode code, const std::string& message);

  /// Returns the shard serving `id`, creating (and registering) it on
  /// first use. Null with `error_out` filled when the id cannot be opened.
  std::shared_ptr<serve::Shard> shard_for_id(const std::string& id,
                                             std::string* error_out)
      SPIRE_EXCLUDES(slots_mutex_);
  /// Resolves `model_class`'s binding, lazily swapping to the registry's
  /// latest on first use. Null with `error_out` filled on failure.
  std::shared_ptr<serve::Shard> route_class(const std::string& model_class,
                                            std::string* error_out)
      SPIRE_EXCLUDES(slots_mutex_);
  /// Repoints `model_class` -> `shard`; retires the displaced shard when
  /// no binding routes to it anymore.
  void rebind(const std::string& model_class,
              const std::shared_ptr<serve::Shard>& shard)
      SPIRE_EXCLUDES(slots_mutex_);

  serve::ModelRegistry& registry_;
  ServerOptions options_;

  // Shard routing state. shards_: canonical model id -> live shard;
  // bindings_: class name -> the shard its traffic routes to. A shard
  // displaced from its last binding moves to draining_shards_ (weak: the
  // row disappears from listings once the last reference drops).
  mutable util::Mutex slots_mutex_{util::lock_rank::Rank::kSlots,
                                   "server-slots"};
  std::map<std::string, std::shared_ptr<serve::Shard>> shards_
      SPIRE_GUARDED_BY(slots_mutex_);
  std::map<std::string, std::shared_ptr<serve::Shard>> bindings_
      SPIRE_GUARDED_BY(slots_mutex_);
  std::vector<std::weak_ptr<serve::Shard>> draining_shards_
      SPIRE_GUARDED_BY(slots_mutex_);
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> shards_created_{0};
  std::atomic<std::uint64_t> shards_retired_{0};

  serve::EstimateCache estimate_cache_;
  serve::ProfileCache profile_cache_;

  std::unique_ptr<util::ThreadPool> pool_;

  // Admission / drain accounting. queued_: accepted into a shard queue,
  // not yet begun; active_: being resolved on its reader, evaluated, or
  // answered. Both zero = drained.
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::size_t> active_{0};
  util::Mutex drain_mutex_{util::lock_rank::Rank::kDrain, "server-drain"};
  util::CondVar drain_cv_;

  std::atomic<bool> draining_{false};  // no new requests
  util::Mutex lifecycle_mutex_{util::lock_rank::Rank::kLifecycle,
                               "server-lifecycle"};
  std::chrono::steady_clock::time_point drain_started_
      SPIRE_GUARDED_BY(lifecycle_mutex_){};
  bool started_ SPIRE_GUARDED_BY(lifecycle_mutex_) = false;

  // Shutdown latch: a non-blocking pipe the signal handler and the first
  // begin_shutdown() each write one byte to. Nothing ever reads it, so
  // once written it stays readable and wakes every wait_until_drained()
  // and the accept loop. The drained latch, set by wait_until_drained()
  // once the drain has ended, wakes every reader the same way.
  int wake_pipe_[2] = {-1, -1};
  int drained_pipe_[2] = {-1, -1};

  std::thread accept_thread_;
  util::lock_rank::ThreadToken accept_token_{"server-accept"};
  std::once_flag join_once_;
  std::atomic<std::uint64_t> next_connection_id_{1};

  // Counters (stats_snapshot sorts them by name).
  std::atomic<std::uint64_t> accepted_connections_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> estimate_requests_{0};
  std::atomic<std::uint64_t> replies_ok_{0};
  std::atomic<std::uint64_t> replies_error_{0};
  std::atomic<std::uint64_t> malformed_frames_{0};
  std::atomic<std::uint64_t> shed_overloaded_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> io_timeouts_{0};
  std::atomic<std::uint64_t> chaos_injected_{0};
  // Wire accounting (PR 10): raw bytes moved, text-vs-binary request mix,
  // and how many frames arrived while earlier requests from the same
  // connection were still in flight (the observable form of pipelining).
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> frames_pipelined_{0};
  std::atomic<std::uint64_t> requests_text_{0};
  std::atomic<std::uint64_t> requests_binary_{0};
  // Frames that found no spare receive buffer on their connection.
  std::atomic<std::uint64_t> frame_buffer_allocs_{0};
};

}  // namespace spire::server
