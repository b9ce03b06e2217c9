#include "server/server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <list>
#include <stdexcept>
#include <system_error>
#include <tuple>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "counters/events.h"
#include "serve/model_eval.h"
#include "serve/profile_bin.h"
#include "util/posix_io.h"

namespace spire::server {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("server: " + what);
}

// std::strerror is not thread-safe (concurrency-mt-unsafe); error_code
// formats the same message from a static table without shared state.
std::string errno_text() {
  return std::error_code(errno, std::generic_category()).message();
}

std::chrono::milliseconds ms(long long count) {
  return std::chrono::milliseconds(count);
}

std::string bounded_message(const std::string& message, std::size_t max) {
  if (message.size() <= max) return message;
  return message.substr(0, max);
}

// Shutdown-latch write end for the async-signal-safe handler. One server
// per process may own the handlers at a time.
std::atomic<int> g_signal_pipe{-1};

// Writes one byte to a shutdown latch. The pipe is non-blocking and never
// read, so a full pipe only means the latch is already set.
void set_latch(int fd) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t rc = ::write(fd, &byte, 1);
}

extern "C" void spire_forward_shutdown_signal(int) {
  const int fd = g_signal_pipe.load(std::memory_order_relaxed);
  if (fd >= 0) set_latch(fd);
}

}  // namespace

/// One peer. The fds are closed by the LAST holder of the shared_ptr, so a
/// shard pump can still write its reply after the reader thread exited.
///
/// Inbound frames are read into buffers leased from `frames`, the
/// connection's own FramePool (server/frame_pool.h). Control frames, text
/// estimates (parsed before the reader reads on) and binary estimates
/// answered without evaluation hand the buffer back before the reader
/// reads on; a binary estimate whose profiles still have to be evaluated
/// hands it back when the shard pump releases the request. Reply payloads
/// are separate strings written from the thread that finishes the request.
struct EstimationServer::Connection {
  Connection(int in, int out, bool owns, std::uint64_t cid,
             const ChaosOptions& chaos_options)
      : in_fd(in), out_fd(out), owns_fds(owns), id(cid),
        chaos(chaos_options, cid) {}
  ~Connection() {
    if (owns_fds) {
      util::close_quietly(in_fd);
      if (out_fd != in_fd) util::close_quietly(out_fd);
    }
  }

  int in_fd;
  int out_fd;
  bool owns_fds;
  std::uint64_t id;
  util::Mutex write_mutex{util::lock_rank::Rank::kConnectionWrite,
                          "connection-write"};
  std::atomic<bool> dead{false};
  /// Estimates accepted onto a shard whose reply has not been sent yet. A
  /// frame arriving while this is nonzero IS pipelining in its observable
  /// form (the server never required one-frame-at-a-time; v2 clients
  /// finally exploit it).
  std::atomic<std::size_t> in_flight{0};
  const std::shared_ptr<FramePool> frames = FramePool::make();
  ChaosRng chaos;
};

/// One estimate request in flight on a shard: everything finish_estimate
/// needs to assemble the reply after the pump evaluated the rest.
/// Indices are positions in the ORIGINAL request's workload list; the shard
/// only ever sees the workloads the reader could not answer.
struct EstimationServer::PendingEstimate {
  std::shared_ptr<Connection> conn;
  std::uint64_t seq = 0;
  /// kEstimateReply for text requests, kEstimateBinReply for binary; the
  /// payload encoding is identical, so cached result bytes are shared.
  FrameType reply_type = FrameType::kEstimateReply;
  std::string model_id;
  std::uint8_t merge_byte = 0;
  /// The encoded WorkloadResult block of every original workload, in
  /// request order: the reply is its prefix plus these bytes. The reader
  /// fills those it answers — a memo hit, a CSV that failed to parse, or a
  /// slice whose deadline passed before its parse; "" marks a workload the
  /// shard evaluates, filled by finish_estimate (an encoded result is
  /// never empty, so "" is unambiguous). Only memo hits come from the
  /// memo-cache, and none of the reader's blocks is memoized.
  std::vector<std::string> blocks;
  /// How many `blocks` are slices that expired before their parse; each
  /// counts in deadline_expired once the reply carrying it is built.
  std::size_t expired_slices = 0;
  /// Original index and cache hash of each evaluated workload, in shard
  /// batch order.
  std::vector<std::size_t> miss_index;
  std::vector<std::uint64_t> miss_hash;
};

namespace {

/// Everything a shard request's views point into, released by the shard
/// right after the request's `complete`. A binary request pins its frame
/// and the profiles parsed in place over it; a text request pins only the
/// parses its workloads resolved to, so its frame goes back to the
/// connection when dispatch returns.
struct RequestPins {
  FramePool::Frame frame;
  std::vector<serve::profile_bin::ProfileView> profiles;
  std::vector<std::shared_ptr<const serve::ParsedProfile>> parses;
};

}  // namespace

/// The neutral request form both dispatch paths reduce to before the
/// shared tail. `hashes[i]` doubles as the estimate-cache hash and (for
/// text workloads) the ProfileCache key — one
/// EstimateCache::workload_hash (wyhash) per workload.
struct EstimationServer::EstimateInputs {
  FrameType reply_type = FrameType::kEstimateReply;
  std::string model_class;
  std::string model_id;
  std::uint32_t deadline_ms = 0;
  std::uint8_t merge = 0;
  std::vector<std::uint64_t> hashes;
  /// Per workload: its view, or nullptr for a text workload not resolved
  /// yet — the tail parses `csvs[i]` (borrowed from the caller's frame)
  /// only if the memo-cache misses.
  std::vector<const sampling::DatasetView*> views;
  std::vector<std::string_view> csvs;
  /// Pins what `views` point into until the shard releases the request.
  std::shared_ptr<RequestPins> pins = std::make_shared<RequestPins>();
};

EstimationServer::EstimationServer(serve::ModelRegistry& registry,
                                   ServerOptions options)
    : registry_(registry), options_(std::move(options)),
      estimate_cache_(options_.cache_entries),
      profile_cache_(options_.profile_cache_entries) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.max_queue == 0) options_.max_queue = 1;
  util::ignore_sigpipe();
  if (::pipe2(wake_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
    fail("cannot create the shutdown latch: " + errno_text());
  }
  pool_ = std::make_unique<util::ThreadPool>(options_.workers);
}

EstimationServer::~EstimationServer() {
  begin_shutdown();
  wait_until_drained();
  // Join the workers BEFORE any member destructs: drain_mutex_/drain_cv_
  // are declared after pool_, so default destruction order would tear
  // them down while a worker can still be inside its post-reply notify.
  // This also quiesces every shard pump, so the shard maps destruct with
  // no task left holding a shard alive.
  pool_.reset();
  int expected = wake_pipe_[1];
  g_signal_pipe.compare_exchange_strong(expected, -1);
  util::close_quietly(wake_pipe_[0]);
  util::close_quietly(wake_pipe_[1]);
}

// --- model routing ----------------------------------------------------------

std::shared_ptr<serve::Shard> EstimationServer::shard_for_id(
    const std::string& id, std::string* error_out) {
  {
    util::MutexLock lock(slots_mutex_);
    if (const auto it = shards_.find(id); it != shards_.end()) {
      return it->second;
    }
  }
  // Map outside the lock: registry I/O must not block routing for other
  // shards. Losing the ensuing insert race is benign — the loser's shard
  // never pumped, so it destructs quietly.
  std::shared_ptr<const serve::MappedModel> model;
  try {
    model = registry_.open(id);
  } catch (const std::exception& e) {
    if (error_out) *error_out = e.what();
    return nullptr;
  }
  auto shard = std::make_shared<serve::Shard>(
      id, std::move(model), *pool_, options_.max_queue,
      options_.evaluation_gate);
  util::MutexLock lock(slots_mutex_);
  if (const auto it = shards_.find(id); it != shards_.end()) {
    return it->second;
  }
  shards_[id] = shard;
  shards_created_.fetch_add(1, std::memory_order_relaxed);
  return shard;
}

std::shared_ptr<serve::Shard> EstimationServer::route_class(
    const std::string& model_class, std::string* error_out) {
  {
    util::MutexLock lock(slots_mutex_);
    const auto it = bindings_.find(model_class);
    if (it != bindings_.end() && it->second) return it->second;
  }
  // First request for this class: lazy-resolve the registry's latest.
  if (!swap_to_latest(model_class, nullptr, error_out)) return nullptr;
  util::MutexLock lock(slots_mutex_);
  const auto it = bindings_.find(model_class);
  if (it == bindings_.end() || !it->second) {
    if (error_out) *error_out = "model binding vanished during resolution";
    return nullptr;
  }
  return it->second;
}

void EstimationServer::rebind(const std::string& model_class,
                              const std::shared_ptr<serve::Shard>& shard) {
  std::shared_ptr<serve::Shard> displaced;
  {
    util::MutexLock lock(slots_mutex_);
    std::shared_ptr<serve::Shard>& bound = bindings_[model_class];
    std::shared_ptr<serve::Shard> old = std::move(bound);
    bound = shard;
    if (old && old != shard) {
      bool still_routed = false;
      for (const auto& [cls, s] : bindings_) {
        if (s == old) {
          still_routed = true;
          break;
        }
      }
      if (!still_routed) {
        // The shard lost its last binding: unregister it (explicit-id
        // requests for the model get a fresh shard) and keep a weak row
        // for the shards listing while its queue drains.
        if (const auto it = shards_.find(old->model_id());
            it != shards_.end() && it->second == old) {
          shards_.erase(it);
        }
        draining_shards_.erase(
            std::remove_if(draining_shards_.begin(), draining_shards_.end(),
                           [](const std::weak_ptr<serve::Shard>& weak) {
                             return weak.expired();
                           }),
            draining_shards_.end());
        draining_shards_.push_back(old);
        displaced = std::move(old);
      }
    }
  }
  if (displaced) {
    // Retire outside the routing lock: new requests re-route or shed,
    // everything already queued still drains through the pump.
    displaced->retire();
    shards_retired_.fetch_add(1, std::memory_order_relaxed);
  }
}

void EstimationServer::set_model(const std::string& id,
                                 const std::string& model_class) {
  std::string error;
  const std::shared_ptr<serve::Shard> shard = shard_for_id(id, &error);
  if (!shard) fail(error);
  rebind(model_class, shard);
  generation_.fetch_add(1, std::memory_order_acq_rel);
}

bool EstimationServer::swap_to_latest(const std::string& model_class,
                                      std::string* id_out,
                                      std::string* error_out) {
  const std::string latest = registry_.latest();
  if (latest.empty()) {
    if (error_out) {
      *error_out =
          "registry at '" + registry_.root() + "' has no published models";
    }
    return false;
  }
  std::string open_error;
  const std::shared_ptr<serve::Shard> shard = shard_for_id(latest, &open_error);
  if (!shard) {
    // A gc may have raced the resolution; the binding keeps its old shard.
    if (error_out) {
      *error_out = "cannot swap to candidate '" + latest +
                   "' from registry at '" + registry_.root() +
                   "': " + open_error;
    }
    return false;
  }
  rebind(model_class, shard);
  generation_.fetch_add(1, std::memory_order_acq_rel);
  if (id_out) *id_out = latest;
  return true;
}

std::string EstimationServer::current_model_id() const {
  util::MutexLock lock(slots_mutex_);
  const auto it = bindings_.find("");
  return it == bindings_.end() || !it->second ? std::string()
                                              : it->second->model_id();
}

// --- socket transport -------------------------------------------------------

void EstimationServer::start() {
  if (options_.socket_path.empty()) {
    fail("the socket transport needs options.socket_path");
  }
  // The whole body runs under lifecycle_mutex_: started_ is both the check
  // and the commit, so two racing start() calls serialize here and the
  // loser fails cleanly instead of leaking a second listener.
  util::MutexLock lock(lifecycle_mutex_);
  if (started_) fail("already started");
  // begin_shutdown flips draining_ under this mutex: a server that is
  // draining never spawns an accept thread its join has already missed.
  if (draining_.load(std::memory_order_acquire)) fail("shutting down");
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) fail("cannot create socket: " + errno_text());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    util::close_quietly(listen_fd);
    fail("socket path too long: " + options_.socket_path);
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  // A stale socket file from a crashed predecessor would make bind fail.
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string why = errno_text();
    util::close_quietly(listen_fd);
    fail("cannot bind " + options_.socket_path + ": " + why);
  }
  if (::listen(listen_fd, 64) != 0) {
    const std::string why = errno_text();
    util::close_quietly(listen_fd);
    fail("cannot listen on " + options_.socket_path + ": " + why);
  }
  started_ = true;
  // The accept thread takes sole ownership of the descriptor: handing it
  // over by value (instead of the old listen_fd_ member) removes the one
  // field two threads wrote without a guard.
  accept_thread_ = std::thread([this, listen_fd] { accept_loop(listen_fd); });
}

void EstimationServer::accept_loop(int listen_fd) {
  util::lock_rank::ScopedThreadLifetime lifetime(accept_token_);
  // This thread is the only owner of the readers it spawns. A list keeps
  // each `done` flag at a fixed address for its reader to set.
  struct Reader {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Reader> readers;
  while (!stop_io_.load(std::memory_order_acquire) &&
         !draining_.load(std::memory_order_acquire)) {
    readers.remove_if([](Reader& reader) {
      if (!reader.done.load(std::memory_order_acquire)) return false;
      reader.thread.join();  // its loop has returned: does not block
      return true;
    });
    // Tick so a shutdown request stops the intake within ~100 ms.
    const util::IoStatus ready = util::wait_readable(listen_fd, 100);
    if (ready == util::IoStatus::kTimeout) continue;
    if (ready != util::IoStatus::kOk) break;
    int fd;
    for (;;) {
      fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd >= 0 || errno != EINTR) break;
    }
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
        continue;
      }
      if (errno == EMFILE || errno == ENFILE || errno == ENOMEM) {
        // Descriptor/memory pressure is transient: closing connections
        // frees capacity, so keep the listener alive instead of
        // permanently refusing service while the process runs on.
        std::this_thread::sleep_for(ms(100));
        continue;
      }
      break;
    }
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    accepted_connections_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>(
        fd, fd, /*owns=*/true,
        next_connection_id_.fetch_add(1, std::memory_order_relaxed),
        options_.chaos);
    Reader& reader = readers.emplace_back();
    reader.thread = std::thread(
        [this, conn = std::move(conn), &done = reader.done]() mutable {
          connection_loop(std::move(conn));
          done.store(true, std::memory_order_release);
        });
  }
  util::close_quietly(listen_fd);
  ::unlink(options_.socket_path.c_str());
  // Readers answer kShuttingDown until the drain ends and stop_io_ is set,
  // or until their peer closes.
  for (Reader& reader : readers) reader.thread.join();
}

void EstimationServer::connection_loop(std::shared_ptr<Connection> conn) {
  while (serve_one_frame(conn)) {
  }
}

void EstimationServer::serve_connection_fds(int in_fd, int out_fd) {
  auto conn = std::make_shared<Connection>(
      in_fd, out_fd, /*owns=*/false,
      next_connection_id_.fetch_add(1, std::memory_order_relaxed),
      options_.chaos);
  accepted_connections_.fetch_add(1, std::memory_order_relaxed);
  while (serve_one_frame(conn)) {
  }
}

// --- the frame loop ---------------------------------------------------------

bool EstimationServer::serve_one_frame(
    const std::shared_ptr<Connection>& conn) {
  if (conn->dead.load(std::memory_order_acquire)) return false;
  // Idle wait between frames, ticking to observe shutdown. No idle
  // timeout: a quiet client costs one parked thread, not a worker.
  for (;;) {
    if (stop_io_.load(std::memory_order_acquire)) return false;
    const util::IoStatus ready = util::wait_readable(conn->in_fd, 100);
    if (ready == util::IoStatus::kTimeout) continue;
    if (ready != util::IoStatus::kOk) return false;
    break;
  }
  if (conn->chaos.stall_before_read()) {
    chaos_injected_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(ms(options_.chaos.stall_ms));
  }
  // Once a frame starts, the peer has read_timeout_ms to finish it — a
  // client stalled mid-frame is disconnected, never waited on forever.
  unsigned char header_bytes[kFrameHeaderBytes];
  util::IoStatus st = util::read_exact(conn->in_fd, header_bytes,
                                       sizeof header_bytes,
                                       options_.read_timeout_ms);
  if (st != util::IoStatus::kOk) {
    // kEof before any byte is a normal close; mid-header it is a torn
    // frame. Either way no complete frame arrived, so no reply is owed.
    if (st == util::IoStatus::kTimeout) {
      io_timeouts_.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }
  frames_received_.fetch_add(1, std::memory_order_relaxed);
  FrameHeader header;
  try {
    header = decode_header(header_bytes, options_.limits);
  } catch (const ProtocolError& e) {
    malformed_frames_.fetch_add(1, std::memory_order_relaxed);
    // The seq field sits at a fixed offset, so even a rejected header can
    // be answered with a correlated error before the connection closes
    // (the framing is no longer trustworthy after a bad header).
    std::uint64_t seq;
    std::memcpy(&seq, header_bytes + 8, 8);
    send_error(conn, seq, e.code(), e.what());
    return false;
  }
  // The payload is read into a buffer leased from the connection's pool,
  // with no zero fill; the lease ends at scope exit unless an estimate
  // dispatch takes it over.
  bool fresh = false;
  FramePool::Frame frame = conn->frames->acquire(header.payload_len, &fresh);
  if (fresh) frame_buffer_allocs_.fetch_add(1, std::memory_order_relaxed);
  if (header.payload_len > 0) {
    st = util::read_exact(conn->in_fd, frame.data(), frame.size(),
                          options_.read_timeout_ms);
    if (st != util::IoStatus::kOk) {
      if (st == util::IoStatus::kTimeout) {
        io_timeouts_.fetch_add(1, std::memory_order_relaxed);
      }
      return false;  // torn frame: never completed, no reply owed
    }
  }
  const std::string_view payload = frame.view();
  bytes_read_.fetch_add(kFrameHeaderBytes + header.payload_len,
                        std::memory_order_relaxed);
  if (conn->in_flight.load(std::memory_order_acquire) > 0) {
    // A complete frame arrived while earlier requests on this connection
    // were still being evaluated: the peer is pipelining.
    frames_pipelined_.fetch_add(1, std::memory_order_relaxed);
  }
  const Clock::time_point received = Clock::now();
  if (draining_.load(std::memory_order_acquire)) {
    send_error(conn, header.seq, ErrorCode::kShuttingDown,
               "server is draining");
    return !stop_io_.load(std::memory_order_acquire);
  }
  switch (header.type) {
    case FrameType::kPingRequest: {
      try {
        decode_empty_request(payload);
      } catch (const ProtocolError& e) {
        malformed_frames_.fetch_add(1, std::memory_order_relaxed);
        return send_error(conn, header.seq, e.code(), e.what());
      }
      return send_frame(conn, FrameType::kPingReply, header.seq, "");
    }
    case FrameType::kStatsRequest: {
      try {
        decode_empty_request(payload);
      } catch (const ProtocolError& e) {
        malformed_frames_.fetch_add(1, std::memory_order_relaxed);
        return send_error(conn, header.seq, e.code(), e.what());
      }
      return send_frame(
          conn, FrameType::kStatsReply, header.seq,
          encode_stats_reply(stats_snapshot(), options_.limits));
    }
    case FrameType::kShardsRequest: {
      try {
        decode_empty_request(payload);
      } catch (const ProtocolError& e) {
        malformed_frames_.fetch_add(1, std::memory_order_relaxed);
        return send_error(conn, header.seq, e.code(), e.what());
      }
      return send_frame(
          conn, FrameType::kShardsReply, header.seq,
          encode_shards_reply(shards_snapshot(), options_.limits));
    }
    case FrameType::kSwapRequest: {
      SwapRequest request;
      try {
        request = decode_swap_request(payload, options_.limits);
      } catch (const ProtocolError& e) {
        malformed_frames_.fetch_add(1, std::memory_order_relaxed);
        return send_error(conn, header.seq, e.code(), e.what());
      }
      std::string id;
      std::string error;
      if (!swap_to_latest(request.model_class, &id, &error)) {
        return send_error(conn, header.seq, ErrorCode::kModelUnavailable,
                          error);
      }
      SwapReply reply;
      reply.model_id = id;
      reply.swap_generation = swap_generation();
      return send_frame(conn, FrameType::kSwapReply, header.seq,
                        encode_swap_reply(reply, options_.limits));
    }
    case FrameType::kEstimateRequest:
      dispatch_estimate(conn, header.seq, std::move(frame), received);
      return true;
    case FrameType::kEstimateBinRequest:
      dispatch_estimate_bin(conn, header.seq, std::move(frame), received);
      return true;
    default:
      send_error(conn, header.seq, ErrorCode::kUnknownType,
                 "unknown frame type " +
                     std::to_string(static_cast<unsigned>(header.type)));
      return true;  // framing is intact; the connection survives
  }
}

void EstimationServer::dispatch_estimate(
    const std::shared_ptr<Connection>& conn, std::uint64_t seq,
    FramePool::Frame frame, Clock::time_point received) {
  estimate_requests_.fetch_add(1, std::memory_order_relaxed);
  requests_text_.fetch_add(1, std::memory_order_relaxed);
  // Chaos shed stays BEFORE parsing, like real admission under a flood.
  if (conn->chaos.force_overload()) {
    chaos_injected_.fetch_add(1, std::memory_order_relaxed);
    shed_overloaded_.fetch_add(1, std::memory_order_relaxed);
    send_error(conn, seq, ErrorCode::kOverloaded,
               "queue full (" + std::to_string(options_.max_queue) +
                   " pending requests)");
    return;
  }
  // The CSVs are borrowed straight out of the frame: the tail parses them
  // before this returns, and the frame goes back to the connection then.
  EstimateRequestView request;
  try {
    request = decode_estimate_request_view(frame.view(), options_.limits);
  } catch (const ProtocolError& e) {
    malformed_frames_.fetch_add(1, std::memory_order_relaxed);
    send_error(conn, seq, e.code(), e.what());
    return;
  }
  EstimateInputs inputs;
  inputs.reply_type = FrameType::kEstimateReply;
  inputs.model_class = request.model_class;
  inputs.model_id = request.model_id;
  inputs.deadline_ms = request.deadline_ms;
  inputs.merge = request.merge;
  inputs.hashes.reserve(request.workload_csvs.size());
  for (const std::string_view csv : request.workload_csvs) {
    inputs.hashes.push_back(serve::EstimateCache::workload_hash(csv));
  }
  inputs.views.assign(request.workload_csvs.size(), nullptr);
  inputs.csvs = std::move(request.workload_csvs);
  dispatch_estimate_common(conn, seq, std::move(inputs), received);
}

void EstimationServer::dispatch_estimate_bin(
    const std::shared_ptr<Connection>& conn, std::uint64_t seq,
    FramePool::Frame frame, Clock::time_point received) {
  estimate_requests_.fetch_add(1, std::memory_order_relaxed);
  requests_binary_.fetch_add(1, std::memory_order_relaxed);
  if (conn->chaos.force_overload()) {
    chaos_injected_.fetch_add(1, std::memory_order_relaxed);
    shed_overloaded_.fetch_add(1, std::memory_order_relaxed);
    send_error(conn, seq, ErrorCode::kOverloaded,
               "queue full (" + std::to_string(options_.max_queue) +
                   " pending requests)");
    return;
  }
  // Everything the evaluation will alias lives in the request's pins: the
  // frame (the decoded request's profile string_views point into it) and
  // the parsed ProfileViews (their spans point into the frame too, or into
  // their own owned storage for a misaligned buffer). The pins ride the
  // shard request as its keepalive, so eviction/reply ordering can never
  // free or recycle bytes an evaluation is still reading.
  EstimateInputs inputs;
  RequestPins& keep = *inputs.pins;
  keep.frame = std::move(frame);
  EstimateBinRequest request;
  try {
    request = decode_estimate_bin_request(keep.frame.view(), options_.limits);
  } catch (const ProtocolError& e) {
    malformed_frames_.fetch_add(1, std::memory_order_relaxed);
    send_error(conn, seq, e.code(), e.what());
    return;
  }
  serve::profile_bin::Limits bin_limits;
  bin_limits.max_samples = options_.limits.max_profile_samples;
  bin_limits.max_name_bytes = options_.limits.max_name_bytes;
  keep.profiles.reserve(request.profiles.size());
  for (std::size_t i = 0; i < request.profiles.size(); ++i) {
    try {
      keep.profiles.push_back(
          serve::profile_bin::parse(request.profiles[i], bin_limits));
    } catch (const std::exception& e) {
      // A profile that fails the bounded parse poisons the whole request
      // (same strictness as the frame codec): the client gets the
      // section/offset diagnostic plus which workload tripped it.
      malformed_frames_.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, seq, ErrorCode::kMalformedFrame,
                 "workload " + std::to_string(i) + ": " + e.what());
      return;
    }
  }
  inputs.reply_type = FrameType::kEstimateBinReply;
  inputs.model_class = std::move(request.model_class);
  inputs.model_id = std::move(request.model_id);
  inputs.deadline_ms = request.deadline_ms;
  inputs.merge = request.merge;
  inputs.hashes.reserve(request.profiles.size());
  inputs.views.reserve(request.profiles.size());
  for (std::size_t i = 0; i < request.profiles.size(); ++i) {
    inputs.views.push_back(&keep.profiles[i].view());
    // The estimate memo-cache key hashes the exact wire bytes; binary and
    // text encodings of the same samples hash differently, which only
    // costs a first-time miss per representation.
    inputs.hashes.push_back(
        serve::EstimateCache::workload_hash(request.profiles[i]));
  }
  dispatch_estimate_common(conn, seq, std::move(inputs), received);
}

void EstimationServer::dispatch_estimate_common(
    const std::shared_ptr<Connection>& conn, std::uint64_t seq,
    EstimateInputs inputs, Clock::time_point received) {
  // Drawn on the reader thread: the connection's ChaosRng is
  // single-threaded by construction, so shard pumps never touch it.
  const bool chaos_swap = conn->chaos.swap_mid_request();
  // The request is active while its reader resolves it, as it is while a
  // pump evaluates it, so a drain waits out a parse like an evaluation. An
  // enqueue counts it queued before this scope ends: the drain predicate
  // never sees it in neither set.
  active_.fetch_add(1, std::memory_order_acq_rel);
  struct ActiveScope {
    EstimationServer* server;
    ~ActiveScope() {
      server->active_.fetch_sub(1, std::memory_order_acq_rel);
      { util::MutexLock lock(server->drain_mutex_); }
      server->drain_cv_.notify_all();
    }
  } active_scope{this};
  const bool has_deadline = inputs.deadline_ms > 0;
  const std::uint32_t deadline_ms =
      std::min(inputs.deadline_ms, options_.max_deadline_ms);
  const Clock::time_point deadline = received + ms(deadline_ms);
  const model::Merge merge = inputs.merge == 0 ? model::Merge::kTimeWeighted
                                               : model::Merge::kUnweighted;

  // Resolves text workload i to a view: the ProfileCache's parse, else a
  // parse published there. A CSV that cannot become a view leaves its
  // encoded result in `unresolved[i]` instead. Both outcomes persist across
  // a retired-shard retry, so no CSV is parsed twice.
  const std::size_t count = inputs.views.size();
  std::vector<std::string> unresolved(count);
  std::vector<bool> expired(count, false);
  const auto resolve_text = [&](std::size_t i) {
    std::shared_ptr<const serve::ParsedProfile> parse =
        profile_cache_.lookup(inputs.hashes[i]);
    if (parse == nullptr) {
      WorkloadResult failed;
      if (has_deadline && Clock::now() >= deadline) {
        // The deadline is checked per workload before its parse, because
        // parsing dominates per-workload cost.
        expired[i] = true;
        failed.status = ErrorCode::kDeadlineExceeded;
        failed.error = "deadline expired after " + std::to_string(i) +
                       " of " + std::to_string(count) + " workload(s)";
      } else {
        try {
          parse = serve::ParsedProfile::make(
              sampling::Dataset::load_csv(inputs.csvs[i]));
        } catch (const std::exception& e) {
          failed.status = ErrorCode::kEstimationFailed;
          failed.error = e.what();
        }
      }
      if (parse == nullptr) {
        failed.error =
            bounded_message(failed.error, options_.limits.max_error_bytes);
        unresolved[i] = encode_workload_result(failed, options_.limits);
        return;
      }
      profile_cache_.insert(inputs.hashes[i], parse);
    }
    inputs.views[i] = &parse->view;
    inputs.pins->parses.push_back(std::move(parse));
  };

  // At most two routing attempts: a shard retired between routing and
  // enqueue (a racing hot-swap) re-routes once to the replacement binding.
  for (int attempt = 0;; ++attempt) {
    std::string error;
    const std::shared_ptr<serve::Shard> shard =
        inputs.model_id.empty() ? route_class(inputs.model_class, &error)
                                : shard_for_id(inputs.model_id, &error);
    if (!shard) {
      send_error(conn, seq, ErrorCode::kModelUnavailable, error);
      return;
    }

    auto pending = std::make_shared<PendingEstimate>();
    pending->conn = conn;
    pending->seq = seq;
    pending->reply_type = inputs.reply_type;
    pending->model_id = shard->model_id();
    pending->merge_byte = inputs.merge;
    pending->blocks.resize(count);

    serve::Shard::Request shard_request;
    shard_request.merge = merge;
    shard_request.deadline = deadline;
    shard_request.has_deadline = has_deadline;
    shard_request.keepalive = inputs.pins;
    // Memo-cache consult before enqueue: only the misses the reader
    // resolves to views ride the queue, and a request with nothing left to
    // evaluate never takes a queue slot at all. The model id is part of
    // the memo key, so a retry on the replacement shard consults again.
    for (std::size_t i = 0; i < count; ++i) {
      serve::EstimateCache::Key key;
      key.model_id = pending->model_id;
      key.csv_hash = inputs.hashes[i];
      key.merge = inputs.merge;
      if (std::optional<std::string> hit = estimate_cache_.lookup(key)) {
        pending->blocks[i] = std::move(*hit);
        continue;
      }
      if (inputs.views[i] == nullptr && unresolved[i].empty()) {
        resolve_text(i);
      }
      if (!unresolved[i].empty()) {
        pending->blocks[i] = unresolved[i];
        if (expired[i]) ++pending->expired_slices;
        continue;
      }
      pending->miss_index.push_back(i);
      pending->miss_hash.push_back(key.csv_hash);
      shard_request.views.push_back(inputs.views[i]);
    }

    if (pending->miss_index.empty()) {
      // Every workload answered on the reader: reply inline. Byte-identity
      // with a recompute holds because a memo value IS the encoded
      // per-result block of a past reply.
      if (chaos_swap) {
        chaos_injected_.fetch_add(1, std::memory_order_relaxed);
        std::string id;
        std::string swap_error;
        (void)swap_to_latest(inputs.model_class, &id, &swap_error);
      }
      send_estimate_reply(*pending);
      return;
    }

    shard_request.begin = [this, chaos_swap,
                           model_class = inputs.model_class] {
      // Dequeue: active before not-queued, so the drain predicate
      // (queued == 0 && active == 0) never observes a request in neither
      // set.
      active_.fetch_add(1, std::memory_order_acq_rel);
      queued_.fetch_sub(1, std::memory_order_acq_rel);
      if (chaos_swap) {
        // The pump holds no locks here, so the swap (which takes the
        // routing lock and may retire THIS shard) cannot deadlock; a
        // retired shard still drains its queue, this request included.
        chaos_injected_.fetch_add(1, std::memory_order_relaxed);
        std::string id;
        std::string error;
        (void)swap_to_latest(model_class, &id, &error);
      }
    };
    shard_request.complete = [this, pending](
                                 std::vector<serve::BatchResult> results,
                                 bool expired_in_queue) {
      finish_estimate(pending, std::move(results), expired_in_queue);
    };

    queued_.fetch_add(1, std::memory_order_acq_rel);
    // Counted before enqueue: the pump may complete (and decrement) on
    // another thread before enqueue() even returns here.
    conn->in_flight.fetch_add(1, std::memory_order_acq_rel);
    const serve::Shard::Enqueue verdict =
        shard->enqueue(std::move(shard_request));
    if (verdict == serve::Shard::Enqueue::kAccepted) return;
    conn->in_flight.fetch_sub(1, std::memory_order_acq_rel);
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    { util::MutexLock lock(drain_mutex_); }
    drain_cv_.notify_all();
    if (verdict == serve::Shard::Enqueue::kRetired && attempt == 0) {
      continue;
    }
    shed_overloaded_.fetch_add(1, std::memory_order_relaxed);
    send_error(conn, seq, ErrorCode::kOverloaded,
               verdict == serve::Shard::Enqueue::kRetired
                   ? "shard for model " + pending->model_id +
                         " retired during routing"
                   : "queue full (" + std::to_string(options_.max_queue) +
                         " pending requests for model " + pending->model_id +
                         ")");
    return;
  }
}

void EstimationServer::finish_estimate(
    const std::shared_ptr<PendingEstimate>& pending,
    std::vector<serve::BatchResult> results, bool expired_in_queue) {
  struct DrainGuard {
    EstimationServer* server;
    Connection* conn;
    ~DrainGuard() {
      conn->in_flight.fetch_sub(1, std::memory_order_acq_rel);
      server->active_.fetch_sub(1, std::memory_order_acq_rel);
      { util::MutexLock lock(server->drain_mutex_); }
      server->drain_cv_.notify_all();
    }
  } guard{this, pending->conn.get()};

  if (expired_in_queue) {
    // Deadline check #1 fired at dequeue: the request was never evaluated.
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    send_error(pending->conn, pending->seq, ErrorCode::kDeadlineExceeded,
               "deadline expired while queued");
    return;
  }
  try {
    if (results.size() != pending->miss_index.size()) {
      throw std::runtime_error("shard returned " +
                               std::to_string(results.size()) +
                               " results for " +
                               std::to_string(pending->miss_index.size()) +
                               " workloads");
    }
    const std::size_t total = pending->blocks.size();
    for (std::size_t k = 0; k < results.size(); ++k) {
      const std::size_t i = pending->miss_index[k];
      const serve::BatchResult& fresh = results[k];
      WorkloadResult result;
      if (fresh.deadline_expired) {
        // Deadline check #2, between batch slices: workloads the budget no
        // longer covers are reported, not silently dropped.
        deadline_expired_.fetch_add(1, std::memory_order_relaxed);
        result.status = ErrorCode::kDeadlineExceeded;
        result.error = "deadline expired after " + std::to_string(i) +
                       " of " + std::to_string(total) + " workload(s)";
      } else if (!fresh.ok()) {
        result.status = ErrorCode::kEstimationFailed;
        result.error =
            bounded_message(fresh.error, options_.limits.max_error_bytes);
      } else {
        result.samples = static_cast<std::uint64_t>(fresh.samples);
        result.throughput = fresh.estimate->throughput;
        const std::size_t top = std::min(fresh.estimate->ranking.size(),
                                         options_.limits.max_ranking);
        result.ranking.reserve(top);
        for (std::size_t j = 0; j < top; ++j) {
          const model::MetricEstimate& r = fresh.estimate->ranking[j];
          result.ranking.push_back(
              {std::string(counters::event_name(r.metric)), r.p_bar,
               static_cast<std::uint64_t>(r.samples)});
        }
      }
      pending->blocks[i] = encode_workload_result(result, options_.limits);
      if (result.status == ErrorCode::kOk) {
        // Only kOk results are memoized: errors and expired slices must
        // re-evaluate on retry, not replay from memory.
        serve::EstimateCache::Key key;
        key.model_id = pending->model_id;
        key.csv_hash = pending->miss_hash[k];
        key.merge = pending->merge_byte;
        estimate_cache_.insert(key, pending->blocks[i]);
      }
    }
  } catch (const ProtocolError& e) {
    send_error(pending->conn, pending->seq, e.code(), e.what());
    return;
  } catch (const std::exception& e) {
    send_error(pending->conn, pending->seq, ErrorCode::kInternal, e.what());
    return;
  }
  send_estimate_reply(*pending);
}

void EstimationServer::send_estimate_reply(const PendingEstimate& pending) {
  // Counted before the reply is written (the ordering contract in
  // server.h).
  deadline_expired_.fetch_add(pending.expired_slices,
                              std::memory_order_relaxed);
  std::string payload;
  try {
    payload = encode_estimate_reply_blocks(pending.model_id, swap_generation(),
                                           pending.blocks, options_.limits);
  } catch (const ProtocolError& e) {
    send_error(pending.conn, pending.seq, e.code(), e.what());
    return;
  }
  send_frame(pending.conn, pending.reply_type, pending.seq, std::move(payload));
}

// --- replies ----------------------------------------------------------------

bool EstimationServer::send_frame(const std::shared_ptr<Connection>& conn,
                                  FrameType type, std::uint64_t seq,
                                  std::string payload) {
  if (payload.size() > options_.limits.max_frame_bytes) {
    type = FrameType::kErrorReply;
    ErrorReply fallback;
    fallback.code = ErrorCode::kInternal;
    fallback.message = "reply exceeded the frame limit";
    payload = encode_error_reply(fallback, options_.limits);
  }
  // Scatter-gather send: the 16-byte header lives on the stack and goes out
  // in the same writev as the payload — no header+payload concatenation
  // copy, no per-reply frame allocation.
  unsigned char header[kFrameHeaderBytes];
  encode_header_into(type, seq, static_cast<std::uint32_t>(payload.size()),
                     header);
  {
    util::MutexLock lock(conn->write_mutex);
    if (conn->dead.load(std::memory_order_acquire)) return false;
    // Published before the first reply byte can reach the peer, so a
    // client that has read its reply never sees counters that predate it
    // (the ordering contract in server.h).
    bytes_written_.fetch_add(kFrameHeaderBytes + payload.size(),
                             std::memory_order_relaxed);
    if (type == FrameType::kErrorReply) {
      replies_error_.fetch_add(1, std::memory_order_relaxed);
    } else {
      replies_ok_.fetch_add(1, std::memory_order_relaxed);
    }
    util::ConstBuffer buffers[2] = {{header, sizeof header},
                                    {payload.data(), payload.size()}};
    const util::IoStatus st = util::writev_all_deadline(
        conn->out_fd, buffers, payload.empty() ? 1u : 2u,
        options_.write_timeout_ms);
    if (st != util::IoStatus::kOk) {
      if (st == util::IoStatus::kTimeout) {
        io_timeouts_.fetch_add(1, std::memory_order_relaxed);
      }
      // One failed/stalled write poisons the stream (the peer would see a
      // torn reply); everything else on this connection is dropped.
      conn->dead.store(true, std::memory_order_release);
      return false;
    }
  }
  return true;
}

bool EstimationServer::send_error(const std::shared_ptr<Connection>& conn,
                                  std::uint64_t seq, ErrorCode code,
                                  const std::string& message) {
  ErrorReply reply;
  reply.code = code;
  reply.message = bounded_message(message, options_.limits.max_error_bytes);
  return send_frame(conn, FrameType::kErrorReply, seq,
                    encode_error_reply(reply, options_.limits));
}

// --- shutdown ---------------------------------------------------------------

void EstimationServer::install_signal_handlers() {
  g_signal_pipe.store(wake_pipe_[1], std::memory_order_release);
  struct sigaction sa{};
  sa.sa_handler = spire_forward_shutdown_signal;
  sigemptyset(&sa.sa_mask);
  // Deliberately no SA_RESTART: the EINTR hardening in util/posix_io.h is
  // load-bearing, and signals exercising it keeps it honest.
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  util::ignore_sigpipe();
}

void EstimationServer::begin_shutdown() {
  {
    util::MutexLock lock(lifecycle_mutex_);
    if (draining_.load(std::memory_order_acquire)) return;  // idempotent
    // drain_started_ is written before draining_ flips, under the same
    // mutex wait_until_drained reads it under — no waiter can observe
    // draining_ true with an epoch (expired) drain deadline.
    drain_started_ = Clock::now();
    draining_.store(true, std::memory_order_release);
  }
  set_latch(wake_pipe_[1]);
  drain_cv_.notify_all();
}

bool EstimationServer::wait_until_drained() {
  // The latch is never read, so once set it wakes every waiter. A byte
  // with draining_ still unset came from the signal handler.
  while (!draining_.load(std::memory_order_acquire)) {
    if (util::wait_readable(wake_pipe_[0], -1) == util::IoStatus::kOk) {
      begin_shutdown();
    }
  }
  Clock::time_point deadline;
  {
    util::MutexLock lock(lifecycle_mutex_);
    deadline = drain_started_ + ms(options_.drain_timeout_ms);
  }
  bool clean;
  {
    // The predicate reads only atomics, never fields guarded by the waited
    // mutex — the one shape where CondVar's predicate overloads and the
    // thread-safety analysis agree (see thread_annotations.h).
    util::MutexLock lock(drain_mutex_);
    clean = drain_cv_.wait_until(drain_mutex_, deadline, [this] {
      return queued_.load(std::memory_order_acquire) == 0 &&
             active_.load(std::memory_order_acquire) == 0;
    });
  }
  stop_io_.store(true, std::memory_order_release);
  join_threads();
  return clean;
}

int EstimationServer::run() { return wait_until_drained() ? 0 : 1; }

void EstimationServer::join_threads() {
  // call_once holds no util::Mutex, and a concurrent caller blocks until
  // the join below has finished. The accept thread joins its own readers
  // before it returns.
  std::call_once(join_once_, [this] {
    if (accept_thread_.joinable()) {
      // note_join records held-locks -> accept-thread edges: a caller that
      // joined while holding a mutex the accept thread takes would close a
      // cycle the validator reports before join() hangs.
      util::lock_rank::note_join(accept_token_);
      accept_thread_.join();
    }
  });
}

// --- observability ----------------------------------------------------------

StatsReply EstimationServer::stats_snapshot() const {
  std::uint64_t coalesced_batches = 0;
  std::uint64_t coalesced_requests = 0;
  std::uint64_t max_batch = 0;
  std::uint64_t shards_active = 0;
  std::uint64_t shards_draining = 0;
  {
    // kSlots (40) < kShardQueue (45): taking each shard's stats under the
    // routing lock follows the rank order.
    util::MutexLock lock(slots_mutex_);
    shards_active = shards_.size();
    const auto fold = [&](const std::shared_ptr<serve::Shard>& shard) {
      const serve::Shard::Stats s = shard->stats();
      coalesced_batches += s.batches;
      coalesced_requests += s.batched_requests;
      max_batch = std::max(max_batch, s.max_batch_requests);
    };
    for (const auto& [id, shard] : shards_) fold(shard);
    for (const auto& weak : draining_shards_) {
      if (const std::shared_ptr<serve::Shard> shard = weak.lock()) {
        fold(shard);
        ++shards_draining;
      }
    }
  }
  const serve::EstimateCache::Stats cache = estimate_cache_.stats();
  const serve::ProfileCache::Stats profile_cache = profile_cache_.stats();
  const serve::ModelRegistry::CacheStats registry_cache =
      registry_.cache_stats();
  // Process-wide evaluator counters (serve/model_eval.h): metric batches
  // and sample lanes evaluated. The planned pair names a retired batch
  // kernel and reads 0; the keys stay for stats consumers.
  const serve::EvalCountersSnapshot eval = serve::eval_counters_snapshot();
  StatsReply stats;
  stats.counters = {
      {"accepted_connections",
       accepted_connections_.load(std::memory_order_relaxed)},
      {"active_requests", active_.load(std::memory_order_relaxed)},
      {"bytes_read", bytes_read_.load(std::memory_order_relaxed)},
      {"bytes_written", bytes_written_.load(std::memory_order_relaxed)},
      {"cache_evictions", cache.evictions},
      {"cache_hits", cache.hits},
      {"cache_misses", cache.misses},
      {"chaos_injected", chaos_injected_.load(std::memory_order_relaxed)},
      {"coalesced_batches", coalesced_batches},
      {"coalesced_requests", coalesced_requests},
      {"deadline_expired", deadline_expired_.load(std::memory_order_relaxed)},
      {"estimate_requests",
       estimate_requests_.load(std::memory_order_relaxed)},
      {"eval_planned_batches", eval.planned_batches},
      {"eval_planned_lanes", eval.planned_lanes},
      {"eval_scalar_batches", eval.scalar_batches},
      {"eval_scalar_lanes", eval.scalar_lanes},
      {"frame_buffer_allocs",
       frame_buffer_allocs_.load(std::memory_order_relaxed)},
      {"frames_pipelined", frames_pipelined_.load(std::memory_order_relaxed)},
      {"frames_received", frames_received_.load(std::memory_order_relaxed)},
      {"io_timeouts", io_timeouts_.load(std::memory_order_relaxed)},
      {"malformed_frames", malformed_frames_.load(std::memory_order_relaxed)},
      {"max_batch_requests", max_batch},
      {"profile_parse_evictions", profile_cache.evictions},
      {"profile_parse_hits", profile_cache.hits},
      {"profile_parse_misses", profile_cache.misses},
      {"queue_depth", queued_.load(std::memory_order_relaxed)},
      {"registry_cache_hits", registry_cache.hits},
      {"registry_cache_misses", registry_cache.misses},
      {"replies_error", replies_error_.load(std::memory_order_relaxed)},
      {"replies_ok", replies_ok_.load(std::memory_order_relaxed)},
      {"requests_binary", requests_binary_.load(std::memory_order_relaxed)},
      {"requests_text", requests_text_.load(std::memory_order_relaxed)},
      {"shards_active", shards_active},
      {"shards_created", shards_created_.load(std::memory_order_relaxed)},
      {"shards_draining", shards_draining},
      {"shards_retired", shards_retired_.load(std::memory_order_relaxed)},
      {"shed_overloaded", shed_overloaded_.load(std::memory_order_relaxed)},
      {"swap_generation", generation_.load(std::memory_order_relaxed)},
  };
  return stats;
}

ShardsReply EstimationServer::shards_snapshot() const {
  ShardsReply reply;
  util::MutexLock lock(slots_mutex_);
  // Reverse the class -> shard bindings into per-shard class lists
  // (bindings_ iterates in class order, so each list comes out sorted).
  std::map<const serve::Shard*, std::vector<std::string>> classes;
  for (const auto& [cls, shard] : bindings_) {
    if (shard) classes[shard.get()].push_back(cls);
  }
  const auto row = [&](const std::shared_ptr<serve::Shard>& shard) {
    const serve::Shard::Stats s = shard->stats();
    ShardInfo info;
    info.model_id = shard->model_id();
    if (const auto it = classes.find(shard.get()); it != classes.end()) {
      info.classes = it->second;
      if (info.classes.size() > options_.limits.max_stats) {
        info.classes.resize(options_.limits.max_stats);
      }
    }
    info.queue_depth = s.queue_depth;
    info.enqueued = s.enqueued;
    info.shed = s.shed_full + s.shed_retired;
    info.completed = s.completed;
    info.batches = s.batches;
    info.max_batch = s.max_batch_requests;
    info.retired = s.retired ? 1 : 0;
    return info;
  };
  for (const auto& [id, shard] : shards_) reply.shards.push_back(row(shard));
  for (const auto& weak : draining_shards_) {
    if (const std::shared_ptr<serve::Shard> shard = weak.lock()) {
      reply.shards.push_back(row(shard));
    }
  }
  std::sort(reply.shards.begin(), reply.shards.end(),
            [](const ShardInfo& a, const ShardInfo& b) {
              return std::tie(a.model_id, a.retired) <
                     std::tie(b.model_id, b.retired);
            });
  if (reply.shards.size() > options_.limits.max_shards) {
    reply.shards.resize(options_.limits.max_shards);
  }
  return reply;
}

}  // namespace spire::server
