// The benchmark's side of the deployment: the `spire_cli serve` process it
// starts and stops, the sockets it talks to it over, and the quiescent
// `stats` snapshots counter deltas are taken from.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "server/client.h"
#include "server/protocol.h"

namespace perfbench {

using Counters = std::map<std::string, std::uint64_t>;

struct Frame {
  spire::server::FrameHeader header;
  std::string payload;
};

/// One load connection to the server's UNIX socket: a raw socket the load
/// generator drives non-blocking, with a send buffer that holds whole
/// request frames.
class Connection {
 public:
  /// Connects, retrying until `timeout_ms`; throws std::runtime_error.
  static Connection open(const std::string& socket_path, int timeout_ms);

  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection();

  int fd() const { return fd_; }

 private:
  explicit Connection(int fd) : fd_(fd) {}

  int fd_ = -1;
};

/// The control connection: first-touch requests, stats, shard listings and
/// swaps, one at a time over a `spire::server::Client`. It keeps count of
/// its own traffic so that stats snapshots can leave it out.
class Control {
 public:
  explicit Control(const std::string& socket_path);

  /// Sends one frame and returns the reply; throws std::runtime_error when
  /// no reply comes back.
  Frame roundtrip(spire::server::FrameType type, const std::string& payload);

  /// Counters from one `stats` request, with this connection's own
  /// traffic subtracted, so that two snapshots with no other traffic
  /// between them are equal.
  Counters stats();

 private:
  spire::server::Client client_;
  // This connection's own traffic as the server counts it: every request
  // sent, and the replies received before the latest request was sent.
  struct Replies {
    std::uint64_t ok = 0;
    std::uint64_t error = 0;
    std::uint64_t bytes = 0;
  };
  std::uint64_t sent_frames_ = 0;
  std::uint64_t sent_bytes_ = 0;
  Replies replied_;
  Replies replied_before_;
};

/// Polls `stats` until two consecutive snapshots agree, which happens once
/// every reply has been written and counted (the server bumps
/// bytes_written after writev returns). Returns the second snapshot;
/// `polls` receives how many snapshots it took. Throws when the server does
/// not settle within `max_polls`.
Counters wait_quiescent(Control& control, int* polls, int max_polls = 2000);

/// `later - earlier` for every counter of `later`.
Counters delta(const Counters& later, const Counters& earlier);

/// A `spire_cli serve` process with default options: only the socket path
/// and the registry root are passed.
class ServerProcess {
 public:
  ServerProcess(const std::string& cli, const std::string& socket_path,
                const std::string& registry_root, const std::string& log_path);
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  /// Kills and reaps the process if stop() was not called.
  ~ServerProcess();

  /// Peak resident set (VmHWM) so far, in KiB; 0 when unreadable.
  std::uint64_t peak_rss_kib() const;

  /// User plus system CPU time consumed so far, in seconds.
  double cpu_seconds() const;

  /// SIGTERM, then waits up to `timeout_ms` for the drain. Returns the exit
  /// status, or -1 when the process did not exit in time (it is then
  /// killed) or died from a signal.
  int stop(int timeout_ms);

 private:
  pid_t pid_ = -1;
};

}  // namespace perfbench
