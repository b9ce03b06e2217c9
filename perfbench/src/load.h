// The load generator: request schedules driven over pipelined connections.
//
// Each connection is served by one thread running a poll loop that writes
// frames without waiting for replies and matches replies by seq, so one
// thread keeps many requests in flight and an open-loop schedule is kept
// even while the server is slow to answer.
//
//  * Closed loop: every connection keeps `window` requests in flight; a
//    reply releases the next send. Gives capacity.
//  * Open loop: request i is due at i / rate seconds, on connection
//    i mod connections, whatever the replies do. Latency runs from the
//    due time, so a stall is charged to every request it delays; how late
//    the generator itself got a due request out is recorded separately.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.h"
#include "wire.h"

namespace perfbench {

/// One kind of request the workload can send. The frame payload is
/// `head` followed by `body`: the body is the workload bytes (shared by
/// every kind that sends the same profile), the head everything the
/// protocol encoder writes before them.
struct RequestKind {
  spire::server::FrameType type = spire::server::FrameType::kEstimateBinRequest;
  std::string head;
  std::string_view body;
};

struct Phase {
  bool open_loop = false;
  double seconds = 1.0;
  double rate = 0.0;         // open loop: requests/s over all connections
  std::size_t window = 1;    // closed loop: in flight per connection
};

/// What happened to one request. Times are ns from the phase start.
struct Outcome {
  std::uint32_t kind = 0;
  std::int64_t due_ns = 0;     // open loop: schedule; closed loop: sent
  std::int64_t sent_ns = 0;    // first byte written
  std::int64_t done_ns = -1;   // reply read; -1 = no reply
  std::int64_t late_ns = 0;    // open loop: generator lateness
  spire::server::FrameType reply_type = spire::server::FrameType::kErrorReply;
  std::string reply;           // reply payload, checked after the phase

  bool answered() const { return done_ns >= 0; }
  std::int64_t latency_ns() const { return done_ns - due_ns; }
};

/// Runs `phase` over `connections`, drawing request kinds from `schedule`
/// in order (cyclically) from position `*cursor`, which is advanced past
/// the requests sent, so consecutive phases continue the walk. `on_tick`,
/// when set, runs on the calling thread every 10 ms or so while the
/// phase is under way, with the instant the phase started, which Outcome
/// times count from (the benchmark samples server CPU time and publishes
/// swaps from it). Returns every request's outcome, grouped by connection.
std::vector<Outcome> run_phase(
    std::vector<Connection>& connections, const std::vector<RequestKind>& kinds,
    const std::vector<std::uint32_t>& schedule, const Phase& phase,
    std::uint64_t* cursor,
    const std::function<void(std::chrono::steady_clock::time_point)>&
        on_tick = {});

}  // namespace perfbench
