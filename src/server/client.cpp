#include "server/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <system_error>
#include <thread>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/posix_io.h"

namespace spire::server {

namespace {

using Clock = std::chrono::steady_clock;

// std::strerror is not thread-safe (concurrency-mt-unsafe); error_code
// formats the same message without shared state.
std::string errno_text() {
  return std::error_code(errno, std::generic_category()).message();
}

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return static_cast<int>(std::max<long long>(left.count(), 0));
}

}  // namespace

Client::Client(ClientOptions options)
    : options_(std::move(options)),
      // Stream 0 for the client's chaos draws; server connections use
      // their connection ids, so the streams never collide.
      chaos_(options_.chaos, 0),
      backoff_rng_(util::derive_seed(options_.backoff.seed, 0x636c69)) {
  util::ignore_sigpipe();
}

Client::~Client() { disconnect(); }

void Client::disconnect() {
  if (fd_ >= 0) {
    util::close_quietly(fd_);
    fd_ = -1;
  }
}

bool Client::ensure_connected(std::string* error) {
  if (fd_ >= 0) return true;
  if (options_.socket_path.empty()) {
    if (error) *error = "no socket path configured";
    return false;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    if (error) *error = errno_text();
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    util::close_quietly(fd);
    if (error) *error = "socket path too long";
    return false;
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    const std::string why = errno_text();
    util::close_quietly(fd);
    if (error) *error = "connect " + options_.socket_path + ": " + why;
    return false;
  }
  fd_ = fd;
  return true;
}

bool Client::write_frame_chaos(const std::string& frame, bool keep_open,
                               std::string* error) {
  // Chaos: tear the outbound frame. The server must answer a torn frame
  // with silence + close, never a crash — and this side must not hang.
  if (chaos_.tear_frame()) {
    const std::size_t cut = chaos_.tear_point(frame.size());
    (void)util::write_all_deadline(fd_, frame.data(), cut,
                                   options_.io_timeout_ms);
    // The close is what makes the tear visible server-side; a pipelining
    // caller keeps the fd open to drain replies it is still owed, then
    // closes itself.
    if (!keep_open) disconnect();
    if (error) *error = "chaos: tore outbound frame";
    return false;
  }
  util::IoStatus st;
  if (chaos_.stall_mid_write() && frame.size() > kFrameHeaderBytes) {
    st = util::write_all_deadline(fd_, frame.data(), kFrameHeaderBytes,
                                  options_.io_timeout_ms);
    if (st == util::IoStatus::kOk) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.chaos.stall_ms));
      st = util::write_all_deadline(fd_, frame.data() + kFrameHeaderBytes,
                                    frame.size() - kFrameHeaderBytes,
                                    options_.io_timeout_ms);
    }
  } else {
    st = util::write_all_deadline(fd_, frame.data(), frame.size(),
                                  options_.io_timeout_ms);
  }
  if (st != util::IoStatus::kOk) {
    disconnect();
    if (error) *error = std::string("write: ") + util::io_status_name(st);
    return false;
  }
  return true;
}

bool Client::raw_roundtrip(FrameType type, const std::string& payload,
                           FrameHeader* reply_header,
                           std::string* reply_payload, std::string* error) {
  if (!ensure_connected(error)) return false;
  const std::uint64_t seq = next_seq_++;
  std::string frame;
  try {
    frame = encode_frame(type, seq, payload, options_.limits);
  } catch (const ProtocolError& e) {
    if (error) *error = e.what();
    return false;
  }
  if (!write_frame_chaos(frame, /*keep_open=*/false, error)) return false;
  unsigned char header_bytes[kFrameHeaderBytes];
  util::IoStatus st = util::read_exact(fd_, header_bytes, sizeof header_bytes,
                                       options_.io_timeout_ms);
  if (st != util::IoStatus::kOk) {
    disconnect();
    if (error) *error = std::string("read header: ") + util::io_status_name(st);
    return false;
  }
  FrameHeader header;
  try {
    header = decode_header(header_bytes, options_.limits);
  } catch (const ProtocolError& e) {
    disconnect();
    if (error) *error = std::string("reply header: ") + e.what();
    return false;
  }
  std::string body(header.payload_len, '\0');
  if (header.payload_len > 0) {
    st = util::read_exact(fd_, body.data(), body.size(),
                          options_.io_timeout_ms);
    if (st != util::IoStatus::kOk) {
      disconnect();
      if (error) {
        *error = std::string("read payload: ") + util::io_status_name(st);
      }
      return false;
    }
  }
  if (header.seq != seq) {
    // The stream is out of sync; nothing on this connection is trustable.
    disconnect();
    if (error) *error = "reply seq mismatch";
    return false;
  }
  if (reply_header) *reply_header = header;
  if (reply_payload) *reply_payload = std::move(body);
  return true;
}

std::size_t Client::pipeline(const std::vector<PipelineRequest>& requests,
                             std::vector<PipelineResult>* results,
                             std::size_t window) {
  std::vector<PipelineResult>& out = *results;
  out.assign(requests.size(), PipelineResult{});
  std::string error;
  if (!ensure_connected(&error)) {
    for (PipelineResult& r : out) r.error = error;
    return 0;
  }
  // seq -> request index of every frame written in full but not yet
  // answered. The server replies in completion order, not send order.
  std::map<std::uint64_t, std::size_t> outstanding;
  std::size_t sent = 0;       // requests fully written
  std::size_t replied = 0;    // ok results
  bool send_dead = false;     // tear/write fault: stop sending, keep reading
  const auto fail_outstanding = [&](const std::string& why) {
    for (const auto& [seq, index] : outstanding) {
      out[index].error = why;
    }
    outstanding.clear();
  };
  while (sent < requests.size() || !outstanding.empty()) {
    // Fill the window before blocking on a reply; with window == 0 the
    // whole batch goes out back-to-back first.
    while (!send_dead && sent < requests.size() &&
           (window == 0 || outstanding.size() < window)) {
      const std::size_t i = sent++;
      const std::uint64_t seq = next_seq_++;
      out[i].seq = seq;
      std::string frame;
      try {
        frame = encode_frame(requests[i].type, seq, requests[i].payload,
                             options_.limits);
      } catch (const ProtocolError& e) {
        out[i].error = e.what();
        continue;  // this frame never hit the wire; the stream is intact
      }
      if (!write_frame_chaos(frame, /*keep_open=*/true, &out[i].error)) {
        // A torn or failed frame poisons everything NOT yet sent, but the
        // replies owed to fully-sent frames are still drained below.
        send_dead = true;
        for (std::size_t j = sent; j < requests.size(); ++j) {
          out[j].error = "not sent: connection torn by an earlier frame";
        }
        sent = requests.size();
        break;
      }
      outstanding.emplace(seq, i);
    }
    if (outstanding.empty()) break;
    if (fd_ < 0) {
      // write_frame_chaos closed the fd on a hard fault: nothing further
      // can be read, the outstanding replies are lost.
      fail_outstanding("connection lost before reply");
      break;
    }
    unsigned char header_bytes[kFrameHeaderBytes];
    util::IoStatus st = util::read_exact(fd_, header_bytes,
                                         sizeof header_bytes,
                                         options_.io_timeout_ms);
    if (st != util::IoStatus::kOk) {
      fail_outstanding(std::string("read header: ") +
                       util::io_status_name(st));
      disconnect();
      break;
    }
    FrameHeader header;
    try {
      header = decode_header(header_bytes, options_.limits);
    } catch (const ProtocolError& e) {
      fail_outstanding(std::string("reply header: ") + e.what());
      disconnect();
      break;
    }
    std::string body(header.payload_len, '\0');
    if (header.payload_len > 0) {
      st = util::read_exact(fd_, body.data(), body.size(),
                            options_.io_timeout_ms);
      if (st != util::IoStatus::kOk) {
        fail_outstanding(std::string("read payload: ") +
                         util::io_status_name(st));
        disconnect();
        break;
      }
    }
    const auto it = outstanding.find(header.seq);
    if (it == outstanding.end()) {
      // A reply for a seq we never sent (or already settled): desync.
      fail_outstanding("reply seq mismatch");
      disconnect();
      break;
    }
    PipelineResult& r = out[it->second];
    outstanding.erase(it);
    r.ok = true;
    r.header = header;
    r.payload = std::move(body);
    ++replied;
  }
  // A tear left a half-written frame on the stream; the connection is
  // unusable for anything further.
  if (send_dead) disconnect();
  return replied;
}

void Client::sleep_backoff(int completed_attempts) {
  const BackoffOptions& b = options_.backoff;
  double delay = static_cast<double>(b.base_ms);
  for (int i = 1; i < completed_attempts; ++i) delay *= b.multiplier;
  const double jitter = std::clamp(b.jitter, 0.0, 1.0);
  if (jitter > 0) delay *= backoff_rng_.uniform(1.0 - jitter, 1.0 + jitter);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<long long>(delay)));
}

std::string Client::exchange(FrameType request_type, FrameType expected_reply,
                             const std::string& payload, int deadline_ms,
                             const std::string& what) {
  const bool has_deadline = deadline_ms > 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(deadline_ms);
  const int attempts = std::max(options_.backoff.max_attempts, 1);
  std::string last_error = "no attempt made";
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      sleep_backoff(attempt);
    }
    if (has_deadline && remaining_ms(deadline) <= 0) {
      throw ServerUnavailable(what + ": deadline exhausted after " +
                              std::to_string(attempt) +
                              " attempt(s); last error: " + last_error);
    }
    FrameHeader header;
    std::string body;
    if (!raw_roundtrip(request_type, payload, &header, &body, &last_error)) {
      continue;  // transport fault: reconnect and retry
    }
    if (header.type == expected_reply) return body;
    if (header.type == FrameType::kErrorReply) {
      ErrorReply err;
      try {
        err = decode_error_reply(body, options_.limits);
      } catch (const ProtocolError& e) {
        last_error = std::string("undecodable error reply: ") + e.what();
        disconnect();
        continue;
      }
      // Shedding and draining are the server asking us to come back;
      // everything else is a deterministic failure retries cannot fix.
      if (err.code == ErrorCode::kOverloaded ||
          err.code == ErrorCode::kShuttingDown) {
        last_error = std::string(error_code_name(err.code)) + ": " +
                     err.message;
        continue;
      }
      throw ServerError(err.code, what + ": " +
                                      error_code_name(err.code) + ": " +
                                      err.message);
    }
    last_error = "unexpected reply type " +
                 std::to_string(static_cast<unsigned>(header.type));
    disconnect();
  }
  throw ServerUnavailable(what + ": no reply after " +
                          std::to_string(attempts) +
                          " attempt(s); last error: " + last_error);
}

EstimateReply Client::estimate_loop(
    FrameType request_type, FrameType expected_reply,
    std::uint32_t budget_ms,
    const std::function<std::string(std::uint32_t)>& encode,
    const char* what) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(budget_ms);
  const int attempts = std::max(options_.backoff.max_attempts, 1);
  std::string last_error = "no attempt made";
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) sleep_backoff(attempt);
    std::uint32_t send_deadline_ms = budget_ms;
    if (budget_ms > 0) {
      // Deadline propagation: the server sees only what is left of the
      // caller's budget, so retries shrink the window instead of
      // restarting it.
      const int left = remaining_ms(deadline);
      if (left <= 0) {
        throw ServerUnavailable(std::string(what) +
                                ": deadline exhausted after " +
                                std::to_string(attempt) +
                                " attempt(s); last error: " + last_error);
      }
      send_deadline_ms = static_cast<std::uint32_t>(left);
    }
    const std::string payload = encode(send_deadline_ms);
    FrameHeader header;
    std::string body;
    if (!raw_roundtrip(request_type, payload, &header, &body, &last_error)) {
      continue;
    }
    if (header.type == expected_reply) {
      return decode_estimate_reply(body, options_.limits);
    }
    if (header.type == FrameType::kErrorReply) {
      ErrorReply err;
      try {
        err = decode_error_reply(body, options_.limits);
      } catch (const ProtocolError& e) {
        last_error = std::string("undecodable error reply: ") + e.what();
        disconnect();
        continue;
      }
      if (err.code == ErrorCode::kOverloaded ||
          err.code == ErrorCode::kShuttingDown) {
        last_error = std::string(error_code_name(err.code)) + ": " +
                     err.message;
        continue;
      }
      throw ServerError(err.code, std::string(what) + ": " +
                                      error_code_name(err.code) + ": " +
                                      err.message);
    }
    last_error = "unexpected reply type " +
                 std::to_string(static_cast<unsigned>(header.type));
    disconnect();
  }
  throw ServerUnavailable(std::string(what) + ": no reply after " +
                          std::to_string(attempts) +
                          " attempt(s); last error: " + last_error);
}

EstimateReply Client::estimate(EstimateRequest request) {
  return estimate_loop(
      FrameType::kEstimateRequest, FrameType::kEstimateReply,
      request.deadline_ms,
      [&](std::uint32_t deadline_ms) {
        request.deadline_ms = deadline_ms;
        return encode_estimate_request(request, options_.limits);
      },
      "estimate");
}

EstimateReply Client::estimate_bin(EstimateBinRequest request) {
  return estimate_loop(
      FrameType::kEstimateBinRequest, FrameType::kEstimateBinReply,
      request.deadline_ms,
      [&](std::uint32_t deadline_ms) {
        request.deadline_ms = deadline_ms;
        return encode_estimate_bin_request(request, options_.limits);
      },
      "estimate-bin");
}

void Client::ping() {
  (void)exchange(FrameType::kPingRequest, FrameType::kPingReply, "", 0,
                 "ping");
}

SwapReply Client::swap(const std::string& model_class) {
  SwapRequest request;
  request.model_class = model_class;
  const std::string body =
      exchange(FrameType::kSwapRequest, FrameType::kSwapReply,
               encode_swap_request(request, options_.limits), 0, "swap");
  return decode_swap_reply(body, options_.limits);
}

StatsReply Client::stats() {
  const std::string body = exchange(FrameType::kStatsRequest,
                                    FrameType::kStatsReply, "", 0, "stats");
  return decode_stats_reply(body, options_.limits);
}

ShardsReply Client::shards() {
  const std::string body = exchange(FrameType::kShardsRequest,
                                    FrameType::kShardsReply, "", 0, "shards");
  return decode_shards_reply(body, options_.limits);
}

}  // namespace spire::server
