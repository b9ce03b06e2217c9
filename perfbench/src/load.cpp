#include "load.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <deque>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace sv = spire::server;

namespace {

using Clock = std::chrono::steady_clock;

/// How long after the phase ends replies are still awaited before the
/// requests still owed one count as failed.
constexpr std::int64_t kGraceNs = 10'000'000'000;

std::int64_t since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
      .count();
}

class ConnectionLoop {
 public:
  ConnectionLoop(int fd, const std::vector<RequestKind>& kinds,
                 const std::vector<std::uint32_t>& schedule, const Phase& phase,
                 Clock::time_point t0, std::atomic<std::uint64_t>* next_closed)
      : fd_(fd), kinds_(kinds), schedule_(schedule), phase_(phase), t0_(t0),
        next_closed_(next_closed) {}

  /// Open loop: this connection's share of the schedule.
  void assign(std::uint64_t index, std::int64_t due_ns) {
    Outcome o;
    o.kind = schedule_[index % schedule_.size()];
    o.due_ns = due_ns;
    outcomes_.push_back(std::move(o));
  }

  std::vector<Outcome> run() {
    const int flags = ::fcntl(fd_, F_GETFL);
    ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    const std::int64_t end_ns =
        static_cast<std::int64_t>(phase_.seconds * 1e9);
    std::size_t next_due = 0;
    for (;;) {
      std::int64_t now = since(t0_);
      if (phase_.open_loop) {
        while (next_due < outcomes_.size() &&
               outcomes_[next_due].due_ns <= now) {
          outcomes_[next_due].late_ns = now - outcomes_[next_due].due_ns;
          queue_.push_back(next_due++);
        }
      } else if (now < end_ns) {
        while (inflight_.size() + queue_.size() < phase_.window) {
          Outcome o;
          o.kind = schedule_[next_closed_->fetch_add(1) % schedule_.size()];
          o.due_ns = now;
          outcomes_.push_back(std::move(o));
          queue_.push_back(outcomes_.size() - 1);
        }
      }
      if (!write_some()) break;
      const bool schedule_done =
          phase_.open_loop ? next_due == outcomes_.size() : now >= end_ns;
      if (schedule_done && queue_.empty() && inflight_.empty()) break;
      if (now > end_ns + kGraceNs) break;

      std::int64_t wait_ns = 50'000'000;
      if (phase_.open_loop && next_due < outcomes_.size()) {
        wait_ns = std::max<std::int64_t>(0, outcomes_[next_due].due_ns - now);
      } else if (!phase_.open_loop && now < end_ns) {
        wait_ns = std::min(wait_ns, end_ns - now);
      }
      pollfd pfd{fd_, POLLIN, 0};
      if (!queue_.empty()) pfd.events |= POLLOUT;
      timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                  static_cast<long>(wait_ns % 1'000'000'000)};
      const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
      if (ready < 0 && errno != EINTR) break;
      if (ready > 0 && (pfd.revents & POLLIN) && !read_some()) break;
      if (ready > 0 && (pfd.revents & (POLLERR | POLLHUP)) &&
          !(pfd.revents & POLLIN)) {
        break;
      }
    }
    ::fcntl(fd_, F_SETFL, flags);
    return std::move(outcomes_);
  }

 private:
  /// Writes queued frames until the socket would block. False on a
  /// transport fault.
  bool write_some() {
    while (!queue_.empty()) {
      const std::size_t index = queue_.front();
      Outcome& o = outcomes_[index];
      const RequestKind& kind = kinds_[o.kind];
      const std::size_t total = sv::kFrameHeaderBytes + kind.head.size() +
                                kind.body.size();
      if (!started_) {
        started_ = true;
        seq_ += 1;
        sv::encode_header_into(
            kind.type, seq_,
            static_cast<std::uint32_t>(kind.head.size() + kind.body.size()),
            header_);
        o.sent_ns = since(t0_);
        inflight_[seq_] = index;
      }
      iovec parts[3] = {
          {header_, sv::kFrameHeaderBytes},
          {const_cast<char*>(kind.head.data()), kind.head.size()},
          {const_cast<char*>(kind.body.data()), kind.body.size()}};
      std::size_t skip = written_;
      int first = 0;
      while (first < 3 && skip >= parts[first].iov_len) {
        skip -= parts[first].iov_len;
        ++first;
      }
      parts[first].iov_base = static_cast<char*>(parts[first].iov_base) + skip;
      parts[first].iov_len -= skip;
      const ssize_t n = ::writev(fd_, parts + first, 3 - first);
      if (n < 0) {
        if (errno == EINTR) continue;
        return errno == EAGAIN || errno == EWOULDBLOCK;
      }
      written_ += static_cast<std::size_t>(n);
      if (written_ < total) return true;
      written_ = 0;
      started_ = false;
      queue_.pop_front();
    }
    return true;
  }

  /// Reads whatever has arrived and settles every complete reply. False
  /// when the server closed the connection or it failed.
  bool read_some() {
    char chunk[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n == 0) return false;
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        return false;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::int64_t now = since(t0_);
    std::size_t pos = 0;
    while (buffer_.size() - pos >= sv::kFrameHeaderBytes) {
      sv::FrameHeader header;
      try {
        header = sv::decode_header(
            reinterpret_cast<const unsigned char*>(buffer_.data() + pos),
            limits_);
      } catch (const sv::ProtocolError&) {
        return false;  // unframeable stream: what is owed stays unanswered
      }
      const std::size_t total = sv::kFrameHeaderBytes + header.payload_len;
      if (buffer_.size() - pos < total) break;
      const auto it = inflight_.find(header.seq);
      if (it != inflight_.end()) {
        Outcome& o = outcomes_[it->second];
        o.done_ns = now;
        o.reply_type = header.type;
        o.reply.assign(buffer_, pos + sv::kFrameHeaderBytes,
                       header.payload_len);
        inflight_.erase(it);
      }
      pos += total;
    }
    buffer_.erase(0, pos);
    return true;
  }

  const int fd_;
  const std::vector<RequestKind>& kinds_;
  const std::vector<std::uint32_t>& schedule_;
  const Phase& phase_;
  const Clock::time_point t0_;
  std::atomic<std::uint64_t>* next_closed_;
  const sv::Limits limits_{};

  std::vector<Outcome> outcomes_;
  std::deque<std::size_t> queue_;  // outcome indices waiting to be written
  std::unordered_map<std::uint64_t, std::size_t> inflight_;  // seq -> outcome
  std::uint64_t seq_ = 0;
  unsigned char header_[sv::kFrameHeaderBytes] = {};
  bool started_ = false;     // the queue's front frame has its seq
  std::size_t written_ = 0;  // bytes of the queue's front frame written
  std::string buffer_;       // reply bytes not yet settled
};

}  // namespace

std::vector<Outcome> run_phase(
    std::vector<Connection>& connections, const std::vector<RequestKind>& kinds,
    const std::vector<std::uint32_t>& schedule, const Phase& phase,
    std::uint64_t* cursor,
    const std::function<void(std::chrono::steady_clock::time_point)>& on_tick) {
  const Clock::time_point t0 = Clock::now();
  std::atomic<std::uint64_t> next_closed{*cursor};
  std::vector<ConnectionLoop> loops;
  loops.reserve(connections.size());
  for (Connection& c : connections) {
    loops.emplace_back(c.fd(), kinds, schedule, phase, t0, &next_closed);
  }
  if (phase.open_loop) {
    const auto total = static_cast<std::uint64_t>(phase.seconds * phase.rate);
    for (std::uint64_t i = 0; i < total; ++i) {
      loops[i % loops.size()].assign(
          *cursor + i,
          static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / phase.rate));
    }
    next_closed = *cursor + total;
  }
  std::vector<std::vector<Outcome>> results(loops.size());
  std::atomic<std::size_t> finished{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < loops.size(); ++c) {
    threads.emplace_back([&, c] {
      results[c] = loops[c].run();
      finished.fetch_add(1);
    });
  }
  while (on_tick && finished.load() < threads.size()) {
    on_tick(t0);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::thread& t : threads) t.join();
  *cursor = next_closed.load();
  std::vector<Outcome> all;
  for (auto& r : results) {
    for (Outcome& o : r) all.push_back(std::move(o));
  }
  return all;
}

}  // namespace perfbench
