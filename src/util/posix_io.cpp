#include "util/posix_io.h"

#include <cerrno>
#include <chrono>
#include <mutex>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/uio.h>
#include <unistd.h>

namespace spire::util {

const char* io_status_name(IoStatus status) {
  switch (status) {
    case IoStatus::kOk:
      return "ok";
    case IoStatus::kEof:
      return "eof";
    case IoStatus::kTimeout:
      return "timeout";
    case IoStatus::kError:
      return "error";
  }
  return "unknown";
}

namespace {

using Clock = std::chrono::steady_clock;

/// Remaining milliseconds until `deadline`, clamped to >= 0; -1 when no
/// deadline was set (infinite budget).
int remaining_ms(bool has_deadline, Clock::time_point deadline) {
  if (!has_deadline) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() <= 0 ? 0 : static_cast<int>(left.count());
}

IoStatus wait_fd(int fd, short events, int timeout_ms) {
  const bool has_deadline = timeout_ms >= 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(
                                           has_deadline ? timeout_ms : 0);
  for (;;) {
    struct pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int rc = ::poll(&pfd, 1, remaining_ms(has_deadline, deadline));
    if (rc > 0) {
      // POLLHUP/POLLERR still mean "a read/write will not block" — the
      // subsequent syscall reports the precise condition (EOF, EPIPE, ...).
      return IoStatus::kOk;
    }
    if (rc == 0) return IoStatus::kTimeout;
    if (errno == EINTR) continue;
    return IoStatus::kError;
  }
}

}  // namespace

int open_retry(const char* path, int flags, unsigned mode) {
  for (;;) {
    const int fd = ::open(path, flags, static_cast<mode_t>(mode));
    if (fd >= 0 || errno != EINTR) return fd;
  }
}

bool write_all(int fd, const void* buf, std::size_t count) {
  const char* p = static_cast<const char*>(buf);
  std::size_t left = count;
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

void close_quietly(int fd) {
  if (fd >= 0) ::close(fd);
}

void ignore_sigpipe() {
  static std::once_flag once;
  std::call_once(once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

IoStatus wait_readable(int fd, int timeout_ms) {
  return wait_fd(fd, POLLIN, timeout_ms);
}

bool wait_readable_unless(int fd, int latch) {
  for (;;) {
    struct pollfd pfds[2] = {{fd, POLLIN, 0}, {latch, POLLIN, 0}};
    const int rc = ::poll(pfds, 2, -1);
    if (rc > 0) return pfds[1].revents == 0;
    if (rc < 0 && errno != EINTR) return false;
  }
}

IoStatus read_exact(int fd, void* buf, std::size_t count, int timeout_ms) {
  const bool has_deadline = timeout_ms >= 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(
                                           has_deadline ? timeout_ms : 0);
  char* p = static_cast<char*>(buf);
  std::size_t left = count;
  while (left > 0) {
    const IoStatus ready =
        wait_fd(fd, POLLIN, remaining_ms(has_deadline, deadline));
    if (ready != IoStatus::kOk) return ready;
    const ssize_t n = ::read(fd, p, left);
    if (n == 0) return IoStatus::kEof;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return IoStatus::kError;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return IoStatus::kOk;
}

IoStatus write_all_deadline(int fd, const void* buf, std::size_t count,
                            int timeout_ms) {
  const bool has_deadline = timeout_ms >= 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(
                                           has_deadline ? timeout_ms : 0);
  const char* p = static_cast<const char*>(buf);
  std::size_t left = count;
  while (left > 0) {
    const IoStatus ready =
        wait_fd(fd, POLLOUT, remaining_ms(has_deadline, deadline));
    if (ready != IoStatus::kOk) return ready;
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      if (errno == EPIPE || errno == ECONNRESET) return IoStatus::kEof;
      return IoStatus::kError;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return IoStatus::kOk;
}

IoStatus writev_all_deadline(int fd, ConstBuffer* buffers, std::size_t count,
                             int timeout_ms) {
  const bool has_deadline = timeout_ms >= 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(
                                           has_deadline ? timeout_ms : 0);
  std::size_t first = 0;  // buffers before this index are fully written
  while (first < count && buffers[first].size == 0) ++first;
  while (first < count) {
    const IoStatus ready =
        wait_fd(fd, POLLOUT, remaining_ms(has_deadline, deadline));
    if (ready != IoStatus::kOk) return ready;
    // Re-point an iovec window at the unwritten tail. IOV_MAX is at least
    // 16 everywhere; a reply is 2-3 buffers, so no chunking loop needed —
    // a long array just takes extra wakeups.
    struct iovec iov[16];
    std::size_t iovcnt = 0;
    for (std::size_t i = first; i < count && iovcnt < 16; ++i) {
      if (buffers[i].size == 0) continue;
      iov[iovcnt].iov_base = const_cast<void*>(buffers[i].data);
      iov[iovcnt].iov_len = buffers[i].size;
      ++iovcnt;
    }
    const ssize_t n = ::writev(fd, iov, static_cast<int>(iovcnt));
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      if (errno == EPIPE || errno == ECONNRESET) return IoStatus::kEof;
      return IoStatus::kError;
    }
    // Consume `n` bytes off the front of the buffer list in place.
    std::size_t wrote = static_cast<std::size_t>(n);
    while (first < count && wrote > 0) {
      if (buffers[first].size <= wrote) {
        wrote -= buffers[first].size;
        buffers[first].size = 0;
        ++first;
      } else {
        buffers[first].data =
            static_cast<const char*>(buffers[first].data) + wrote;
        buffers[first].size -= wrote;
        wrote = 0;
      }
    }
    while (first < count && buffers[first].size == 0) ++first;
  }
  return IoStatus::kOk;
}

}  // namespace spire::util
