// Signal- and timeout-hardened POSIX I/O primitives.
//
// Raw read/write/open can fail with EINTR whenever a signal lands, and a
// long-running process (the estimation server, a registry publisher under a
// profiler sending SIGPROF) WILL take signals mid-syscall. Every raw
// descriptor operation in the repository goes through these wrappers so a
// stray signal never turns into a spurious "cannot open" or a short write
// published as a corrupt object.
//
// Two layers:
//  * blocking wrappers (open_retry / write_all) — retry EINTR
//    and short transfers, for filesystem work (registry publish, mmap open);
//  * deadline wrappers (read_exact / write_all with a timeout, wait_readable)
//    — poll-gated so one stalled peer can never wedge a server worker, for
//    socket/pipe transports.
//
// SIGPIPE: a peer that closes mid-write kills the whole process by default.
// ignore_sigpipe() opts out once, process-wide; writes then fail with EPIPE
// and the caller handles it like any other I/O error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace spire::util {

/// Outcome of a deadline-gated transfer.
enum class IoStatus {
  kOk,       // transferred exactly the requested bytes
  kEof,      // peer closed before the requested bytes arrived
  kTimeout,  // deadline expired first
  kError,    // errno-level failure (connection reset, bad descriptor, ...)
};

const char* io_status_name(IoStatus status);

/// open(2) retrying EINTR. Returns the descriptor or -1 (errno set).
int open_retry(const char* path, int flags, unsigned mode = 0);

/// Writes all `count` bytes, retrying EINTR and short writes. Returns true
/// when every byte was written; false on the first hard error (errno set).
bool write_all(int fd, const void* buf, std::size_t count);

/// close(2) without an EINTR retry loop: on Linux the descriptor is gone
/// even when close reports EINTR, and retrying can close a descriptor
/// another thread just opened. This exists so call sites document intent.
void close_quietly(int fd);

/// Installs SIG_IGN for SIGPIPE once (idempotent, thread-safe). Long-running
/// servers call this before writing to sockets; a closed peer then surfaces
/// as EPIPE instead of killing the process.
void ignore_sigpipe();

/// Blocks until `fd` is readable, at most `timeout_ms` (< 0 = forever,
/// 0 = immediate poll). EINTR is retried with the remaining budget.
IoStatus wait_readable(int fd, int timeout_ms);

/// Blocks, retrying EINTR, until `fd` or `latch` (a pipe nothing reads) is
/// readable. False when the latch is set or poll fails.
bool wait_readable_unless(int fd, int latch);

/// Reads exactly `count` bytes with a per-call deadline: every wait for more
/// data is poll-gated on the remaining budget, so a peer that stalls
/// mid-frame costs at most `timeout_ms`, never a wedged thread. A timeout
/// with partial data already consumed still returns kTimeout (the stream is
/// unusable either way). `timeout_ms < 0` waits forever.
IoStatus read_exact(int fd, void* buf, std::size_t count, int timeout_ms);

/// Writes exactly `count` bytes with a per-call deadline, poll-gated like
/// read_exact. kEof reports a peer that closed (EPIPE/ECONNRESET).
IoStatus write_all_deadline(int fd, const void* buf, std::size_t count,
                            int timeout_ms);

/// One gather-write buffer (the platform-neutral face of struct iovec).
struct ConstBuffer {
  const void* data = nullptr;
  std::size_t size = 0;
};

/// Scatter-gather write: every byte of every buffer, in order, with a
/// per-call deadline. One writev(2) submits all buffers per wakeup, so a
/// framed reply (header + payload living in different buffers) goes out
/// without being copied into one contiguous allocation first. `buffers`
/// may be clobbered (partial-write bookkeeping edits it in place).
IoStatus writev_all_deadline(int fd, ConstBuffer* buffers, std::size_t count,
                             int timeout_ms);

}  // namespace spire::util
