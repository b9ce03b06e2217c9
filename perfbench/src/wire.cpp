#include "wire.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/posix_io.h"

extern char** environ;

namespace perfbench {

namespace sv = spire::server;

namespace {

constexpr int kIoTimeoutMs = 30'000;

void fail(const std::string& what) { throw std::runtime_error(what); }

}  // namespace

Connection Connection::open(const std::string& socket_path, int timeout_ms) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    fail("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) fail("socket: " + std::string(std::strerror(errno)));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      // Room for whole request frames (a text profile is ~315 KB, over the
      // default buffer): the server then reads each frame without waiting
      // for the generator's thread to be scheduled to write the rest, which
      // would time the generator rather than the server.
      const int bytes = 4 << 20;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof bytes);
      return Connection(fd);
    }
    const int err = errno;
    spire::util::close_quietly(fd);
    if (std::chrono::steady_clock::now() >= give_up) {
      fail("connect " + socket_path + ": " + std::strerror(err));
    }
    // Setup times this wait for the server to listen: poll finely.
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

Connection::Connection(Connection&& other) noexcept { *this = std::move(other); }

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) spire::util::close_quietly(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Connection::~Connection() {
  if (fd_ >= 0) spire::util::close_quietly(fd_);
}

Control::Control(const std::string& socket_path)
    : client_(sv::ClientOptions{.socket_path = socket_path,
                                .io_timeout_ms = kIoTimeoutMs}) {}

Frame Control::roundtrip(sv::FrameType type, const std::string& payload) {
  replied_before_ = replied_;
  Frame frame;
  std::string error;
  if (!client_.raw_roundtrip(type, payload, &frame.header, &frame.payload,
                             &error)) {
    fail("control connection: " + error);
  }
  ++sent_frames_;
  sent_bytes_ += sv::kFrameHeaderBytes + payload.size();
  if (frame.header.type == sv::FrameType::kErrorReply) {
    ++replied_.error;
  } else {
    ++replied_.ok;
  }
  replied_.bytes += sv::kFrameHeaderBytes + frame.payload.size();
  return frame;
}

Counters Control::stats() {
  const Frame frame = roundtrip(sv::FrameType::kStatsRequest, "");
  if (frame.header.type != sv::FrameType::kStatsReply) {
    fail("stats request answered with frame type " +
         std::to_string(static_cast<unsigned>(frame.header.type)));
  }
  Counters counters;
  for (auto& [name, value] :
       sv::decode_stats_reply(frame.payload, sv::Limits{}).counters) {
    counters[name] = value;
  }
  // The snapshot counts every request this connection sent, this one
  // included (read before the snapshot), and the replies to the earlier
  // ones; this reply is counted only after it is written.
  counters["frames_received"] -= sent_frames_;
  counters["bytes_read"] -= sent_bytes_;
  counters["replies_ok"] -= replied_before_.ok;
  counters["replies_error"] -= replied_before_.error;
  counters["bytes_written"] -= replied_before_.bytes;
  return counters;
}

Counters wait_quiescent(Control& control, int* polls, int max_polls) {
  Counters previous = control.stats();
  for (int n = 2; n <= max_polls; ++n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Counters current = control.stats();
    if (current == previous) {
      *polls = n;
      return current;
    }
    previous = std::move(current);
  }
  fail("server counters did not settle within " + std::to_string(max_polls) +
       " stats polls");
  return {};
}

Counters delta(const Counters& later, const Counters& earlier) {
  Counters out;
  for (const auto& [name, value] : later) {
    const auto it = earlier.find(name);
    out[name] = value - (it == earlier.end() ? 0 : it->second);
  }
  return out;
}

ServerProcess::ServerProcess(const std::string& cli,
                             const std::string& socket_path,
                             const std::string& registry_root,
                             const std::string& log_path) {
  std::vector<std::string> args = {cli, "serve", "--socket", socket_path,
                                   "--registry-root", registry_root};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const int rc = posix_spawn(&pid_, cli.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) fail("spawn " + cli + ": " + std::strerror(rc));
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

std::uint64_t ServerProcess::peak_rss_kib() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      std::uint64_t kib = 0;
      in >> kib;
      return kib;
    }
    in.ignore(1 << 12, '\n');
  }
  return 0;
}

double ServerProcess::cpu_seconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 1));
  std::string field;
  double ticks = 0;
  for (int n = 3; n <= 15 && fields >> field; ++n) {
    if (n >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

int ServerProcess::stop(int timeout_ms) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(timeout_ms);
  int status = 0;
  for (;;) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (std::chrono::steady_clock::now() >= give_up) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace perfbench
