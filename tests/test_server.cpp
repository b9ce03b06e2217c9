// The estimation server's contract under failure. Three layers:
//
//  * protocol: the bounded parser round-trips every payload and rejects
//    every malformed input (bad version, oversize lengths, trailing
//    bytes) with a structured ProtocolError instead of misbehaving;
//  * server semantics over live sockets: ping/stats/swap, bit-identical
//    estimation, deadline enforcement at dequeue and between batch
//    slices, admission-control shedding, hot swap under traffic, and the
//    graceful-drain state machine (in-flight work finishes, new work is
//    refused with kShuttingDown, drain completes within its timeout);
//  * chaos: with faults injected on both sides (torn frames, stalled
//    reads and writes, forced overload, mid-request swaps) the invariant
//    holds — every complete request frame gets exactly one reply, torn
//    frames get none, nothing crashes, and the server still drains
//    cleanly. The chaos fleet is the test CI runs under TSan.
#include "server/server.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sampling/dataset.h"
#include "sampling/dataset_view.h"
#include "serve/profile_bin.h"
#include "serve/registry.h"
#include "server/client.h"
#include "server/frame_pool.h"
#include "server/protocol.h"
#include "serving_fixtures.h"
#include "spire/ensemble.h"
#include "util/posix_io.h"
#include "util/rng.h"

namespace spire::server {
namespace {

using counters::Event;
using model::Ensemble;
using sampling::Dataset;
using sampling::DatasetView;
using test::fresh_dir;
using test::trained_ensemble;

Dataset mixed_workload(std::uint64_t seed, int per_metric = 40) {
  util::Rng rng(seed);
  Dataset d;
  for (Event metric : {Event::kIdqDsbUops, Event::kLsdUops,
                       Event::kBrMispRetiredAllBranches,
                       Event::kLongestLatCacheMiss}) {
    for (int i = 0; i < per_metric; ++i) {
      const double p = rng.uniform(0.05, 5.0);
      const double intensity = rng.chance(0.15)
                                   ? std::numeric_limits<double>::infinity()
                                   : std::pow(10.0, rng.uniform(-2.0, 4.0));
      d.add(metric, {rng.uniform(0.5, 2.0), p,
                     std::isinf(intensity) ? 0.0 : p / intensity});
    }
  }
  return d;
}

std::string workload_csv(std::uint64_t seed, int per_metric = 40) {
  std::ostringstream out;
  mixed_workload(seed, per_metric).save_csv(out);
  return out.str();
}

/// Compiles a test workload to spire-profile-bin bytes.
std::string workload_bin(std::uint64_t seed, int per_metric = 40) {
  const Dataset data = mixed_workload(seed, per_metric);
  return serve::profile_bin::compile(DatasetView(data));
}

// --------------------------------------------------------------------------
// Protocol: round trips and strict rejection
// --------------------------------------------------------------------------

TEST(Protocol, HeaderRoundTripsAndRejectsEveryDefect) {
  const Limits limits;
  const std::string bytes =
      encode_header(FrameType::kEstimateRequest, 0xdeadbeefcafe, 1234);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes);
  const FrameHeader header = decode_header(
      reinterpret_cast<const unsigned char*>(bytes.data()), limits);
  EXPECT_EQ(header.payload_len, 1234u);
  EXPECT_EQ(header.version, kProtocolVersion);
  EXPECT_EQ(header.type, FrameType::kEstimateRequest);
  EXPECT_EQ(header.seq, 0xdeadbeefcafeULL);

  auto mutate = [&](std::size_t offset, unsigned char value) {
    std::string bad = bytes;
    bad[offset] = static_cast<char>(value);
    return bad;
  };
  // Wrong version byte.
  try {
    const std::string bad = mutate(4, 99);
    decode_header(reinterpret_cast<const unsigned char*>(bad.data()), limits);
    FAIL() << "bad version accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupportedVersion);
  }
  // Nonzero reserved bits.
  try {
    const std::string bad = mutate(6, 1);
    decode_header(reinterpret_cast<const unsigned char*>(bad.data()), limits);
    FAIL() << "nonzero reserved accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMalformedFrame);
  }
  // payload_len over the limit: rejected BEFORE any allocation happens.
  try {
    const std::string bad = mutate(3, 0xff);  // ~4 GiB payload_len
    decode_header(reinterpret_cast<const unsigned char*>(bad.data()), limits);
    FAIL() << "oversized payload_len accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kFrameTooLarge);
  }
}

TEST(Protocol, EstimateRequestRoundTripsAndEnforcesLimits) {
  const Limits limits;
  EstimateRequest request;
  request.model_class = "batch";
  request.model_id = "0123456789abcdef";
  request.deadline_ms = 1500;
  request.merge = 1;
  request.workload_csvs = {workload_csv(1, 5), workload_csv(2, 5), ""};

  const std::string payload = encode_estimate_request(request, limits);
  const EstimateRequest back = decode_estimate_request(payload, limits);
  EXPECT_EQ(back.model_class, request.model_class);
  EXPECT_EQ(back.model_id, request.model_id);
  EXPECT_EQ(back.deadline_ms, request.deadline_ms);
  EXPECT_EQ(back.merge, request.merge);
  EXPECT_EQ(back.workload_csvs, request.workload_csvs);

  // Trailing bytes: a frame must parse exactly.
  EXPECT_THROW(decode_estimate_request(payload + "x", limits), ProtocolError);
  // Truncations at every prefix length must throw, never read wild.
  for (std::size_t cut = 0; cut < payload.size(); cut += 7) {
    EXPECT_THROW(decode_estimate_request(payload.substr(0, cut), limits),
                 ProtocolError);
  }
  // Per-field limits trip on encode too (no oversized frame ever leaves).
  EstimateRequest oversized = request;
  oversized.model_class.assign(limits.max_class_bytes + 1, 'x');
  EXPECT_THROW(encode_estimate_request(oversized, limits), ProtocolError);
  EstimateRequest crowded = request;
  crowded.workload_csvs.assign(limits.max_workloads + 1, "");
  EXPECT_THROW(encode_estimate_request(crowded, limits), ProtocolError);
}

TEST(Protocol, RepliesRoundTripAndErrorMessagesTruncate) {
  const Limits limits;
  EstimateReply reply;
  reply.model_id = "0123456789abcdef";
  reply.swap_generation = 42;
  WorkloadResult ok;
  ok.samples = 99;
  ok.throughput = 1.25;
  ok.ranking = {{"cycle_activity.stalls_mem_any", 0.5, 10},
                {"lsd.uops", 0.75, 11}};
  WorkloadResult failed;
  failed.status = ErrorCode::kDeadlineExceeded;
  failed.error = "deadline expired after 1 of 2 workload(s)";
  reply.results = {ok, failed};

  const EstimateReply back =
      decode_estimate_reply(encode_estimate_reply(reply, limits), limits);
  ASSERT_EQ(back.results.size(), 2u);
  EXPECT_EQ(back.model_id, reply.model_id);
  EXPECT_EQ(back.swap_generation, 42u);
  EXPECT_EQ(back.results[0].throughput, 1.25);
  ASSERT_EQ(back.results[0].ranking.size(), 2u);
  EXPECT_EQ(back.results[0].ranking[1].metric, "lsd.uops");
  EXPECT_EQ(back.results[1].status, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(back.results[1].error, failed.error);

  // encode_error_reply never throws on an oversized message — the error
  // path must not be able to fail — it truncates instead.
  ErrorReply shout;
  shout.code = ErrorCode::kInternal;
  shout.message.assign(limits.max_error_bytes * 3, 'e');
  const ErrorReply heard =
      decode_error_reply(encode_error_reply(shout, limits), limits);
  EXPECT_EQ(heard.code, ErrorCode::kInternal);
  EXPECT_EQ(heard.message.size(), limits.max_error_bytes);

  SwapReply swap{"fedcba9876543210", 7};
  const SwapReply swap_back =
      decode_swap_reply(encode_swap_reply(swap, limits), limits);
  EXPECT_EQ(swap_back.model_id, swap.model_id);
  EXPECT_EQ(swap_back.swap_generation, 7u);

  StatsReply stats;
  stats.counters = {{"a", 1}, {"b", 2}};
  const StatsReply stats_back =
      decode_stats_reply(encode_stats_reply(stats, limits), limits);
  EXPECT_EQ(stats_back.counters, stats.counters);
}

// The server assembles estimate replies from result blocks it already
// holds (memo hits, reader-side failures, fresh results encoded once):
// the prefix plus those blocks must be exactly the full encoding, and
// the result-count limit still holds.
TEST(Protocol, ReplyFromEncodedBlocksEqualsTheFullEncoding) {
  Limits limits;
  EstimateReply reply;
  reply.model_id = "0123456789abcdef";
  reply.swap_generation = 9;
  WorkloadResult ok;
  ok.samples = 12;
  ok.throughput = 0.5;
  ok.ranking = {{"lsd.uops", 0.25, 3}};
  WorkloadResult failed;
  failed.status = ErrorCode::kEstimationFailed;
  failed.error = "bad row";
  reply.results = {ok, failed, ok};
  std::vector<std::string> blocks;
  for (const WorkloadResult& r : reply.results) {
    blocks.push_back(encode_workload_result(r, limits));
  }
  EXPECT_EQ(encode_estimate_reply_blocks(reply.model_id,
                                         reply.swap_generation, blocks,
                                         limits),
            encode_estimate_reply(reply, limits));

  limits.max_workloads = 2;
  try {
    (void)encode_estimate_reply_blocks(reply.model_id, 9, blocks, limits);
    ADD_FAILURE() << "three blocks passed a two-workload limit";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kLimitExceeded);
  }
}

TEST(Protocol, MutatedPayloadsNeverMisbehave) {
  const Limits limits;
  EstimateRequest request;
  request.model_class = "c";
  request.workload_csvs = {workload_csv(3, 3)};
  const std::string payload = encode_estimate_request(request, limits);
  util::Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    std::string bad = payload;
    const int flips = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < flips; ++i) {
      bad[rng.below(bad.size())] ^= static_cast<char>(1 + rng.below(255));
    }
    // Decode must either succeed or throw ProtocolError — nothing else.
    try {
      (void)decode_estimate_request(bad, limits);
    } catch (const ProtocolError&) {
    }
  }
}

// --------------------------------------------------------------------------
// Server semantics over live sockets
// --------------------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  /// Publishes one model and boots a server on a fresh socket, its
  /// evaluation gate wired to gate_ (see HeldPump).
  void boot(ServerOptions options = {}) {
    registry_ = std::make_unique<serve::ModelRegistry>(
        fresh_dir("server_reg_" + std::string(
            ::testing::UnitTest::GetInstance()->current_test_info()->name())));
    model_id_ = registry_->publish(trained_ensemble(17));
    options.socket_path = socket_path();
    options.evaluation_gate = [gate = gate_, held = model_id_](
                                  const std::string& model_id) {
      if (model_id != held) return;
      std::unique_lock<std::mutex> lock(gate->mutex);
      ++gate->entered;
      gate->cv.notify_all();
      gate->cv.wait(lock, [&] { return !gate->holding; });
    };
    server_ = std::make_unique<EstimationServer>(*registry_, options);
    server_->start();
  }

  std::string socket_path() const {
    // Keep it short: sun_path caps around 100 bytes.
    return "/tmp/spire_test_" +
           std::to_string(static_cast<unsigned>(::getpid())) + "_" +
           std::string(
               ::testing::UnitTest::GetInstance()->current_test_info()->name())
               .substr(0, 24) +
           ".sock";
  }

  ClientOptions client_options(int attempts = 2) const {
    ClientOptions options;
    options.socket_path = server_->socket_path();
    options.backoff.max_attempts = attempts;
    options.backoff.base_ms = 5;
    // Match the widest server config used in these tests so the client
    // can frame the deliberately huge workloads.
    options.limits.max_frame_bytes = 64u << 20;
    return options;
  }

  std::uint64_t counter(const std::string& name) const {
    const StatsReply stats = server_->stats_snapshot();
    for (const auto& [k, v] : stats.counters) {
      if (k == name) return v;
    }
    return 0;
  }

  /// Spins until a server counter reaches `at_least` (or ~20s elapse).
  /// The window is deliberately generous: under sanitizers on a loaded
  /// single-core host (ctest's cost-based scheduler likes to start the
  /// two heaviest server tests together) merely reaching the active
  /// state can take seconds, and a healthy run returns on the first
  /// poll regardless.
  bool wait_for_counter(const std::string& name, std::uint64_t at_least) {
    for (int i = 0; i < 20000; ++i) {
      if (counter(name) >= at_least) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  /// The state every booted server's evaluation gate consults. While a
  /// HeldPump holds it, the fixture model's pump rounds wait in the gate.
  struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    bool holding = false;
    int entered = 0;  // the model's rounds since the HeldPump was made
  };

  /// Holds the fixture model's evaluations until open(), so "this shard is
  /// busy" is a state the test sets rather than a race between the kernel
  /// and the test's next step. The gate (ServerOptions::evaluation_gate)
  /// runs on the pump once per round, after the round's requests have
  /// begun and before any is evaluated; other models' rounds pass.
  ///
  /// It is also the scope guard for the client threads the test starts
  /// through spawn(): on every exit the destructor opens the gate, then
  /// joins them, so no held reply leaves a join waiting. Declare it after
  /// everything those threads use.
  class HeldPump {
   public:
    explicit HeldPump(ServerTest& test) : gate_(test.gate_) {
      std::lock_guard<std::mutex> lock(gate_->mutex);
      gate_->holding = true;
      gate_->entered = 0;
    }
    HeldPump(const HeldPump&) = delete;
    HeldPump& operator=(const HeldPump&) = delete;
    ~HeldPump() {
      open();
      join();
    }

    /// Lets every held round, and every later one, run.
    void open() {
      {
        std::lock_guard<std::mutex> lock(gate_->mutex);
        gate_->holding = false;
      }
      gate_->cv.notify_all();
    }

    /// Waits (up to ~20 s, as wait_for_counter does) until `n` rounds of
    /// the model have entered the gate.
    bool wait_entered(int n) {
      std::unique_lock<std::mutex> lock(gate_->mutex);
      return gate_->cv.wait_for(lock, std::chrono::seconds(20),
                                [&] { return gate_->entered >= n; });
    }

    void spawn(std::function<void()> body) {
      threads_.emplace_back(std::move(body));
    }

    /// Joins the spawned threads; open() first if one may be held.
    void join() {
      for (std::thread& thread : threads_) thread.join();
      threads_.clear();
    }

   private:
    const std::shared_ptr<Gate> gate_;
    std::vector<std::thread> threads_;
  };

  // Shared with the server, whose pumps may reach the gate until it is
  // torn down.
  const std::shared_ptr<Gate> gate_ = std::make_shared<Gate>();
  std::unique_ptr<serve::ModelRegistry> registry_;
  std::unique_ptr<EstimationServer> server_;
  std::string model_id_;
};

TEST_F(ServerTest, PingStatsAndSwapOverTheSocket) {
  boot();
  Client client(client_options());
  client.ping();

  const std::uint64_t before = server_->swap_generation();
  const SwapReply swapped = client.swap();
  EXPECT_EQ(swapped.model_id, model_id_);
  EXPECT_EQ(swapped.swap_generation, before + 1);

  const StatsReply stats = client.stats();
  auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [k, v] : stats.counters) {
      if (k == name) return v;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_GE(counter("frames_received"), 2u);
  EXPECT_EQ(counter("malformed_frames"), 0u);
  EXPECT_EQ(counter("swap_generation"), before + 1);
}

TEST_F(ServerTest, EstimateMatchesLocalEvaluationExactly) {
  boot();
  Client client(client_options());
  EstimateRequest request;
  request.workload_csvs = {workload_csv(3), workload_csv(5)};
  const EstimateReply reply = client.estimate(request);

  EXPECT_EQ(reply.model_id, model_id_);
  ASSERT_EQ(reply.results.size(), 2u);
  const Ensemble local = trained_ensemble(17);
  const std::uint64_t seeds[] = {3, 5};
  for (int i = 0; i < 2; ++i) {
    const auto& r = reply.results[i];
    ASSERT_EQ(r.status, ErrorCode::kOk) << r.error;
    const Dataset workload = mixed_workload(seeds[i]);
    const model::Estimate expected = local.estimate(DatasetView(workload));
    EXPECT_EQ(r.samples, workload.size());
    EXPECT_EQ(r.throughput, expected.throughput);  // bit-identical
    ASSERT_EQ(r.ranking.size(), expected.ranking.size());
    for (std::size_t j = 0; j < r.ranking.size(); ++j) {
      EXPECT_EQ(r.ranking[j].metric,
                counters::event_name(expected.ranking[j].metric));
      EXPECT_EQ(r.ranking[j].p_bar, expected.ranking[j].p_bar);
      EXPECT_EQ(r.ranking[j].samples, expected.ranking[j].samples);
    }
  }
}

TEST_F(ServerTest, ExplicitUnknownModelIdIsAStructuredError) {
  boot();
  Client client(client_options());
  EstimateRequest request;
  request.model_id = std::string(16, 'a');
  request.workload_csvs = {workload_csv(3, 3)};
  try {
    client.estimate(request);
    FAIL() << "unknown model id accepted";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kModelUnavailable);
  }
}

/// Raw framed exchange against the server socket, bypassing the client's
/// retry logic: returns true when a complete reply frame came back.
bool raw_exchange(const std::string& socket_path, const std::string& frame,
                  FrameHeader* header_out, std::string* payload_out,
                  bool half_frame = false) {
  ClientOptions options;
  options.socket_path = socket_path;
  options.backoff.max_attempts = 1;
  Client probe(options);
  // Reuse the client's connection plumbing via raw_roundtrip only for
  // well-formed frames; hand-built defective frames go through a raw fd.
  (void)probe;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    util::close_quietly(fd);
    return false;
  }
  const std::size_t send_bytes =
      half_frame ? frame.size() / 2 : frame.size();
  if (util::write_all_deadline(fd, frame.data(), send_bytes, 2000) !=
      util::IoStatus::kOk) {
    util::close_quietly(fd);
    return false;
  }
  if (half_frame) ::shutdown(fd, SHUT_WR);
  unsigned char header_bytes[kFrameHeaderBytes];
  if (util::read_exact(fd, header_bytes, sizeof header_bytes, 2000) !=
      util::IoStatus::kOk) {
    util::close_quietly(fd);
    return false;
  }
  const FrameHeader header = decode_header(header_bytes, Limits{});
  std::string payload(header.payload_len, '\0');
  if (header.payload_len > 0 &&
      util::read_exact(fd, payload.data(), payload.size(), 2000) !=
          util::IoStatus::kOk) {
    util::close_quietly(fd);
    return false;
  }
  util::close_quietly(fd);
  if (header_out) *header_out = header;
  if (payload_out) *payload_out = std::move(payload);
  return true;
}

TEST_F(ServerTest, MalformedFramesGetStructuredErrorsNotCrashes) {
  boot();
  const Limits limits;

  // Bad version byte: correlated error reply, then the connection closes.
  std::string bad_version = encode_frame(FrameType::kPingRequest, 7, "", limits);
  bad_version[4] = 9;
  FrameHeader header;
  std::string payload;
  ASSERT_TRUE(raw_exchange(server_->socket_path(), bad_version, &header,
                           &payload));
  EXPECT_EQ(header.type, FrameType::kErrorReply);
  EXPECT_EQ(header.seq, 7u);
  EXPECT_EQ(decode_error_reply(payload, limits).code,
            ErrorCode::kUnsupportedVersion);

  // Unknown frame type: error reply, framing intact.
  std::string unknown = encode_frame(FrameType::kPingRequest, 8, "", limits);
  unknown[5] = 0x55;
  ASSERT_TRUE(raw_exchange(server_->socket_path(), unknown, &header, &payload));
  EXPECT_EQ(header.type, FrameType::kErrorReply);
  EXPECT_EQ(header.seq, 8u);
  EXPECT_EQ(decode_error_reply(payload, limits).code, ErrorCode::kUnknownType);

  // Ping with trailing garbage payload: kMalformedFrame.
  const std::string noisy =
      encode_frame(FrameType::kPingRequest, 9, "junk", limits);
  ASSERT_TRUE(raw_exchange(server_->socket_path(), noisy, &header, &payload));
  EXPECT_EQ(decode_error_reply(payload, limits).code,
            ErrorCode::kMalformedFrame);

  // Torn frame (half a header, then EOF): NO reply, no crash.
  const std::string whole = encode_frame(FrameType::kPingRequest, 10, "",
                                         limits);
  EXPECT_FALSE(raw_exchange(server_->socket_path(), whole, nullptr, nullptr,
                            /*half_frame=*/true));

  // The server is still healthy for the next client.
  Client client(client_options());
  client.ping();
}

// Batch slicing: the reader resolves a request's workloads in order and
// checks the deadline before each parse. The first workload is a ~7 MB
// CSV (~100k rows) whose last row is malformed, so parsing it eats the
// whole budget and then fails; the remaining slices must come back
// kDeadlineExceeded, not be parsed or dropped. Nothing is left to
// evaluate, so the reader replies itself. Under sanitizers the budget
// can be gone before the first parse, so slice 0 may legitimately expire
// too — what must never happen is a slice resolving after an earlier one
// expired, or a slice being dropped. This case races the CSV loader, not
// the kernel, and no evaluation gate can hold a reader, so it still buys
// its time with a large workload.
TEST_F(ServerTest, DeadlinesEnforcedBetweenBatchSlices) {
  ServerOptions options;
  options.limits.max_frame_bytes = 64u << 20;
  boot(options);
  Client client(client_options());
  EstimateRequest sliced;
  sliced.deadline_ms = 10;
  sliced.workload_csvs = {workload_csv(11, 25'000) + "short-row\n",
                          workload_csv(5, 3), workload_csv(6, 3)};
  const EstimateReply reply = client.estimate(sliced);
  ASSERT_EQ(reply.results.size(), 3u);
  bool expired = false;
  for (const auto& result : reply.results) {
    if (expired) {
      EXPECT_EQ(result.status, ErrorCode::kDeadlineExceeded);
      EXPECT_NE(result.error.find("deadline expired"), std::string::npos);
    }
    if (result.status == ErrorCode::kDeadlineExceeded) expired = true;
  }
  EXPECT_TRUE(expired) << "10 ms budget survived a ~7 MB workload";
}

// Dequeue: the pump is held inside a blocker's evaluation while a request
// queues behind it and outlives its deadline; it must be rejected whole,
// never evaluated. The deadline is long enough for the reader to resolve
// the request and queue it first, even on a loaded sanitizer host.
TEST_F(ServerTest, DeadlinesEnforcedAtDequeue) {
  boot();

  const std::string blob = workload_bin(12);
  ClientOptions eager_options = client_options(1);
  Client eager(eager_options);
  EstimateRequest rushed;
  rushed.deadline_ms = 200;
  rushed.workload_csvs = {workload_csv(5, 3)};
  HeldPump pump(*this);
  pump.spawn([&] {
    ClientOptions slow = client_options(1);
    Client c(slow);
    EstimateBinRequest r;
    r.profiles.assign(8, blob);
    EXPECT_NO_THROW(c.estimate_bin(r));
  });
  ASSERT_TRUE(pump.wait_entered(1));
  ASSERT_TRUE(wait_for_counter("active_requests", 1));
  pump.spawn([&] {
    try {
      eager.estimate(rushed);
      ADD_FAILURE() << "queued request outlived its deadline";
    } catch (const ServerError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
    } catch (const ServerUnavailable&) {
      // Deadline burned client-side before a retry could go out — also a
      // correct refusal to evaluate late.
    }
  });
  // Queued behind the held round; its deadline runs from its receipt,
  // which came before the queue slot, so it has passed once this sleep
  // ends.
  ASSERT_TRUE(wait_for_counter("queue_depth", 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(rushed.deadline_ms));
  pump.open();
  pump.join();
  EXPECT_GE([&] {
    const StatsReply stats = server_->stats_snapshot();
    for (const auto& [k, v] : stats.counters) {
      if (k == "deadline_expired") return v;
    }
    return std::uint64_t{0};
  }(), 1u);
}

TEST_F(ServerTest, ForcedOverloadShedsAndClientRetriesExhaust) {
  ServerOptions options;
  options.chaos.force_overload = 1.0;  // admission always says no
  boot(options);
  ClientOptions copts = client_options(3);
  Client client(copts);
  EstimateRequest request;
  request.workload_csvs = {workload_csv(3, 3)};
  EXPECT_THROW(client.estimate(request), ServerUnavailable);

  // The reply reaches the client just before the server bumps its
  // counters, so observe them with a grace window.
  EXPECT_TRUE(wait_for_counter("shed_overloaded", 3));  // one per attempt
  EXPECT_TRUE(wait_for_counter("replies_error", 3));    // every shed answered
  EXPECT_EQ(counter("shed_overloaded"), 3u);
  EXPECT_EQ(counter("replies_error"), 3u);
  // Control frames are not subject to admission control.
  client.ping();
}

TEST_F(ServerTest, HotSwapUnderTrafficKeepsEveryReplyConsistent) {
  boot();
  const std::string second_id = registry_->publish(trained_ensemble(29));
  ASSERT_NE(second_id, model_id_);

  std::atomic<bool> stop{false};
  std::atomic<int> ok_replies{0};
  std::thread traffic([&] {
    Client client(client_options(4));
    EstimateRequest request;
    request.workload_csvs = {workload_csv(3, 10)};
    while (!stop.load()) {
      const EstimateReply reply = client.estimate(request);
      // Whatever mapping the request snapshotted, the reply must name a
      // real published object and carry a complete result.
      EXPECT_TRUE(reply.model_id == model_id_ || reply.model_id == second_id);
      ASSERT_EQ(reply.results.size(), 1u);
      EXPECT_EQ(reply.results[0].status, ErrorCode::kOk);
      ok_replies.fetch_add(1);
    }
  });
  // Swap repeatedly while traffic flows; make the newest object win
  // latest() by touching its mtime forward each round.
  Client ctl(client_options(4));
  std::uint64_t generation = server_->swap_generation();
  for (int round = 0; round < 10; ++round) {
    std::filesystem::last_write_time(
        registry_->object_path(round % 2 == 0 ? second_id : model_id_),
        std::filesystem::file_time_type::clock::now() +
            std::chrono::seconds(round + 1));
    const SwapReply swapped = ctl.swap();
    EXPECT_EQ(swapped.model_id, round % 2 == 0 ? second_id : model_id_);
    EXPECT_GT(swapped.swap_generation, generation);
    generation = swapped.swap_generation;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  traffic.join();
  EXPECT_GT(ok_replies.load(), 0);
}

TEST_F(ServerTest, GracefulDrainFinishesInFlightAndRefusesNewWork) {
  ServerOptions options;
  options.drain_timeout_ms = 20'000;
  boot(options);

  std::atomic<bool> in_flight_done{false};
  HeldPump pump(*this);
  pump.spawn([&] {
    Client client(client_options(1));
    EstimateRequest request;
    request.workload_csvs = {workload_csv(11)};
    const EstimateReply reply = client.estimate(request);
    ASSERT_EQ(reply.results.size(), 1u);
    EXPECT_EQ(reply.results[0].status, ErrorCode::kOk);
    in_flight_done.store(true);
  });
  // Open the probe connection while the server still accepts, so the
  // post-shutdown refusal below is a framed kShuttingDown reply rather
  // than a connect race against the closing listener.
  ClientOptions copts = client_options(1);
  Client late(copts);
  late.ping();

  // Shut down only once the slow request is held inside its evaluation.
  ASSERT_TRUE(pump.wait_entered(1));
  ASSERT_TRUE(wait_for_counter("active_requests", 1));
  server_->begin_shutdown();

  // New work during the drain is refused with kShuttingDown; the
  // in-flight request below still completes.
  try {
    late.ping();
    ADD_FAILURE() << "ping accepted during drain";
  } catch (const ServerUnavailable& e) {
    EXPECT_NE(std::string(e.what()).find("SHUTTING_DOWN"), std::string::npos)
        << e.what();
  }
  pump.open();
  EXPECT_TRUE(server_->wait_until_drained());
  pump.join();
  EXPECT_TRUE(in_flight_done.load());  // the drain never dropped it
}

TEST_F(ServerTest, DrainTimeoutReportsDirtyShutdown) {
  ServerOptions options;
  options.drain_timeout_ms = 30;
  boot(options);
  HeldPump pump(*this);
  pump.spawn([&] {
    Client client(client_options(1));
    EstimateRequest request;
    request.workload_csvs = {workload_csv(11)};
    try {
      (void)client.estimate(request);
    } catch (const ServerUnavailable&) {
      // The dirty shutdown may cut the connection before the reply.
    }
  });
  ASSERT_TRUE(pump.wait_entered(1));
  ASSERT_TRUE(wait_for_counter("active_requests", 1));
  server_->begin_shutdown();
  // The in-flight request is held past the 30 ms budget: drain reports
  // dirty.
  EXPECT_FALSE(server_->wait_until_drained());
}

// --------------------------------------------------------------------------
// Chaos: exactly one reply per complete frame, clean drain, no crashes
// --------------------------------------------------------------------------

TEST_F(ServerTest, ChaosFleetNeverLosesARequestAndDrainsClean) {
  ServerOptions options;
  options.workers = 4;
  options.max_queue = 8;
  options.chaos.seed = 1234;
  options.chaos.stall_before_read = 0.05;
  options.chaos.swap_mid_request = 0.05;
  options.chaos.force_overload = 0.05;
  options.chaos.stall_ms = 5;
  options.drain_timeout_ms = 20'000;
  boot(options);

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 40;
  std::atomic<int> complete_sent{0};
  std::atomic<int> replies{0};
  std::atomic<int> torn{0};
  std::vector<std::thread> fleet;
  for (int t = 0; t < kThreads; ++t) {
    fleet.emplace_back([&, t] {
      ClientOptions copts;
      copts.socket_path = server_->socket_path();
      copts.backoff.max_attempts = 1;
      // Client-side faults: torn outbound frames and mid-write stalls,
      // with a per-thread deterministic stream.
      copts.chaos.seed = 5678 + static_cast<std::uint64_t>(t);
      copts.chaos.tear_frame = 0.05;
      copts.chaos.stall_mid_write = 0.05;
      copts.chaos.stall_ms = 5;
      Client client(copts);
      const std::string csv = workload_csv(static_cast<std::uint64_t>(t), 10);
      for (int i = 0; i < kRequestsPerThread; ++i) {
        EstimateRequest request;
        request.workload_csvs = {csv};
        const std::string payload =
            encode_estimate_request(request, copts.limits);
        FrameHeader header;
        std::string body;
        std::string error;
        const bool got = client.raw_roundtrip(FrameType::kEstimateRequest,
                                              payload, &header, &body, &error);
        if (got) {
          // Exactly-one-reply: a complete frame begets a complete reply,
          // either the estimate or a structured error.
          replies.fetch_add(1);
          complete_sent.fetch_add(1);
          if (header.type == FrameType::kEstimateReply) {
            const EstimateReply reply =
                decode_estimate_reply(body, copts.limits);
            ASSERT_EQ(reply.results.size(), 1u);
          } else {
            ASSERT_EQ(header.type, FrameType::kErrorReply);
            const ErrorReply err = decode_error_reply(body, copts.limits);
            EXPECT_TRUE(err.code == ErrorCode::kOverloaded ||
                        err.code == ErrorCode::kDeadlineExceeded ||
                        err.code == ErrorCode::kShuttingDown)
                << error_code_name(err.code) << ": " << err.message;
          }
        } else if (error.find("chaos: tore") != std::string::npos) {
          torn.fetch_add(1);  // torn frames are owed nothing
        } else {
          ADD_FAILURE() << "complete frame lost its reply: " << error;
          complete_sent.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : fleet) t.join();
  EXPECT_EQ(complete_sent.load(), replies.load());
  EXPECT_EQ(complete_sent.load() + torn.load(), kThreads * kRequestsPerThread);
  EXPECT_GT(torn.load(), 0);  // the fault injection actually fired

  // After the storm: the server still answers, then drains cleanly.
  Client survivor(client_options(4));
  survivor.ping();
  server_->begin_shutdown();
  EXPECT_TRUE(server_->wait_until_drained());
}

// --------------------------------------------------------------------------
// Concurrency-contract regressions (the annotate-then-fix pass, PR 7)
// --------------------------------------------------------------------------

// started_ was an unguarded bool: two threads racing start() could both
// read false, both bind, and leak a listener. It is now read and written
// under lifecycle_mutex_ for the whole body, so exactly one caller wins
// and every loser throws "already started".
TEST_F(ServerTest, ConcurrentStartAdmitsExactlyOneListener) {
  registry_ = std::make_unique<serve::ModelRegistry>(
      fresh_dir("server_reg_concurrent_start"));
  model_id_ = registry_->publish(trained_ensemble(17));
  ServerOptions options;
  options.socket_path = socket_path();
  server_ = std::make_unique<EstimationServer>(*registry_, options);

  constexpr int kStarters = 8;
  std::atomic<int> won{0};
  std::atomic<int> lost{0};
  std::vector<std::thread> starters;
  starters.reserve(kStarters);
  for (int i = 0; i < kStarters; ++i) {
    starters.emplace_back([&] {
      try {
        server_->start();
        won.fetch_add(1);
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("already started"),
                  std::string::npos)
            << e.what();
        lost.fetch_add(1);
      }
    });
  }
  for (auto& t : starters) t.join();
  EXPECT_EQ(won.load(), 1);
  EXPECT_EQ(lost.load(), kStarters - 1);

  // The one listener that won actually serves.
  Client client(client_options());
  client.ping();
}

/// Threads of this process, once no thread is still starting or exiting:
/// a joined thread can linger in /proc/self/task for a moment.
std::size_t settled_thread_count() {
  const auto count = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++n;
    }
    return n;
  };
  std::size_t last = count();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::size_t now = count();
    if (now == last) return now;
    last = now;
  }
  return last;
}

// Every server thread has one owner, and a server that was never started
// owns only its pool workers.
TEST_F(ServerTest, UnstartedServerRunsOnlyItsPoolThreads) {
  registry_ = std::make_unique<serve::ModelRegistry>(
      fresh_dir("server_reg_unstarted_threads"));
  ServerOptions options;
  options.workers = 2;
  const std::size_t before = settled_thread_count();
  server_ = std::make_unique<EstimationServer>(*registry_, options);
  EXPECT_EQ(settled_thread_count(), before + 2);
  server_.reset();
  EXPECT_EQ(settled_thread_count(), before);
}

// In socket mode the server adds the accept thread and one reader per live
// connection; the accept thread joins a reader soon after its peer leaves.
TEST_F(ServerTest, SocketServerRunsOneReaderPerLiveConnection) {
  ServerOptions options;
  options.workers = 2;
  const std::size_t before = settled_thread_count();
  boot(options);
  EXPECT_EQ(settled_thread_count(), before + 3);
  {
    Client client(client_options());
    client.ping();
    EXPECT_EQ(settled_thread_count(), before + 4);
  }
  std::size_t after_close = 0;
  for (int i = 0; i < 200; ++i) {
    after_close = settled_thread_count();
    if (after_close == before + 3) break;
  }
  EXPECT_EQ(after_close, before + 3);
}

// Any number of threads may wait for the drain: one begin_shutdown from a
// third thread wakes them all, and each reports the clean drain.
TEST_F(ServerTest, EveryConcurrentDrainWaiterReturnsClean) {
  boot();
  std::atomic<int> clean{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 2; ++i) {
    waiters.emplace_back([&] {
      if (server_->wait_until_drained()) clean.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread([&] { server_->begin_shutdown(); }).join();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(clean.load(), 2);
  EXPECT_TRUE(server_->shutdown_requested());
}

// Stats snapshots taken while traffic is in flight must be internally
// sane: monotonic counters never run backwards between two snapshots, and
// gauges never exceed their configured bounds. This is the observable
// contract of the all-atomics counter design the annotation pass
// documented (nothing in stats_snapshot touches a guarded field).
TEST_F(ServerTest, StatsSnapshotsUnderTrafficStayMonotonicAndBounded) {
  ServerOptions options;
  options.workers = 2;
  options.max_queue = 4;
  boot(options);

  std::atomic<bool> stop{false};
  std::thread traffic([&] {
    Client client(client_options(1));
    const std::string csv = workload_csv(7, 50);
    while (!stop.load(std::memory_order_acquire)) {
      EstimateRequest request;
      request.workload_csvs = {csv};
      try {
        (void)client.estimate(request);
      } catch (const std::exception&) {
        // Overload shedding is fine; the test watches the counters.
      }
    }
  });

  const char* monotonic[] = {"accepted_connections", "estimate_requests",
                             "frames_received",      "replies_ok",
                             "replies_error",        "swap_generation"};
  std::map<std::string, std::uint64_t> last;
  for (int i = 0; i < 200; ++i) {
    const StatsReply stats = server_->stats_snapshot();
    std::map<std::string, std::uint64_t> now(stats.counters.begin(),
                                             stats.counters.end());
    for (const char* name : monotonic) {
      ASSERT_TRUE(now.count(name)) << "missing counter " << name;
      EXPECT_GE(now[name], last[name]) << name << " ran backwards";
    }
    EXPECT_LE(now["queue_depth"], options.max_queue) << "admission leak";
    EXPECT_LE(now["active_requests"],
              options.workers + options.max_queue)
        << "drain accounting leak";
    last = std::move(now);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  traffic.join();
  EXPECT_GT(last["estimate_requests"], 0u);
}

// --------------------------------------------------------------------------
// Sharded routing, the memo-cache, and the shards listing
// --------------------------------------------------------------------------

// The estimate memo-cache must be invisible except in latency: a repeat of
// the exact same request returns the byte-identical reply payload, served
// without touching a shard queue.
TEST_F(ServerTest, CacheHitRepliesAreByteIdenticalAndServedFromMemory) {
  boot();
  const Limits limits;
  EstimateRequest request;
  request.workload_csvs = {workload_csv(21, 10), workload_csv(22, 10)};
  const std::string body = encode_estimate_request(request, limits);

  FrameHeader header;
  std::string first, second;
  ASSERT_TRUE(raw_exchange(server_->socket_path(),
                           encode_frame(FrameType::kEstimateRequest, 1, body,
                                        limits),
                           &header, &first));
  ASSERT_EQ(header.type, FrameType::kEstimateReply);
  EXPECT_EQ(counter("cache_misses"), 2u);
  EXPECT_EQ(counter("cache_hits"), 0u);

  ASSERT_TRUE(raw_exchange(server_->socket_path(),
                           encode_frame(FrameType::kEstimateRequest, 1, body,
                                        limits),
                           &header, &second));
  ASSERT_EQ(header.type, FrameType::kEstimateReply);
  EXPECT_EQ(first, second) << "cache hit altered the reply bytes";
  EXPECT_EQ(counter("cache_hits"), 2u);
  EXPECT_EQ(counter("cache_misses"), 2u);
  // The repeat never reached a shard: exactly the one coalesced request.
  EXPECT_EQ(counter("coalesced_requests"), 1u);
  // The reply reaches the client just before the server bumps its reply
  // counter, so observe it with a grace window.
  EXPECT_TRUE(wait_for_counter("replies_ok", 2));

  // And the cached bytes decode to the same correct estimate.
  const EstimateReply reply = decode_estimate_reply(second, limits);
  ASSERT_EQ(reply.results.size(), 2u);
  const Ensemble local = trained_ensemble(17);
  const Dataset workload = mixed_workload(21, 10);
  ASSERT_EQ(reply.results[0].status, ErrorCode::kOk);
  EXPECT_EQ(reply.results[0].throughput,
            local.estimate(DatasetView(workload)).throughput);
}

// Overload is per shard: saturating model A's bounded queue must shed A
// traffic with kOverloaded while model B estimates sail through.
TEST_F(ServerTest, PerShardOverloadIsolationUnderSaturation) {
  // Shard A's pump is held inside its first evaluation until the test
  // opens the gate, so "A is saturated" is a state the test sets rather
  // than a race between hogs refilling A's queue slot and the kernel
  // draining it.
  ServerOptions options;
  options.workers = 2;
  options.max_queue = 1;
  // Distinct workloads throughout, and no memo: every A request must
  // reach the shard rather than be answered inline as a cache hit.
  options.cache_entries = 0;
  boot(options);
  const std::string second_id = registry_->publish(trained_ensemble(29));
  ASSERT_NE(second_id, model_id_);

  // A1 is popped and held at the gate by A's pump (on one of the two
  // workers); A2 then waits in A's single queue slot.
  const auto send_a = [&](std::uint64_t seed) {
    Client c(client_options());
    EstimateRequest r;
    r.model_id = model_id_;
    r.workload_csvs = {workload_csv(seed, 5)};
    const EstimateReply reply = c.estimate(r);
    EXPECT_EQ(reply.results.size(), 1u);
    for (const auto& result : reply.results) {
      EXPECT_EQ(result.status, ErrorCode::kOk) << result.error;
    }
  };
  HeldPump pump(*this);
  pump.spawn([&] { send_a(11); });
  const bool held = pump.wait_entered(1);
  pump.spawn([&] { send_a(12); });
  const bool parked = wait_for_counter("queue_depth", 1);
  EXPECT_TRUE(held && parked) << "shard A never saturated";

  // A saturated shard sheds a small A request with kOverloaded...
  if (held && parked) {
    Client probe(client_options(1));
    EstimateRequest r;
    r.model_id = model_id_;
    r.workload_csvs = {workload_csv(13, 3)};
    EXPECT_THROW((void)probe.estimate(r), ServerUnavailable);
    EXPECT_GE(counter("shed_overloaded"), 1u);
  }

  // ...while model B, on its own shard and the second worker, sails
  // through every single time.
  Client b_client(client_options());
  for (std::uint64_t seed = 20; seed < 23; ++seed) {
    EstimateRequest fine;
    fine.model_id = second_id;
    fine.workload_csvs = {workload_csv(seed, 5)};
    const EstimateReply reply = b_client.estimate(fine);
    EXPECT_EQ(reply.model_id, second_id);
    EXPECT_EQ(reply.results.size(), 1u);
    for (const auto& result : reply.results) {
      EXPECT_EQ(result.status, ErrorCode::kOk) << result.error;
    }
  }
  EXPECT_GE(counter("shards_active"), 2u);

  // Opening the gate (in `pump`'s destructor) drains A: both held
  // requests are answered.
}

// Chaos variant: a mid-request swap that retires the shard the request is
// riding on must not cost the request its reply — the pump holds the shard
// alive until its queue drains, so every in-flight request completes.
TEST_F(ServerTest, MidRequestSwapRetiresShardButEveryReplyArrives) {
  ServerOptions options;
  options.chaos.swap_mid_request = 1.0;  // every request swaps at dequeue
  options.chaos.seed = 7;
  boot(options);

  Client client(client_options());
  auto estimate = [&](std::uint64_t seed) {
    EstimateRequest request;
    request.workload_csvs = {workload_csv(seed, 5)};
    const EstimateReply reply = client.estimate(request);
    EXPECT_EQ(reply.results.size(), 1u);
    EXPECT_EQ(reply.results[0].status, ErrorCode::kOk)
        << reply.results[0].error;
    return reply.model_id;
  };
  // Binds the default class to the only published model; the chaos swap
  // re-resolves to the same id, so nothing is displaced yet.
  EXPECT_EQ(estimate(31), model_id_);

  // Publish a newer model and make it win latest(): the next request is
  // routed to the old shard, then the mid-request swap rebinds the class
  // and retires that shard while the request is still in flight.
  const std::string second_id = registry_->publish(trained_ensemble(29));
  ASSERT_NE(second_id, model_id_);
  std::filesystem::last_write_time(
      registry_->object_path(second_id),
      std::filesystem::file_time_type::clock::now() + std::chrono::seconds(2));
  EXPECT_EQ(estimate(32), model_id_);  // rode the retired shard to completion
  EXPECT_GE(counter("shards_retired"), 1u);
  EXPECT_GE(counter("chaos_injected"), 2u);

  // Traffic keeps flowing on the replacement shard.
  EXPECT_EQ(estimate(33), second_id);
  EXPECT_EQ(estimate(34), second_id);
  EXPECT_TRUE(wait_for_counter("replies_ok", 4));
}

// `serverctl shards` ground truth: the listing names every live shard with
// its class bindings and queue/coalescing counters, flags retirement after
// a swap displaces a shard, and the registry mapping counters the
// shards feed are visible in stats.
TEST_F(ServerTest, ShardsListingReflectsRoutingAndRetirement) {
  boot();
  Client client(client_options());

  // Class-routed traffic binds the default class to model A...
  EstimateRequest by_class;
  by_class.workload_csvs = {workload_csv(41, 5)};
  ASSERT_EQ(client.estimate(by_class).model_id, model_id_);
  // ...then explicit-id traffic spins up an unbound shard for model B.
  const std::string second_id = registry_->publish(trained_ensemble(29));
  EstimateRequest by_id;
  by_id.model_id = second_id;
  by_id.workload_csvs = {workload_csv(42, 5)};
  ASSERT_EQ(client.estimate(by_id).model_id, second_id);

  ShardsReply listing = client.shards();
  ASSERT_EQ(listing.shards.size(), 2u);
  std::map<std::string, ShardInfo> rows;
  for (const auto& row : listing.shards) rows[row.model_id] = row;
  ASSERT_TRUE(rows.count(model_id_));
  ASSERT_TRUE(rows.count(second_id));
  EXPECT_EQ(rows[model_id_].classes, std::vector<std::string>{""});
  EXPECT_TRUE(rows[second_id].classes.empty());
  for (const auto& [id, row] : rows) {
    EXPECT_GE(row.enqueued, 1u) << id;
    EXPECT_GE(row.completed, 1u) << id;
    EXPECT_GE(row.batches, 1u) << id;
    EXPECT_EQ(row.queue_depth, 0u) << id;
    EXPECT_EQ(row.shed, 0u) << id;
    EXPECT_EQ(row.retired, 0u) << id;
  }

  // Swap the default class onto model B: shard A loses its last binding
  // and is retired; the listing either shows it draining or, once its
  // pump released the last reference, drops the row entirely.
  std::filesystem::last_write_time(
      registry_->object_path(second_id),
      std::filesystem::file_time_type::clock::now() + std::chrono::seconds(2));
  const SwapReply swapped = client.swap();
  EXPECT_EQ(swapped.model_id, second_id);
  listing = client.shards();
  bool saw_live_b = false;
  for (const auto& row : listing.shards) {
    if (row.model_id == second_id && row.retired == 0) {
      saw_live_b = true;
      EXPECT_EQ(row.classes, std::vector<std::string>{""});
    }
    if (row.model_id == model_id_) {
      EXPECT_EQ(row.retired, 1u);
    }
  }
  EXPECT_TRUE(saw_live_b);
  EXPECT_GE(counter("shards_retired"), 1u);
  EXPECT_EQ(counter("shards_active"), 1u);

  // The registry's mapping counters surface through the same stats pipe:
  // each shard's model was mapped at least once (two misses), and the keys
  // exist even when zero. The registry keeps no mapping LRU, so it reports
  // no evictions.
  EXPECT_GE(counter("registry_cache_misses"), 2u);
  const StatsReply stats = server_->stats_snapshot();
  std::map<std::string, std::uint64_t> all(stats.counters.begin(),
                                           stats.counters.end());
  EXPECT_TRUE(all.count("registry_cache_hits"));
  EXPECT_FALSE(all.count("registry_cache_evictions"));
  EXPECT_TRUE(all.count("cache_evictions"));
}

// --------------------------------------------------------------------------
// Protocol v2: the binary estimate path and pipelined framing
// --------------------------------------------------------------------------

TEST(Protocol, EstimateBinRequestRoundTripsZeroCopyAndEnforcesLimits) {
  const Limits limits;
  const std::string p1 = workload_bin(1, 5);
  const std::string p2 = workload_bin(2, 5);
  EstimateBinRequest request;
  request.model_class = "batch";
  request.model_id = "0123456789abcdef";
  request.deadline_ms = 900;
  request.merge = 1;
  request.profiles = {p1, p2};

  const std::string payload = encode_estimate_bin_request(request, limits);
  const EstimateBinRequest back = decode_estimate_bin_request(payload, limits);
  EXPECT_EQ(back.model_class, request.model_class);
  EXPECT_EQ(back.model_id, request.model_id);
  EXPECT_EQ(back.deadline_ms, request.deadline_ms);
  EXPECT_EQ(back.merge, request.merge);
  ASSERT_EQ(back.profiles.size(), 2u);
  EXPECT_EQ(back.profiles[0], p1);
  EXPECT_EQ(back.profiles[1], p2);
  // Zero-copy: the decoded views alias the payload, not fresh storage.
  for (const std::string_view profile : back.profiles) {
    EXPECT_GE(profile.data(), payload.data());
    EXPECT_LE(profile.data() + profile.size(),
              payload.data() + payload.size());
    // And the profile sections land 8-aligned inside the frame payload, so
    // the parser's aliasing fast path applies when the payload itself is
    // aligned (heap std::string storage always is).
    EXPECT_EQ(static_cast<std::size_t>(profile.data() - payload.data()) % 8,
              0u);
  }

  EXPECT_THROW(decode_estimate_bin_request(payload + "x", limits),
               ProtocolError);
  for (std::size_t cut = 0; cut < payload.size(); cut += 7) {
    EXPECT_THROW(decode_estimate_bin_request(payload.substr(0, cut), limits),
                 ProtocolError);
  }
  EstimateBinRequest crowded = request;
  const std::string small = workload_bin(3, 1);
  crowded.profiles.assign(limits.max_workloads + 1, small);
  EXPECT_THROW(encode_estimate_bin_request(crowded, limits), ProtocolError);
}

TEST_F(ServerTest, BinaryEstimateIsBitIdenticalToTextAtEveryThreadCount) {
  const Ensemble local = trained_ensemble(17);
  for (const std::size_t workers : {1u, 4u, 8u}) {
    server_.reset();  // release the socket (and the registry it references)
    ServerOptions options;
    options.workers = workers;
    boot(options);
    Client client(client_options());

    EstimateRequest text;
    text.workload_csvs = {workload_csv(3), workload_csv(5)};
    const EstimateReply via_text = client.estimate(text);

    EstimateBinRequest bin;
    const std::string p1 = workload_bin(3);
    const std::string p2 = workload_bin(5);
    bin.profiles = {p1, p2};
    const EstimateReply via_bin = client.estimate_bin(std::move(bin));

    ASSERT_EQ(via_text.results.size(), 2u) << "workers=" << workers;
    ASSERT_EQ(via_bin.results.size(), 2u) << "workers=" << workers;
    const std::uint64_t seeds[] = {3, 5};
    for (int i = 0; i < 2; ++i) {
      const auto& t = via_text.results[i];
      const auto& b = via_bin.results[i];
      ASSERT_EQ(t.status, ErrorCode::kOk) << t.error;
      ASSERT_EQ(b.status, ErrorCode::kOk) << b.error;
      const Dataset workload = mixed_workload(seeds[i]);
      const model::Estimate expected = local.estimate(DatasetView(workload));
      EXPECT_EQ(b.samples, t.samples);
      EXPECT_EQ(b.throughput, expected.throughput);  // bit-identical
      EXPECT_EQ(b.throughput, t.throughput);
      ASSERT_EQ(b.ranking.size(), t.ranking.size());
      for (std::size_t j = 0; j < b.ranking.size(); ++j) {
        EXPECT_EQ(b.ranking[j].metric, t.ranking[j].metric);
        EXPECT_EQ(b.ranking[j].p_bar, t.ranking[j].p_bar);
        EXPECT_EQ(b.ranking[j].samples, t.ranking[j].samples);
      }
    }
    EXPECT_GE(counter("requests_binary"), 1u);
    EXPECT_GE(counter("requests_text"), 1u);
  }
}

TEST_F(ServerTest, MalformedBinaryProfileIsAStructuredErrorNamingTheDefect) {
  boot();
  Client client(client_options());
  std::string corrupt = workload_bin(3, 5);
  corrupt[corrupt.size() - 2] ^= 0x10;  // samples CRC mismatch
  EstimateBinRequest request;
  request.profiles = {corrupt};
  try {
    client.estimate_bin(std::move(request));
    FAIL() << "corrupt profile accepted";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kMalformedFrame);
    EXPECT_NE(std::string(e.what()).find("profile-bin"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("workload 0"), std::string::npos)
        << e.what();
  }
  // The connection survives a rejected profile; the server stays healthy.
  client.ping();
  EXPECT_GE(counter("malformed_frames"), 1u);
}

TEST_F(ServerTest, PipelinedFramesMatchSequentialRepliesBySeq) {
  boot();
  Client client(client_options());
  const Limits& limits = client.options().limits;
  const Ensemble local = trained_ensemble(17);

  // Eight frames, alternating binary and text over DISTINCT workloads (a
  // repeat would become an inline cache hit and dodge the shard), written
  // with the whole window open before the first read. The pump is held
  // inside frame 0's evaluation until the server has read all eight, so
  // every frame behind it arrives while frame 0 is in flight: the overlap
  // the frames_pipelined counter reports.
  constexpr int kFrames = 8;
  constexpr int kPerMetric = 10;
  std::vector<Client::PipelineRequest> requests;
  std::vector<std::string> blobs(kFrames);
  for (int i = 0; i < kFrames; ++i) {
    const auto seed = static_cast<std::uint64_t>(60 + i);
    Client::PipelineRequest frame;
    if (i % 2 == 1) {
      EstimateRequest request;
      request.workload_csvs = {workload_csv(seed, kPerMetric)};
      frame.type = FrameType::kEstimateRequest;
      frame.payload = encode_estimate_request(request, limits);
    } else {
      blobs[static_cast<std::size_t>(i)] = workload_bin(seed, kPerMetric);
      EstimateBinRequest request;
      request.profiles = {blobs[static_cast<std::size_t>(i)]};
      frame.type = FrameType::kEstimateBinRequest;
      frame.payload = encode_estimate_bin_request(request, limits);
    }
    requests.push_back(std::move(frame));
  }
  std::vector<Client::PipelineResult> results;
  std::size_t ok = 0;
  {
    HeldPump pump(*this);
    pump.spawn([&] { ok = client.pipeline(requests, &results, /*window=*/0); });
    ASSERT_TRUE(pump.wait_entered(1));
    ASSERT_TRUE(wait_for_counter("estimate_requests", kFrames));
  }
  ASSERT_EQ(ok, static_cast<std::size_t>(kFrames));
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    const auto& res = results[static_cast<std::size_t>(i)];
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.header.seq, res.seq);
    const FrameType want_reply = i % 2 == 1 ? FrameType::kEstimateReply
                                            : FrameType::kEstimateBinReply;
    ASSERT_EQ(res.header.type, want_reply) << "frame " << i;
    const EstimateReply reply = decode_estimate_reply(res.payload, limits);
    ASSERT_EQ(reply.results.size(), 1u);
    ASSERT_EQ(reply.results[0].status, ErrorCode::kOk)
        << reply.results[0].error;
    const Dataset workload =
        mixed_workload(static_cast<std::uint64_t>(60 + i), kPerMetric);
    EXPECT_EQ(reply.results[0].throughput,
              local.estimate(DatasetView(workload)).throughput);
  }
  // The server observed overlap: every frame behind frame 0 arrived while
  // frame 0 was still in flight.
  EXPECT_TRUE(wait_for_counter("frames_pipelined", kFrames - 1));
}

// The pipelined chaos suite: torn frames interleaved ACROSS in-flight
// requests on one connection. The invariant is the pipelined refinement of
// exactly-one-reply: every fully sent frame gets exactly one reply matched
// by seq (possibly out of order), a torn frame gets none and poisons only
// the frames after it, and the server drains clean afterwards.
TEST_F(ServerTest, PipelinedChaosFullySentSeqsGetExactlyOneReply) {
  ServerOptions options;
  options.workers = 2;
  options.chaos.seed = 4321;
  options.chaos.stall_before_read = 0.05;
  options.chaos.force_overload = 0.05;
  options.chaos.stall_ms = 2;
  options.drain_timeout_ms = 20'000;
  boot(options);

  constexpr int kRounds = 24;
  constexpr int kFramesPerRound = 6;
  int replied = 0;
  int torn = 0;
  int poisoned = 0;
  for (int round = 0; round < kRounds; ++round) {
    ClientOptions copts;
    copts.socket_path = server_->socket_path();
    copts.backoff.max_attempts = 1;
    copts.chaos.seed = 9000 + static_cast<std::uint64_t>(round);
    copts.chaos.tear_frame = 0.15;
    copts.chaos.stall_mid_write = 0.05;
    copts.chaos.stall_ms = 2;
    Client client(copts);

    std::vector<Client::PipelineRequest> requests;
    for (int i = 0; i < kFramesPerRound; ++i) {
      EstimateRequest request;
      request.workload_csvs = {
          workload_csv(static_cast<std::uint64_t>(round * 31 + i), 10)};
      requests.push_back({FrameType::kEstimateRequest,
                          encode_estimate_request(request, copts.limits)});
    }
    std::vector<Client::PipelineResult> results;
    const std::size_t ok = client.pipeline(requests, &results, /*window=*/3);
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kFramesPerRound));
    bool tear_seen = false;
    std::size_t ok_seen = 0;
    for (const auto& res : results) {
      if (res.ok) {
        // A fully sent frame got its one reply — and only sane types.
        ++ok_seen;
        ++replied;
        if (res.header.type == FrameType::kEstimateReply) {
          const EstimateReply reply =
              decode_estimate_reply(res.payload, copts.limits);
          ASSERT_EQ(reply.results.size(), 1u);
        } else {
          ASSERT_EQ(res.header.type, FrameType::kErrorReply);
          const ErrorReply err = decode_error_reply(res.payload, copts.limits);
          EXPECT_TRUE(err.code == ErrorCode::kOverloaded ||
                      err.code == ErrorCode::kDeadlineExceeded ||
                      err.code == ErrorCode::kShuttingDown)
              << error_code_name(err.code) << ": " << err.message;
        }
      } else if (res.error.find("chaos: tore") != std::string::npos) {
        EXPECT_FALSE(tear_seen) << "two tears on one connection";
        tear_seen = true;
        ++torn;
      } else if (res.error.find("not sent") != std::string::npos) {
        EXPECT_TRUE(tear_seen) << "unsent frame without a preceding tear";
        ++poisoned;
      } else {
        FAIL() << "fully sent frame lost its reply: " << res.error;
      }
    }
    EXPECT_EQ(ok, ok_seen);
  }
  EXPECT_EQ(replied + torn + poisoned, kRounds * kFramesPerRound);
  EXPECT_GT(torn, 0) << "tear injection never fired";
  EXPECT_GT(replied, 0);

  // After the storm: still healthy, then drains clean.
  Client survivor(client_options(4));
  survivor.ping();
  server_->begin_shutdown();
  EXPECT_TRUE(server_->wait_until_drained());
}

TEST_F(ServerTest, WireAndProfileCacheCountersSurfaceInStats) {
  boot();
  const std::string second_id = registry_->publish(trained_ensemble(29));
  Client client(client_options());
  const Limits& limits = client.options().limits;

  // The same CSV bytes against two different models: the first parse
  // misses the profile cache, the second request (a reply-cache miss — the
  // model differs) reuses the parse. Both name their model: the default
  // class resolves the registry's newest object on first use, which is
  // `second_id` or, when both publishes share a file-time tick, whichever
  // id sorts last. Sent one frame at a time (window 1), so each reply is
  // read before the next request goes out.
  const std::string csv = workload_csv(44, 10);
  const std::string blob = workload_bin(44, 10);
  std::vector<Client::PipelineRequest> requests(3);
  EstimateRequest first;
  first.model_id = model_id_;
  first.workload_csvs = {csv};
  requests[0].type = FrameType::kEstimateRequest;
  requests[0].payload = encode_estimate_request(first, limits);
  EstimateRequest second;
  second.model_id = second_id;
  second.workload_csvs = {csv};
  requests[1].type = FrameType::kEstimateRequest;
  requests[1].payload = encode_estimate_request(second, limits);
  EstimateBinRequest bin;
  bin.profiles = {blob};
  requests[2].type = FrameType::kEstimateBinRequest;
  requests[2].payload = encode_estimate_bin_request(bin, limits);

  std::vector<Client::PipelineResult> results;
  ASSERT_EQ(client.pipeline(requests, &results, /*window=*/1), 3u);
  std::uint64_t received_bytes = 0;
  for (const Client::PipelineResult& res : results) {
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_NE(res.header.type, FrameType::kErrorReply);
    ASSERT_EQ(decode_estimate_reply(res.payload, limits).results.size(), 1u);
    received_bytes += kFrameHeaderBytes + res.payload.size();
  }

  // Read straight after the last reply arrived, with no polling: the
  // server publishes a reply's counters before writing its bytes, so
  // everything the client has read is already counted.
  const StatsReply stats = server_->stats_snapshot();
  std::map<std::string, std::uint64_t> all(stats.counters.begin(),
                                           stats.counters.end());
  for (const char* name :
       {"bytes_read", "bytes_written", "replies_ok", "frames_pipelined",
        "requests_text", "requests_binary", "profile_parse_hits",
        "profile_parse_misses", "profile_parse_evictions"}) {
    ASSERT_TRUE(all.count(name)) << "missing counter " << name;
  }
  EXPECT_GT(all["bytes_read"], 0u);
  EXPECT_GE(all["bytes_written"], received_bytes);
  EXPECT_GE(all["replies_ok"], 3u);
  EXPECT_GE(all["requests_text"], 2u);
  EXPECT_GE(all["requests_binary"], 1u);
  // One lookup per memo-missed text workload, made before enqueue: the
  // first request misses and its reader publishes the parse, the second
  // resolves to it. Binary profiles never consult the cache.
  EXPECT_EQ(all["profile_parse_misses"], 1u);
  EXPECT_EQ(all["profile_parse_hits"], 1u);
}

// --------------------------------------------------------------------------
// Frame intake: view decoders and connection-owned receive buffers
// --------------------------------------------------------------------------

/// `payload` copied into storage that is not a std::string, at an 8-aligned
/// offset, with `trailing` junk bytes after it.
struct ForeignBytes {
  ForeignBytes(const std::string& payload, std::size_t trailing)
      : size(payload.size()),
        storage(new char[kOffset + payload.size() + trailing]) {
    std::memset(storage.get(), 'J', kOffset + payload.size() + trailing);
    std::memcpy(storage.get() + kOffset, payload.data(), payload.size());
    total = payload.size() + trailing;
  }
  std::string_view exact() const { return {storage.get() + kOffset, size}; }
  std::string_view with_trailing() const {
    return {storage.get() + kOffset, total};
  }
  bool contains(std::string_view v) const {
    return v.data() >= storage.get() + kOffset &&
           v.data() + v.size() <= storage.get() + kOffset + size;
  }

  static constexpr std::size_t kOffset = 16;
  std::size_t size = 0;
  std::size_t total = 0;
  std::unique_ptr<char[]> storage;
};

/// What one decode did: the decoded request, or the error it threw.
struct DecodeOutcome {
  bool threw = false;
  ErrorCode code = ErrorCode::kOk;
  std::string what;
  EstimateRequest request;
};

DecodeOutcome decode_owning(std::string_view payload, const Limits& limits) {
  DecodeOutcome out;
  try {
    out.request = decode_estimate_request(payload, limits);
  } catch (const ProtocolError& e) {
    out.threw = true;
    out.code = e.code();
    out.what = e.what();
  }
  return out;
}

DecodeOutcome decode_borrowed(std::string_view payload, const Limits& limits) {
  DecodeOutcome out;
  try {
    const EstimateRequestView view =
        decode_estimate_request_view(payload, limits);
    out.request.model_class = view.model_class;
    out.request.model_id = view.model_id;
    out.request.deadline_ms = view.deadline_ms;
    out.request.merge = view.merge;
    for (const std::string_view csv : view.workload_csvs) {
      out.request.workload_csvs.emplace_back(csv);
    }
  } catch (const ProtocolError& e) {
    out.threw = true;
    out.code = e.code();
    out.what = e.what();
  }
  return out;
}

void expect_same_outcome(const DecodeOutcome& owning,
                         const DecodeOutcome& borrowed,
                         const std::string& label) {
  ASSERT_EQ(owning.threw, borrowed.threw) << label << ": " << owning.what
                                          << " | " << borrowed.what;
  EXPECT_EQ(owning.code, borrowed.code) << label;
  EXPECT_EQ(owning.what, borrowed.what) << label;
  EXPECT_EQ(owning.request.model_class, borrowed.request.model_class);
  EXPECT_EQ(owning.request.model_id, borrowed.request.model_id);
  EXPECT_EQ(owning.request.deadline_ms, borrowed.request.deadline_ms);
  EXPECT_EQ(owning.request.merge, borrowed.request.merge);
  EXPECT_EQ(owning.request.workload_csvs, borrowed.request.workload_csvs);
}

TEST(Protocol, ViewDecodersReadForeignStorageAndRejectTrailingBytes) {
  const Limits limits;
  EstimateRequest request;
  request.model_class = "batch";
  request.model_id = "0123456789abcdef";
  request.deadline_ms = 250;
  request.merge = 1;
  request.workload_csvs = {workload_csv(7, 4), "", workload_csv(8, 2)};
  const ForeignBytes text(encode_estimate_request(request, limits), 13);

  const EstimateRequestView view =
      decode_estimate_request_view(text.exact(), limits);
  EXPECT_EQ(view.model_class, request.model_class);
  EXPECT_EQ(view.model_id, request.model_id);
  EXPECT_EQ(view.deadline_ms, request.deadline_ms);
  EXPECT_EQ(view.merge, request.merge);
  ASSERT_EQ(view.workload_csvs.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(view.workload_csvs[i], request.workload_csvs[i]);
    if (!view.workload_csvs[i].empty()) {
      EXPECT_TRUE(text.contains(view.workload_csvs[i])) << "csv " << i;
    }
  }
  EXPECT_TRUE(text.contains(view.model_class));
  EXPECT_TRUE(text.contains(view.model_id));
  const EstimateRequest owned = decode_estimate_request(text.exact(), limits);
  EXPECT_EQ(owned.workload_csvs, request.workload_csvs);
  // The same bytes with the junk after them: both decoders refuse, naming
  // the trailing byte count.
  const DecodeOutcome owning = decode_owning(text.with_trailing(), limits);
  const DecodeOutcome borrowed = decode_borrowed(text.with_trailing(), limits);
  expect_same_outcome(owning, borrowed, "trailing");
  EXPECT_TRUE(owning.threw);
  EXPECT_EQ(owning.code, ErrorCode::kMalformedFrame);
  EXPECT_NE(owning.what.find("13 trailing byte(s)"), std::string::npos)
      << owning.what;

  // Binary profiles: views alias the foreign storage, 8-aligned.
  const std::string p1 = workload_bin(9, 3);
  const std::string p2 = workload_bin(10, 2);
  EstimateBinRequest bin;
  bin.model_id = "fedcba9876543210";
  bin.profiles = {p1, p2};
  const ForeignBytes binary(encode_estimate_bin_request(bin, limits), 5);
  const EstimateBinRequest bin_back =
      decode_estimate_bin_request(binary.exact(), limits);
  EXPECT_EQ(bin_back.model_id, bin.model_id);
  ASSERT_EQ(bin_back.profiles.size(), 2u);
  EXPECT_EQ(bin_back.profiles[0], p1);
  for (const std::string_view profile : bin_back.profiles) {
    EXPECT_TRUE(binary.contains(profile));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(profile.data()) % 8, 0u);
  }
  EXPECT_THROW(decode_estimate_bin_request(binary.with_trailing(), limits),
               ProtocolError);

  // Every other decoder reads a slice too, and refuses junk after it.
  const ForeignBytes swap(encode_swap_request(SwapRequest{"batch"}, limits),
                          1);
  EXPECT_EQ(decode_swap_request(swap.exact(), limits).model_class, "batch");
  EXPECT_THROW(decode_swap_request(swap.with_trailing(), limits),
               ProtocolError);
  const ForeignBytes empty("", 2);
  EXPECT_NO_THROW(decode_empty_request(empty.exact()));
  EXPECT_THROW(decode_empty_request(empty.with_trailing()), ProtocolError);
  WorkloadResult result;
  result.samples = 12;
  result.throughput = 0.5;
  result.ranking = {{"lsd.uops", 0.25, 3}};
  const ForeignBytes one(encode_workload_result(result, limits), 3);
  const WorkloadResult result_back = decode_workload_result(one.exact(), limits);
  EXPECT_EQ(result_back.samples, 12u);
  EXPECT_EQ(result_back.ranking.at(0).metric, "lsd.uops");
  EXPECT_THROW(decode_workload_result(one.with_trailing(), limits),
               ProtocolError);
  EstimateReply reply;
  reply.model_id = "0123456789abcdef";
  reply.results = {result};
  const ForeignBytes estimate(encode_estimate_reply(reply, limits), 1);
  EXPECT_EQ(decode_estimate_reply(estimate.exact(), limits).results.size(), 1u);
  EXPECT_THROW(decode_estimate_reply(estimate.with_trailing(), limits),
               ProtocolError);
  StatsReply stats;
  stats.counters = {{"frame_buffer_allocs", 4}};
  const ForeignBytes counters(encode_stats_reply(stats, limits), 8);
  EXPECT_EQ(decode_stats_reply(counters.exact(), limits).counters,
            stats.counters);
  EXPECT_THROW(decode_stats_reply(counters.with_trailing(), limits),
               ProtocolError);
  const ForeignBytes error(
      encode_error_reply(ErrorReply{ErrorCode::kOverloaded, "busy"}, limits),
      2);
  EXPECT_EQ(decode_error_reply(error.exact(), limits).message, "busy");
  EXPECT_THROW(decode_error_reply(error.with_trailing(), limits),
               ProtocolError);
  ShardsReply shards;
  shards.shards.resize(1);
  shards.shards[0].model_id = "0123456789abcdef";
  shards.shards[0].classes = {"a", "b"};
  const ForeignBytes listing(encode_shards_reply(shards, limits), 4);
  EXPECT_EQ(decode_shards_reply(listing.exact(), limits).shards.at(0).classes,
            shards.shards[0].classes);
  EXPECT_THROW(decode_shards_reply(listing.with_trailing(), limits),
               ProtocolError);
}

TEST(Protocol, ViewAndOwningDecodersRejectTheSameInputsWithTheSameText) {
  Limits limits;
  EstimateRequest request;
  request.model_class = "cls";
  request.model_id = "0123456789abcdef";
  request.deadline_ms = 7;
  request.workload_csvs = {workload_csv(11, 3), workload_csv(12, 1)};
  const std::string payload = encode_estimate_request(request, limits);

  for (std::size_t cut = 0; cut <= payload.size(); ++cut) {
    const ForeignBytes prefix(payload.substr(0, cut), 0);
    expect_same_outcome(decode_owning(prefix.exact(), limits),
                        decode_borrowed(prefix.exact(), limits),
                        "prefix " + std::to_string(cut));
  }
  util::Rng rng(2024);
  int rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string bad = payload;
    const int flips = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < flips; ++i) {
      bad[rng.below(bad.size())] ^= static_cast<char>(1 + rng.below(255));
    }
    const ForeignBytes mutated(bad, 0);
    const DecodeOutcome owning = decode_owning(mutated.exact(), limits);
    expect_same_outcome(owning, decode_borrowed(mutated.exact(), limits),
                        "trial " + std::to_string(trial));
    rejected += owning.threw ? 1 : 0;
  }
  EXPECT_GT(rejected, 0);
  // Per-field limits trip identically too.
  Limits tight = limits;
  tight.max_class_bytes = 2;
  expect_same_outcome(decode_owning(payload, tight),
                      decode_borrowed(payload, tight), "class limit");
  tight = limits;
  tight.max_workloads = 1;
  expect_same_outcome(decode_owning(payload, tight),
                      decode_borrowed(payload, tight), "workload limit");
  tight = limits;
  tight.max_frame_bytes = 16;
  const DecodeOutcome csv_limit = decode_owning(payload, tight);
  expect_same_outcome(csv_limit, decode_borrowed(payload, tight), "csv limit");
  EXPECT_EQ(csv_limit.code, ErrorCode::kLimitExceeded);
}

TEST(ServerFramePool, SparesAreReusedBestFitAndBoundedInBytes) {
  const std::shared_ptr<FramePool> pool = FramePool::make();
  bool fresh = false;
  FramePool::Frame none = pool->acquire(0, &fresh);
  EXPECT_FALSE(fresh);
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.view().size(), 0u);

  const char* small_block = nullptr;
  const char* large_block = nullptr;
  {
    FramePool::Frame small = pool->acquire(1000, &fresh);
    EXPECT_TRUE(fresh);
    FramePool::Frame large = pool->acquire(60'000, &fresh);
    EXPECT_TRUE(fresh);
    small_block = small.data();
    large_block = large.data();
  }
  EXPECT_EQ(pool->spare_count(), 2u);
  EXPECT_EQ(pool->spare_bytes(), FramePool::kGranule + 61'440u);
  {
    // The smallest spare that fits, not the first or the largest.
    FramePool::Frame frame = pool->acquire(900, &fresh);
    EXPECT_FALSE(fresh);
    EXPECT_EQ(frame.data(), small_block);
    EXPECT_EQ(frame.size(), 900u);
    FramePool::Frame next = pool->acquire(2000, &fresh);
    EXPECT_FALSE(fresh);
    EXPECT_EQ(next.data(), large_block);
    // Nothing left that fits: a new buffer, sized for this frame only.
    FramePool::Frame more = pool->acquire(3000, &fresh);
    EXPECT_TRUE(fresh);
  }

  // Idle bytes stay under the bound: returning more than it holds evicts
  // the spares returned longest ago.
  const std::size_t third = FramePool::kSpareBytes / 3;
  std::vector<FramePool::Frame> held;
  for (int i = 0; i < 5; ++i) held.push_back(pool->acquire(third, &fresh));
  std::vector<const char*> blocks;
  for (FramePool::Frame& frame : held) blocks.push_back(frame.data());
  for (FramePool::Frame& frame : held) frame = FramePool::Frame();
  EXPECT_LE(pool->spare_bytes(), FramePool::kSpareBytes);
  {
    FramePool::Frame a = pool->acquire(third, &fresh);
    FramePool::Frame b = pool->acquire(third, &fresh);
    EXPECT_FALSE(fresh);
    // The most recently returned big buffers survived the eviction.
    EXPECT_TRUE(a.data() == blocks[3] || a.data() == blocks[4]);
    EXPECT_TRUE(b.data() == blocks[3] || b.data() == blocks[4]);
  }
  // A buffer bigger than the bound is freed, never pooled.
  const std::size_t before = pool->spare_bytes();
  { FramePool::Frame huge = pool->acquire(FramePool::kSpareBytes + 1); }
  EXPECT_EQ(pool->spare_bytes(), before);
}

TEST(ServerFramePool, LeasesOutliveTheirOwnerAndComeBackPoisonedInCheckedBuilds) {
  std::shared_ptr<FramePool> pool = FramePool::make();
  const std::weak_ptr<FramePool> weak = pool;
  FramePool::Frame frame = pool->acquire(64);
  std::memset(frame.data(), 'x', frame.size());
  const char* block = frame.data();
  pool.reset();
  // The lease keeps the pool alive until it comes back.
  ASSERT_FALSE(weak.expired());
  std::shared_ptr<FramePool> again = weak.lock();
  frame = FramePool::Frame();
  EXPECT_EQ(again->spare_count(), 1u);
  bool fresh = true;
  FramePool::Frame reused = again->acquire(64, &fresh);
  EXPECT_FALSE(fresh);
  ASSERT_EQ(reused.data(), block);
#if SPIRE_DCHECK_ENABLED
  for (std::size_t i = 0; i < reused.size(); ++i) {
    ASSERT_EQ(static_cast<unsigned char>(reused.data()[i]),
              FramePool::kPoison)
        << "byte " << i;
  }
#endif
}

/// Expects `got` to be the tree walk's estimate of `workload`, bit for bit.
void expect_tree_walk(const Ensemble& local, const WorkloadResult& got,
                      const Dataset& workload) {
  ASSERT_EQ(got.status, ErrorCode::kOk) << got.error;
  const model::Estimate expected = local.estimate(DatasetView(workload));
  EXPECT_EQ(got.samples, workload.size());
  EXPECT_EQ(
      std::memcmp(&got.throughput, &expected.throughput, sizeof(double)), 0);
  ASSERT_EQ(got.ranking.size(), expected.ranking.size());
  for (std::size_t j = 0; j < got.ranking.size(); ++j) {
    EXPECT_EQ(got.ranking[j].metric,
              counters::event_name(expected.ranking[j].metric));
    EXPECT_EQ(std::memcmp(&got.ranking[j].p_bar, &expected.ranking[j].p_bar,
                          sizeof(double)),
              0);
    EXPECT_EQ(got.ranking[j].samples, expected.ranking[j].samples);
  }
}

// The frame lifetime contract under pressure: with both caches off, every
// text workload is parsed by the reader straight out of its frame, and the
// buffer goes back to the connection to be refilled by the frames
// pipelined behind it. Sizes alternate small/large/small, so buffers move
// between frames of different sizes. In Debug/SPIRE_CHECKED builds a
// returned buffer is poisoned, so a frame handed back before its parse was
// done would parse poison or another request's bytes and miss the oracle.
TEST_F(ServerTest, PipelinedMixedSizeTextRepliesSurviveBufferRecycling) {
  ServerOptions options;
  options.workers = 2;
  options.cache_entries = 0;
  options.profile_cache_entries = 0;
  options.limits.max_frame_bytes = 64u << 20;
  boot(options);
  Client client(client_options());
  const Limits& limits = client.options().limits;
  const Ensemble local = trained_ensemble(17);

  constexpr int kFrames = 30;
  const auto per_metric = [](int i) { return i % 3 == 1 ? 1500 : 12; };
  std::vector<Client::PipelineRequest> requests;
  for (int i = 0; i < kFrames; ++i) {
    EstimateRequest request;
    request.workload_csvs = {
        workload_csv(static_cast<std::uint64_t>(300 + i), per_metric(i))};
    requests.push_back({FrameType::kEstimateRequest,
                        encode_estimate_request(request, limits)});
  }
  const std::uint64_t allocs_before = counter("frame_buffer_allocs");
  std::vector<Client::PipelineResult> results;
  ASSERT_EQ(client.pipeline(requests, &results, /*window=*/4),
            static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    const Client::PipelineResult& res = results[static_cast<std::size_t>(i)];
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.header.type, FrameType::kEstimateReply) << "frame " << i;
    const EstimateReply reply = decode_estimate_reply(res.payload, limits);
    ASSERT_EQ(reply.results.size(), 1u);
    SCOPED_TRACE("frame " + std::to_string(i));
    expect_tree_walk(
        local, reply.results[0],
        mixed_workload(static_cast<std::uint64_t>(300 + i), per_metric(i)));
  }
  // Buffers were recycled: far fewer allocations than frames.
  EXPECT_LT(counter("frame_buffer_allocs") - allocs_before,
            static_cast<std::uint64_t>(kFrames) / 2);
  EXPECT_EQ(counter("malformed_frames"), 0u);
}

// Steady state: same-size frames on one connection reuse the connection's
// buffers, so fresh allocations stop at the pipeline's peak and do not grow
// with the number of requests. A binary frame's buffer is held from its
// read until the shard pump releases its request: at most `window`
// unanswered frames, plus at most `window` answered ones whose pump batch
// is still being released (a text frame's only until its dispatch
// returns). Frames this size never reach the spare byte bound, so nothing
// is evicted and every later frame finds a spare.
TEST_F(ServerTest, SteadyPipelinedFramesStopAllocatingReceiveBuffers) {
  ServerOptions options;
  options.cache_entries = 0;
  options.profile_cache_entries = 0;
  boot(options);
  const Limits limits = client_options().limits;

  EstimateRequest text;
  text.workload_csvs = {workload_csv(77, 20)};
  const std::string blob = workload_bin(78, 20);
  EstimateBinRequest binary;
  binary.profiles = {blob};
  const Client::PipelineRequest text_frame{
      FrameType::kEstimateRequest, encode_estimate_request(text, limits)};
  const Client::PipelineRequest bin_frame{
      FrameType::kEstimateBinRequest,
      encode_estimate_bin_request(binary, limits)};
  ASSERT_LT(8 * std::max(text_frame.payload.size(), bin_frame.payload.size()),
            FramePool::kSpareBytes);

  constexpr std::size_t kWindow = 4;
  for (const Client::PipelineRequest* frame : {&text_frame, &bin_frame}) {
    // A fresh connection per kind: its own pool, starting empty.
    Client connection(client_options());
    const auto run = [&](int n) {
      std::vector<Client::PipelineRequest> requests(
          static_cast<std::size_t>(n), *frame);
      std::vector<Client::PipelineResult> results;
      ASSERT_EQ(connection.pipeline(requests, &results, kWindow),
                static_cast<std::size_t>(n));
      for (const Client::PipelineResult& res : results) {
        ASSERT_NE(res.header.type, FrameType::kErrorReply);
      }
    };
    const std::uint64_t base = counter("frame_buffer_allocs");
    run(16);
    const std::uint64_t after_short = counter("frame_buffer_allocs") - base;
    run(160);
    const std::uint64_t after_long = counter("frame_buffer_allocs") - base;
    EXPECT_GE(after_short, 1u);
    EXPECT_LE(after_long, 2 * kWindow) << "after 176 frames";
    EXPECT_LE(after_long - after_short, kWindow)
        << "allocations kept growing with the number of frames";
  }
  EXPECT_EQ(counter("estimate_requests"), 2u * 176u);
}

// --------------------------------------------------------------------------
// Text resolution on the reader: shards only ever see views
// --------------------------------------------------------------------------

/// A CSV `Dataset::load_csv` rejects: the metric name is not an event.
const char kUnparseableCsv[] = "metric,t,w,m\nno_such_metric,1,1,1\n";

// A CSV the loader rejects fails alone, with the loader's own message,
// next to a good workload that gets the oracle's estimate; a failed parse
// is never memoized, so a repeat parses it again.
TEST_F(ServerTest, UnparseableTextWorkloadFailsAloneAndIsNeverMemoized) {
  boot();
  std::string loader_error;
  try {
    (void)Dataset::load_csv(std::string_view(kUnparseableCsv));
    FAIL() << "load_csv accepted the bad CSV";
  } catch (const std::exception& e) {
    loader_error = e.what();
  }
  const model::Estimate expected =
      trained_ensemble(17).estimate(DatasetView(mixed_workload(31, 10)));

  Client client(client_options());
  EstimateRequest request;
  request.workload_csvs = {kUnparseableCsv, workload_csv(31, 10)};
  for (int round = 0; round < 2; ++round) {
    const EstimateReply reply = client.estimate(request);
    ASSERT_EQ(reply.results.size(), 2u);
    EXPECT_EQ(reply.results[0].status, ErrorCode::kEstimationFailed);
    EXPECT_EQ(reply.results[0].error, loader_error);
    EXPECT_EQ(reply.results[0].samples, 0u);
    ASSERT_EQ(reply.results[1].status, ErrorCode::kOk)
        << reply.results[1].error;
    EXPECT_EQ(std::memcmp(&reply.results[1].throughput, &expected.throughput,
                          sizeof(double)),
              0);
  }
  // The repeat found the good workload in the memo-cache, not the bad one,
  // and the bad one's profile lookup missed again: it was parsed twice.
  EXPECT_EQ(counter("cache_hits"), 1u);
  EXPECT_EQ(counter("cache_misses"), 3u);
  EXPECT_EQ(counter("profile_parse_hits"), 0u);
  EXPECT_EQ(counter("profile_parse_misses"), 3u);
}

// Memo hits and parse failures are answered on the reader: a request made
// only of those replies inline and never takes a queue slot.
TEST_F(ServerTest, RequestAnsweredOnTheReaderIsNeverEnqueued) {
  boot();
  const auto enqueued = [&] {
    std::uint64_t total = 0;
    for (const ShardInfo& shard : server_->shards_snapshot().shards) {
      total += shard.enqueued;
    }
    return total;
  };
  Client client(client_options());
  const std::string good = workload_csv(32, 10);
  EstimateRequest warm;
  warm.workload_csvs = {good};
  const EstimateReply first = client.estimate(warm);
  ASSERT_EQ(first.results.size(), 1u);
  ASSERT_EQ(first.results[0].status, ErrorCode::kOk);
  EXPECT_EQ(enqueued(), 1u);

  EstimateRequest answered;
  answered.workload_csvs = {good, kUnparseableCsv, good};
  const EstimateReply reply = client.estimate(answered);
  ASSERT_EQ(reply.results.size(), 3u);
  EXPECT_EQ(reply.results[0].status, ErrorCode::kOk);
  EXPECT_EQ(reply.results[1].status, ErrorCode::kEstimationFailed);
  EXPECT_EQ(reply.results[2].status, ErrorCode::kOk);
  EXPECT_EQ(reply.results[0].throughput, first.results[0].throughput);
  EXPECT_EQ(reply.results[2].throughput, first.results[0].throughput);
  EXPECT_EQ(enqueued(), 1u) << "a request with nothing to evaluate queued";
  EXPECT_EQ(counter("coalesced_requests"), 1u);
}

// A text frame's buffer goes back to its connection once the reader has
// parsed it, not when its queued request is released. With the pump held
// inside a blocker's evaluation, cold text frames pipelined on one
// connection all wait in the queue, yet they share one receive buffer.
TEST_F(ServerTest, QueuedTextFramesDoNotHoldTheirReceiveBuffers) {
  ServerOptions options;
  options.cache_entries = 0;
  options.profile_cache_entries = 0;
  boot(options);
  const Limits limits = client_options().limits;

  const std::string blob = workload_bin(12);
  constexpr std::size_t kFrames = 16;
  EstimateRequest text;
  text.workload_csvs = {workload_csv(77, 12)};
  const std::vector<Client::PipelineRequest> requests(
      kFrames, {FrameType::kEstimateRequest,
                encode_estimate_request(text, limits)});
  Client connection(client_options());
  std::vector<Client::PipelineResult> results;
  {
    HeldPump pump(*this);
    pump.spawn([&] {
      Client c(client_options(1));
      EstimateBinRequest r;
      r.profiles.assign(8, blob);
      EXPECT_NO_THROW(c.estimate_bin(r));
    });
    ASSERT_TRUE(pump.wait_entered(1));
    ASSERT_TRUE(wait_for_counter("active_requests", 1));

    const std::uint64_t allocs_before = counter("frame_buffer_allocs");
    const std::uint64_t requests_before = counter("estimate_requests");
    pump.spawn([&] {
      EXPECT_EQ(connection.pipeline(requests, &results, kFrames), kFrames);
    });
    // Every frame read and dispatched: the first needed a buffer, the rest
    // found it back in the connection's pool.
    EXPECT_TRUE(
        wait_for_counter("estimate_requests", requests_before + kFrames));
    EXPECT_EQ(counter("frame_buffer_allocs") - allocs_before, 1u);
  }
  ASSERT_EQ(results.size(), kFrames);
  for (const Client::PipelineResult& res : results) {
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.header.type, FrameType::kEstimateReply);
  }
}

// Same-model requests that queue behind a busy pump are coalesced: its
// next round takes all of them into one estimate_views batch, and every
// reply is still the tree walk's, bit for bit.
TEST_F(ServerTest, RequestsQueuedBehindAHeldPumpCoalesceIntoOneRound) {
  boot();
  const Limits limits = client_options().limits;
  const Ensemble local = trained_ensemble(17);

  // Distinct workloads, so none is a memo hit answered on the reader.
  constexpr std::uint64_t kHeldSeed = 90;
  constexpr std::size_t kQueued = 5;
  std::vector<Client::PipelineRequest> requests;
  for (std::size_t i = 0; i < kQueued; ++i) {
    EstimateRequest request;
    request.workload_csvs = {workload_csv(kHeldSeed + 1 + i)};
    requests.push_back({FrameType::kEstimateRequest,
                        encode_estimate_request(request, limits)});
  }
  const std::uint64_t batches_before = counter("coalesced_batches");
  Client connection(client_options());
  EstimateReply held_reply;
  std::vector<Client::PipelineResult> results;
  {
    HeldPump pump(*this);
    pump.spawn([&] {
      Client c(client_options(1));
      EstimateRequest request;
      request.workload_csvs = {workload_csv(kHeldSeed)};
      held_reply = c.estimate(request);
    });
    ASSERT_TRUE(pump.wait_entered(1));
    pump.spawn([&] {
      EXPECT_EQ(connection.pipeline(requests, &results, kQueued), kQueued);
    });
    ASSERT_TRUE(wait_for_counter("queue_depth", kQueued));
    EXPECT_EQ(counter("queue_depth"), kQueued);
  }

  // One round for the held request, one for the five queued behind it.
  EXPECT_EQ(counter("coalesced_batches") - batches_before, 2u);
  EXPECT_GE(counter("max_batch_requests"), kQueued);
  ASSERT_EQ(held_reply.results.size(), 1u);
  expect_tree_walk(local, held_reply.results[0], mixed_workload(kHeldSeed));
  ASSERT_EQ(results.size(), kQueued);
  for (std::size_t i = 0; i < kQueued; ++i) {
    const Client::PipelineResult& res = results[i];
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.header.type, FrameType::kEstimateReply);
    const EstimateReply reply = decode_estimate_reply(res.payload, limits);
    ASSERT_EQ(reply.results.size(), 1u);
    SCOPED_TRACE("request " + std::to_string(i));
    expect_tree_walk(local, reply.results[0],
                     mixed_workload(kHeldSeed + 1 + i));
  }
}

}  // namespace
}  // namespace spire::server
