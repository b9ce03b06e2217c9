// The serving benchmark: one workload, one seed, one run.
//
//   perfbench_load --workload NAME --seed N --seconds S --trace 0|1
//                  --cli PATH --out DIR --suite DIR
//
// Draws its inputs from the collected suite (collected into the --suite
// directory on first use, untimed). Sets up a fresh registry and a
// `spire_cli serve` process with default options, warms the server up, then
// drives the workload's phases over three pipelined connections while a
// fourth carries control traffic (stats, swaps). Every reply is checked
// against the oracle. With --trace 0 it reports the end-to-end metrics;
// with --trace 1 it runs the same phases plus an untraced copy of `low`,
// keeps a span per request, replays each request's server stages through
// the layers' public functions, and reports the per-layer metrics. The
// last stdout line is the result JSON; a full record (host and build
// descriptor, traffic shares, phase details) and the spans are written
// under DIR. setup_s is the median of setups timed before the phases and
// after each one (the last before the phases is the server the phases
// run against). Exits 1 on an oracle mismatch, an unclean drain, a phase
// that stays invalid or a swap workload that runs out of model versions.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "load.h"
#include "oracle.h"
#include "sampling/dataset.h"
#include "serve/estimate_cache.h"
#include "serve/mapped_model.h"
#include "serve/model_eval.h"
#include "serve/profile_bin.h"
#include "serve/profile_cache.h"
#include "serve/registry.h"
#include "serve/service.h"
#include "server/protocol.h"
#include "server/server.h"
#include "trace.h"
#include "util/hash.h"
#include "util/thread_pool.h"
#include "wire.h"
#include "workload.h"

namespace fs = std::filesystem;
namespace sv = spire::server;
namespace serve = spire::serve;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

/// Timed setups before the phases (the last one is the live deployment),
/// and after each phase.
constexpr int kSetupsFirst = 4;
constexpr int kSetupsAfterPhase = 3;
/// Swaps of an otherwise unused model class after the phases, on the
/// workloads that do not swap under load.
constexpr std::size_t kIdleSwaps = 25;
constexpr const char* kIdleClass = "perfbench-idle";
constexpr std::size_t kLoadConnections = 3;  // plus one control connection
/// Closed loop: requests in flight per load connection.
constexpr std::size_t kWindow = 8;
/// The limit p99 at the high rate is held to (printed as met or missed).
constexpr double kLatencyLimitMs = 20.0;
constexpr int kDrainTimeoutMs = 20'000;
/// An untimed closed-loop phase before the measured ones, so that the
/// memo and profile caches are in their steady state when timing starts.
constexpr double kWarmupSeconds = 3.0;
/// An open-loop phase whose generator lateness p99 exceeds this is invalid.
constexpr double kLateBoundMs = 20.0;
/// Attempts at an open-loop phase before a late generator fails the run.
constexpr int kPhaseAttempts = 3;
/// Replayed requests per traced phase (an even sample of the phase).
constexpr std::size_t kMaxReplayed = 1500;
/// Calls timed for a layer that no request of the workload reaches.
constexpr std::size_t kOffPathSamples = 16;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

template <typename Fn>
double time_us(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Names this build of the generator, which links the simulator the suite
/// is collected with: the hash of its own executable.
std::string build_tag() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (bytes.empty()) throw std::runtime_error("cannot read /proc/self/exe");
  return spire::util::fnv1a64_hex(bytes);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string cli;
  std::string out;
  std::string suite;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") { a.seed = std::stoull(value); have_seed = true; }
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--cli") a.cli = value;
    else if (key == "--out") a.out = value;
    else if (key == "--suite") a.suite = value;
    else throw std::invalid_argument("unknown flag " + key);
  }
  if (a.workload.empty() || !have_seed || a.cli.empty() || a.out.empty() ||
      a.suite.empty() || !(a.seconds > 0)) {
    throw std::invalid_argument(
        "usage: perfbench_load --workload NAME --seed N --seconds S "
        "--trace 0|1 --cli PATH --out DIR --suite DIR");
  }
  return a;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  bool end_to_end = false;  // reported by the untraced run, else the traced
};

/// Per-shard coalescing counters, accumulated across listings so that a
/// shard retired by a swap still counts with its last observed row.
struct ShardLedger {
  std::map<std::string, sv::ShardInfo> base;
  std::map<std::string, sv::ShardInfo> last;

  static std::vector<sv::ShardInfo> list(Control& control) {
    const Frame f = control.roundtrip(sv::FrameType::kShardsRequest, "");
    return sv::decode_shards_reply(f.payload, sv::Limits{}).shards;
  }
  void start(Control& control) {
    base.clear();
    last.clear();
    for (auto& s : list(control)) base[s.model_id] = s;
  }
  void observe(Control& control) {
    for (auto& s : list(control)) last[s.model_id] = s;
  }
  double batch_mean() const {
    double requests = 0, batches = 0;
    for (const auto& [id, s] : last) {
      const auto it = base.find(id);
      requests += static_cast<double>(
          s.completed - (it == base.end() ? 0 : it->second.completed));
      batches += static_cast<double>(
          s.batches - (it == base.end() ? 0 : it->second.batches));
    }
    return ratio(requests, batches);
  }
  double batch_max() const {
    std::uint64_t m = 0;
    for (const auto& [id, s] : last) m = std::max(m, s.max_batch);
    return static_cast<double>(m);
  }
};

/// One benchmark run: its inputs, its server and what it measured.
class Run {
 public:
  Run(const Args& args, const WorkloadSpec& spec)
      : args_(args), spec_(spec),
        run_dir_(fs::path(args.out) / ("run-" + std::to_string(::getpid()))) {}

  ~Run() {
    live_ = Deployment();
    std::error_code ec;
    fs::remove_all(run_dir_, ec);
  }

  int execute() {
    prepare();
    progress("inputs and oracle ready");
    setup();
    progress("setup done");
    measure();
    finish();
    progress("server stopped");
    return report();
  }

 private:
  void progress(const char* what) const {
    std::fprintf(stderr, "perfbench: %s at %.2f s\n", what, ms_since(start_) / 1e3);
  }

  // --- inputs and oracle ----------------------------------------------------

  double phase_seconds() const { return args_.seconds / 3.0; }

  /// Model versions to swap in. Under load: one per interval of every phase
  /// the run executes, plus one phase's worth; a run that still runs out
  /// fails. Otherwise a fixed number of idle swaps after the phases.
  std::size_t versions_needed() const {
    if (spec_.swap_interval_s <= 0) return kIdleSwaps;
    const auto swaps = [&](double seconds) {
      return static_cast<std::size_t>(seconds / spec_.swap_interval_s);
    };
    // Untraced: three capacity parts. Traced: capacity and three open-loop
    // phases. Both: a margin of one phase, for a re-run or for swaps that
    // fall due while a phase's last replies drain.
    const std::size_t phases = args_.trace ? 5 : 4;
    return swaps(kWarmupSeconds) + phases * swaps(phase_seconds());
  }

  void prepare() {
    const std::size_t threads =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    const Suite suite =
        load_or_collect_suite(args_.suite, build_tag(), threads);
    progress("suite ready");
    inputs_ = make_inputs(spec_, suite, args_.seed, versions_needed(), threads);
    // The oracle: every (model, profile) pair a reply can be about.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> needed;
    for (std::uint32_t m = 0; m < spec_.models; ++m) {
      needed.emplace_back(m, inputs_.warmup_profile());
    }
    for (const auto& [m, p] : inputs_.pairs) {
      if (m != kRoutedModel) {
        needed.emplace_back(m, p);
        continue;
      }
      for (std::uint32_t v = 0; v < inputs_.models.size(); ++v) {
        needed.emplace_back(v, p);
      }
    }
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
    auto expected = spire::util::parallel_for_index(
        spire::util::ExecOptions{threads}, needed.size(), [&](std::size_t i) {
          return expected_result(
              inputs_.models[needed[i].first],
              spire::sampling::DatasetView(inputs_.profiles[needed[i].second]));
        });
    for (std::size_t i = 0; i < needed.size(); ++i) {
      oracle_[needed[i]] = std::move(expected[i]);
    }
  }

  // --- setup ----------------------------------------------------------------

  /// A registry and the server started on it, with the benchmark's
  /// connections to it.
  struct Deployment {
    std::unique_ptr<serve::ModelRegistry> registry;
    std::unique_ptr<ServerProcess> server;
    std::unique_ptr<Control> control;
    std::vector<Connection> load;
  };

  void setup() {
    fs::create_directories(run_dir_);
    // Registry ids are content hashes: a throwaway publish gives the ids,
    // so the first-touch requests are encoded before any setup is timed.
    {
      const fs::path throwaway = run_dir_ / "registry-ids";
      serve::ModelRegistry ids(throwaway.string());
      for (std::size_t m = 0; m < spec_.models; ++m) {
        ids_.push_back(ids.publish(inputs_.models[m]));
        model_of_id_[ids_[m]] = static_cast<std::uint32_t>(m);
        const RequestKind kind = make_kind(
            spec_.binary, spec_.class_routed ? "" : ids_[m],
            inputs_.bodies[inputs_.warmup_profile()]);
        first_touch_.push_back({kind.type, kind.head + std::string(kind.body)});
      }
      fs::remove_all(throwaway);
    }
    for (int k = 1; k < kSetupsFirst; ++k) spare_setup();
    // The last one is the deployment the phases run against.
    timed_setup("live", &live_);
    next_version_ = spec_.models;
    kinds_ = make_kinds(spec_, inputs_, ids_);
    while (live_.load.size() < kLoadConnections) {
      live_.load.push_back(Connection::open(socket_path("live"), 30'000));
    }
  }

  std::string socket_path(const std::string& name) const {
    return (run_dir_ / (name + ".sock")).string();
  }

  /// One setup as setup_s times it: a fresh registry with the workload's
  /// models published, a server started on it, the first load connection
  /// (which waits for the server to listen) and the control connection,
  /// and the first OK reply from every model.
  void timed_setup(const std::string& name, Deployment* d) {
    const fs::path root = run_dir_ / ("registry-" + name);
    fs::remove_all(root);
    fs::remove(socket_path(name));
    const auto t0 = Clock::now();
    d->registry = std::make_unique<serve::ModelRegistry>(root.string());
    for (std::size_t m = 0; m < spec_.models; ++m) publish(*d->registry, m);
    d->server = std::make_unique<ServerProcess>(
        args_.cli, socket_path(name), root.string(),
        (run_dir_ / "server.log").string());
    d->load.push_back(Connection::open(socket_path(name), 30'000));
    d->control = std::make_unique<Control>(socket_path(name));
    for (std::size_t m = 0; m < spec_.models; ++m) {
      const Frame reply = d->control->roundtrip(first_touch_[m].first,
                                                first_touch_[m].second);
      ++attempted_;
      check_reply(reply.header.type, reply.payload,
                  static_cast<std::uint32_t>(m),
                  static_cast<std::uint32_t>(inputs_.warmup_profile()),
                  /*min_version=*/0);
    }
    setup_s_.push_back(ms_since(t0) / 1e3);
  }

  /// A timed setup of a deployment beside the live one, which is idle
  /// meanwhile, then stopped. Spread over the run, these sample the host
  /// at several moments rather than once.
  void spare_setup() {
    Deployment spare;
    timed_setup("spare", &spare);
    stop(&spare);
    fs::remove_all(run_dir_ / "registry-spare");
  }

  std::string publish(serve::ModelRegistry& registry, std::size_t model) {
    const auto t0 = Clock::now();
    const std::string id = registry.publish(inputs_.models[model]);
    publish_ms_.push_back(ms_since(t0));
    if (ids_.size() <= model) ids_.resize(model + 1);
    ids_[model] = id;
    model_of_id_[id] = static_cast<std::uint32_t>(model);
    return id;
  }

  void stop(Deployment* d) {
    d->control.reset();
    d->load.clear();
    const int status = d->server->stop(kDrainTimeoutMs);
    d->server.reset();
    if (status != 0) {
      correct_ = false;
      note("server did not drain cleanly on SIGTERM (exit " +
           std::to_string(status) + ")");
    }
  }

  // --- reply checks ---------------------------------------------------------

  void note(const std::string& what) {
    if (problems_.size() < 8) problems_.push_back(what);
  }

  /// Checks one reply. `model` is the addressed model (kRoutedModel: the
  /// slot's), `min_version` the oldest model version a routed reply may
  /// come from. Returns false for a failed request; a wrong answer marks
  /// the run incorrect.
  bool check_reply(sv::FrameType type, const std::string& payload,
                   std::uint32_t model, std::uint32_t profile,
                   std::uint32_t min_version) {
    if (type == sv::FrameType::kErrorReply) {
      ++failed_;
      try {
        const auto err = sv::decode_error_reply(payload, sv::Limits{});
        note(std::string("error reply ") + sv::error_code_name(err.code) +
             ": " + err.message);
      } catch (const std::exception& e) {
        note(std::string("undecodable error reply: ") + e.what());
      }
      return false;
    }
    const sv::FrameType want = spec_.binary ? sv::FrameType::kEstimateBinReply
                                            : sv::FrameType::kEstimateReply;
    std::string problem;
    try {
      if (type != want) throw std::runtime_error("wrong reply frame type");
      const sv::EstimateReply reply =
          sv::decode_estimate_reply(payload, sv::Limits{});
      const auto it = model_of_id_.find(reply.model_id);
      if (it == model_of_id_.end()) {
        problem = "reply names unpublished model " + reply.model_id;
      } else if (model != kRoutedModel && it->second != model) {
        problem = "reply from model " + reply.model_id + ", asked " +
                  ids_[model];
      } else if (it->second < min_version) {
        problem = "reply from model version " + std::to_string(it->second) +
                  " after version " + std::to_string(min_version) +
                  " was acknowledged";
      } else if (reply.results.size() != 1) {
        problem = "reply carries " + std::to_string(reply.results.size()) +
                  " results";
      } else {
        problem = compare_result(reply.results[0],
                                 oracle_.at({it->second, profile}));
      }
    } catch (const std::exception& e) {
      problem = std::string("undecodable reply: ") + e.what();
    }
    if (!problem.empty()) {
      correct_ = false;
      note("oracle mismatch: " + problem);
    }
    return true;
  }

  // --- phases ---------------------------------------------------------------

  struct PhaseResult {
    std::string name;
    Phase phase;
    std::vector<Outcome> outcomes;
    std::vector<std::pair<std::int64_t, std::uint32_t>> acks;  // (ns, version)
    Counters delta;
    int polls_before = 0;
    int polls_after = 0;
    std::size_t failed = 0;
    double late_p99_ms = 0;
    std::vector<double> cpu_at_second;  // server CPU seconds at each second
    bool out_of_versions = false;  // a swap was due with no version left

    /// Latency of every request, a failed one as never answered.
    std::vector<double> latencies_ms() const {
      std::vector<double> v;
      const double missed = (phase.seconds + 10.0) * 1e3;
      for (const Outcome& o : outcomes) {
        const bool ok = o.answered() &&
                        o.reply_type != sv::FrameType::kErrorReply;
        v.push_back(ok ? o.latency_ns() / 1e6 : missed);
      }
      return v;
    }

    /// Percentile `q` of the requests due in each whole second.
    std::vector<double> per_second(double q) const {
      const std::vector<double> all = latencies_ms();
      std::map<std::int64_t, std::vector<double>> windows;
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        windows[outcomes[i].due_ns / 1'000'000'000].push_back(all[i]);
      }
      std::vector<double> per;
      for (auto& [w, v] : windows) per.push_back(percentile(v, q));
      return per;
    }

    /// The median over the phase's seconds of each second's percentile
    /// `q`, so that one stall of the shared host does not set the figure.
    double window_p(double q) const { return percentile(per_second(q), 50); }

    /// Replies completed in each whole second of the phase.
    std::vector<double> per_second_completed() const {
      const auto seconds = static_cast<std::int64_t>(phase.seconds);
      std::vector<double> per(static_cast<std::size_t>(seconds), 0.0);
      for (const Outcome& o : outcomes) {
        const std::int64_t s = o.done_ns / 1'000'000'000;
        if (o.answered() && o.reply_type != sv::FrameType::kErrorReply &&
            s < seconds) {
          per[static_cast<std::size_t>(s)] += 1;
        }
      }
      return per;
    }
  };

  PhaseResult run(const std::string& name, const Phase& phase,
                  ShardLedger* shards = nullptr) {
    for (int attempt = 0;; ++attempt) {
      PhaseResult r = run_once(name, phase, shards);
      if (r.out_of_versions) {
        throw std::runtime_error("phase " + name + " ran out of model versions"
                                 " to swap in after " +
                                 std::to_string(inputs_.models.size()) +
                                 " publishes");
      }
      if (!phase.open_loop || r.late_p99_ms <= kLateBoundMs) return r;
      std::fprintf(stderr,
                   "perfbench: phase %s invalid: generator lateness p99 "
                   "%.3f ms over the %.1f ms bound\n",
                   name.c_str(), r.late_p99_ms, kLateBoundMs);
      if (attempt + 1 == kPhaseAttempts) {
        throw std::runtime_error("phase " + name +
                                 " stayed invalid: the generator ran late");
      }
    }
  }

  PhaseResult run_once(const std::string& name, const Phase& phase,
                       ShardLedger* shards) {
    PhaseResult r;
    r.name = name;
    r.phase = phase;
    const Counters before = wait_quiescent(*live_.control, &r.polls_before);
    double next_swap_s = spec_.swap_interval_s;
    const auto tick = [&](Clock::time_point phase_start) {
      const double elapsed_ms = ms_since(phase_start);
      if (elapsed_ms >= 1e3 * static_cast<double>(r.cpu_at_second.size())) {
        r.cpu_at_second.push_back(live_.server->cpu_seconds());
      }
      if (spec_.swap_interval_s <= 0 || elapsed_ms < next_swap_s * 1e3) return;
      if (next_version_ >= inputs_.models.size()) {
        r.out_of_versions = true;
        return;
      }
      next_swap_s += spec_.swap_interval_s;
      if (shards) shards->observe(*live_.control);
      swap(phase_start, &r);
    };
    // An open-loop phase of a workload that does not swap runs without the
    // tick: a generator thread waking on a timer moves the latency of the
    // requests it shares a CPU with.
    std::function<void(Clock::time_point)> on_tick;
    if (spec_.swap_interval_s > 0 || !phase.open_loop) on_tick = tick;
    r.outcomes = run_phase(live_.load, kinds_, inputs_.schedule, phase, &cursor_,
                           on_tick);
    r.delta = delta(wait_quiescent(*live_.control, &r.polls_after), before);
    if (shards) shards->observe(*live_.control);
    std::vector<double> late;
    for (const Outcome& o : r.outcomes) {
      ++attempted_;
      if (phase.open_loop) late.push_back(o.late_ns / 1e6);
      if (!o.answered()) {
        ++failed_;
        ++r.failed;
        note("request got no reply in phase " + name);
        continue;
      }
      const auto [model, profile] = inputs_.pairs[o.kind];
      std::uint32_t min_version = 0;
      for (const auto& [ack_ns, version] : r.acks) {
        // A request whose first byte was written after the swap reply
        // arrived must reach the new model.
        if (o.sent_ns > ack_ns) min_version = version;
      }
      if (!check_reply(o.reply_type, o.reply, model, profile, min_version)) {
        ++r.failed;
      }
    }
    r.late_p99_ms = percentile(late, 99);
    progress(("phase " + name + " done").c_str());
    return r;
  }

  /// Publishes the next model version and swaps a class to it: the class
  /// the workload routes by, or an unused one. During a phase, records
  /// when the reply arrived, in ns from `phase_start`.
  void swap(Clock::time_point phase_start, PhaseResult* r) {
    const auto t0 = Clock::now();
    const std::size_t version = next_version_++;
    const std::string id = publish(*live_.registry, version);
    sv::SwapRequest request;
    request.model_class = spec_.class_routed ? "" : kIdleClass;
    const std::string payload = sv::encode_swap_request(request, sv::Limits{});
    const Frame reply = live_.control->roundtrip(sv::FrameType::kSwapRequest, payload);
    const double ms = ms_since(t0);
    ++attempted_;
    if (reply.header.type != sv::FrameType::kSwapReply) {
      ++failed_;
      note("swap answered with an error");
      return;
    }
    const sv::SwapReply swapped = sv::decode_swap_reply(reply.payload, sv::Limits{});
    if (swapped.model_id != id) {
      correct_ = false;
      note("swap resolved " + swapped.model_id + ", published " + id);
    }
    swap_ms_.push_back(ms);
    if (r) {
      r->acks.emplace_back(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              Clock::now() - phase_start).count(),
          static_cast<std::uint32_t>(version));
    }
  }

  Phase closed_phase(double seconds) const {
    Phase p;
    p.seconds = seconds;
    p.window = kWindow;
    return p;
  }
  Phase open_phase(double rate) const {
    Phase p;
    p.open_loop = true;
    p.seconds = phase_seconds();
    p.rate = rate;
    return p;
  }

  /// Completions per second: the median over the phase's whole seconds,
  /// so a stall of the shared host in one second does not set the figure.
  static double capacity_rps(const PhaseResult& r) {
    return percentile(r.per_second_completed(), 50);
  }

  /// Server CPU time (user + system) per completed request in each whole
  /// second of the phase. Time the host takes from the server's virtual
  /// CPUs is not charged to it.
  static std::vector<double> cpu_us_per_request(const PhaseResult& r) {
    const std::vector<double> completed = r.per_second_completed();
    std::vector<double> per;
    for (std::size_t s = 0;
         s + 1 < r.cpu_at_second.size() && s < completed.size(); ++s) {
      if (completed[s] > 0) {
        per.push_back((r.cpu_at_second[s + 1] - r.cpu_at_second[s]) * 1e6 /
                      completed[s]);
      }
    }
    return per;
  }

  // --- the phases and their metrics ----------------------------------------

  /// Runs a phase, then the timed setups that follow it.
  void phase(const std::string& name, const Phase& p,
             ShardLedger* shards = nullptr) {
    phases_.push_back(run(name, p, shards));
    for (int k = 0; k < kSetupsAfterPhase; ++k) spare_setup();
  }

  /// Both runs warm up first. The untraced run then measures `capacity` in
  /// three parts, with timed setups after each, and reports the
  /// end-to-end metrics: the figures that stayed steady across runs on a
  /// shared 4-vCPU host. The traced run measures `capacity` once, `low`
  /// untraced (the tracing-overhead baseline), then `low` and `high`
  /// traced, replays their requests, and reports the per-layer metrics,
  /// with capacity, the latencies and swap latency among them: on that
  /// host these moved with the time other tenants took from its virtual
  /// CPUs, from run to run by more than any bound a comparison may use.
  void measure() {
    phase("warm-up", closed_phase(kWarmupSeconds));
    if (!args_.trace) {
      std::vector<double> cpu_us;
      for (int part = 0; part < 3; ++part) {
        phase("capacity", closed_phase(phase_seconds()));
        for (double us : cpu_us_per_request(phases_.back())) {
          cpu_us.push_back(us);
        }
      }
      metric("server_cpu_us_per_request", "us", percentile(cpu_us, 50), true);
      return;
    }
    phase("capacity", closed_phase(phase_seconds()));
    const PhaseResult& capacity = phases_.back();
    metric("capacity_rps", "1/s", capacity_rps(capacity));
    phase("low-untraced", open_phase(spec_.low_rate));
    const double untraced_p50 = phases_.back().window_p(50);
    metric("p50_ms.low", "ms", untraced_p50);
    const auto base = wait_quiescent(*live_.control, &extra_polls_);
    ShardLedger shards;
    shards.start(*live_.control);
    phase("low", open_phase(spec_.low_rate), &shards);
    const double low_p50 = phases_.back().window_p(50);
    metric("p99_ms.low", "ms", phases_.back().window_p(99));
    phase("high", open_phase(spec_.high_rate), &shards);
    metric("p50_ms.high", "ms", phases_.back().window_p(50));
    metric("p99_ms.high", "ms", phases_.back().window_p(99));
    const Counters d = delta(wait_quiescent(*live_.control, &extra_polls_), base);
    if (spec_.swap_interval_s <= 0) {
      for (std::size_t i = 0; i < kIdleSwaps; ++i) swap({}, nullptr);
    }
    metric("swap_p50_ms", "ms", median(swap_ms_));
    std::vector<PhaseResult*> traced_phases;
    for (PhaseResult& p : phases_) {
      if (p.name == "low" || p.name == "high") traced_phases.push_back(&p);
    }
    replay(traced_phases, d, shards, ratio(low_p50, untraced_p50));
  }

  /// The stage replay and every per-layer metric.
  void replay(const std::vector<PhaseResult*>& phases, const Counters& d,
              const ShardLedger& shards, double overhead) {
    const auto c = [&](const char* name) {
      const auto it = d.find(name);
      return it == d.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double requests = c("estimate_requests");
    const double batch_mean = std::max(1.0, shards.batch_mean());
    const std::size_t batch = static_cast<std::size_t>(std::lround(batch_mean));

    sv::ServerOptions defaults;
    serve::EstimateCache memo(defaults.cache_entries);
    serve::ProfileCache parsed(defaults.profile_cache_entries);
    // Filled to its default capacity with keys no request uses, then with
    // the requests the server saw before the traced phases.
    for (std::size_t i = 0; i < defaults.cache_entries; ++i) {
      memo.insert({"ffffffffffffffff", i, 1}, std::string(64, 'x'));
    }
    serve::profile_bin::Limits bin_limits;
    bin_limits.max_samples = defaults.limits.max_profile_samples;
    bin_limits.max_name_bytes = defaults.limits.max_name_bytes;

    std::map<std::uint32_t, std::unique_ptr<serve::EstimationService>> services;
    const auto service = [&](std::uint32_t model) -> serve::EstimationService& {
      auto& s = services[model];
      if (!s) {
        s = std::make_unique<serve::EstimationService>(
            serve::EstimationService::from_registry(*live_.registry, ids_[model]));
      }
      return *s;
    };

    // Pending kernel work, coalesced per model as a shard would.
    struct KernelItem {
      std::size_t root;
      serve::profile_bin::ProfileView bin;
      std::shared_ptr<const serve::ParsedProfile> text;
      const spire::sampling::DatasetView* view() const {
        return text ? &text->view : &bin.view();
      }
    };
    std::map<std::uint32_t, std::vector<KernelItem>> pending;
    double kernel_us_total = 0;
    std::vector<double> kernel_per_profile_us;
    const auto lanes = [] {
      const auto s = serve::eval_counters_snapshot();
      return static_cast<double>(s.planned_lanes + s.scalar_lanes);
    };
    const double lanes_before = lanes();
    const auto flush = [&](std::uint32_t model) {
      auto& items = pending[model];
      if (items.empty()) return;
      std::vector<serve::ViewJob> jobs;
      for (const KernelItem& item : items) jobs.push_back({item.view()});
      serve::EstimationService& svc = service(model);
      const double us = time_us([&] { (void)svc.estimate_views(jobs); });
      kernel_us_total += us;
      for (const KernelItem& item : items) {
        const double per = us / static_cast<double>(items.size());
        kernel_per_profile_us.push_back(per);
        trace_.add_replayed(item.root, "serve.kernel",
                            static_cast<std::int64_t>(per * 1e3));
      }
      items.clear();
    };

    // Every request the server answered passes through the replay caches
    // in the order it was sent, so that they hold what the server's held;
    // only a sample of the traced phases' requests is timed.
    std::map<std::uint32_t, std::uint64_t> body_hash;
    const auto hash_of = [&](std::uint32_t profile) {
      auto [it, fresh] = body_hash.emplace(profile, 0);
      if (fresh) {
        it->second = serve::EstimateCache::workload_hash(inputs_.bodies[profile]);
      }
      return it->second;
    };
    std::map<std::uint32_t, std::shared_ptr<const serve::ParsedProfile>> untimed;
    std::uint64_t request_id = 0;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> estimated;
    std::map<std::string, std::vector<double>> residuals;
    for (PhaseResult& phase : phases_) {
      const bool traced =
          std::find(phases.begin(), phases.end(), &phase) != phases.end();
      std::vector<std::size_t> order(phase.outcomes.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return phase.outcomes[a].sent_ns < phase.outcomes[b].sent_ns;
      });
      const std::size_t stride =
          std::max<std::size_t>(1, order.size() / kMaxReplayed);
      std::vector<std::size_t> roots;
      for (std::size_t n = 0; n < order.size(); ++n) {
        const Outcome& o = phase.outcomes[order[n]];
        if (!o.answered() || o.reply_type == sv::FrameType::kErrorReply) {
          continue;
        }
        const std::uint32_t profile = inputs_.pairs[o.kind].second;
        const sv::EstimateReply reply =
            sv::decode_estimate_reply(o.reply, sv::Limits{});
        const std::uint32_t model = model_of_id_.at(reply.model_id);
        std::size_t r = 0;
        if (traced) {
          Span root;
          root.name = "request." + phase.name;
          root.request = request_id++;
          root.start_ns = o.due_ns;
          root.end_ns = o.done_ns;
          r = trace_.add(root);
        }
        if (!traced || n % stride != 0) {
          const serve::EstimateCache::Key key{reply.model_id, hash_of(profile), 0};
          if (!memo.lookup(key)) {
            memo.insert(key, sv::encode_workload_result(reply.results.at(0),
                                                        sv::Limits{}));
            if (!spec_.binary && !parsed.lookup(key.csv_hash)) {
              auto& p = untimed[profile];
              if (!p) p = serve::ParsedProfile::make(inputs_.profiles[profile]);
              parsed.insert(key.csv_hash, p);
            }
          }
          continue;
        }
        roots.push_back(r);
        const RequestKind& kind = kinds_[o.kind];
        const std::string payload = kind.head + std::string(kind.body);
        const auto stage = [&](const char* name, auto&& fn) {
          trace_.add_replayed(r, name,
                              static_cast<std::int64_t>(time_us(fn) * 1e3));
        };
        serve::profile_bin::ProfileView view;
        if (spec_.binary) {
          stage("server.protocol.decode", [&] {
            (void)sv::decode_estimate_bin_request(payload, sv::Limits{});
          });
          stage("serve.profile_bin.parse", [&] {
            view = serve::profile_bin::parse(kind.body, bin_limits);
          });
        } else {
          stage("server.protocol.decode", [&] {
            (void)sv::decode_estimate_request(payload, sv::Limits{});
          });
        }
        std::uint64_t hash = 0;
        stage("serve.estimate_cache.hash", [&] {
          hash = serve::EstimateCache::workload_hash(kind.body);
        });
        const serve::EstimateCache::Key key{reply.model_id, hash, 0};
        bool hit = false;
        stage("serve.estimate_cache.lookup",
              [&] { hit = memo.lookup(key).has_value(); });
        if (!hit) {
          KernelItem item{r, std::move(view), nullptr};
          if (!spec_.binary) {
            item.text = parsed.lookup(hash);
            if (!item.text) {
              spire::sampling::Dataset data;
              stage("sampling.load_csv", [&] {
                data = spire::sampling::Dataset::load_csv(kind.body);
              });
              item.text = serve::ParsedProfile::make(std::move(data));
              parsed.insert(hash, item.text);
            }
          }
          pending[model].push_back(std::move(item));
          if (pending[model].size() >= batch) flush(model);
          memo.insert(key, sv::encode_workload_result(reply.results.at(0),
                                                      sv::Limits{}));
          estimated.emplace_back(model, profile);
        }
        stage("server.protocol.encode_reply",
              [&] { (void)sv::encode_estimate_reply(reply, sv::Limits{}); });
      }
      for (auto& [m, items] : pending) flush(m);
      for (const std::size_t r : roots) {
        residuals[phase.name].push_back(trace_.self_ns(r) / 1e3);
      }
    }
    const double replay_lanes = lanes() - lanes_before;

    const auto p50 = [&](const char* span) {
      return percentile(trace_.self_us(span), 50);
    };
    metric("server.residual_us.p50", "us", percentile(residuals["low"], 50));
    metric("server.residual_us.p99", "us", percentile(residuals["high"], 99));
    metric("server.protocol.decode_us.p50", "us", p50("server.protocol.decode"));
    metric("server.protocol.encode_reply_us.p50", "us",
           p50("server.protocol.encode_reply"));
    metric("server.bytes_read_per_request", "B",
           ratio(c("bytes_read"), requests));
    metric("server.bytes_written_per_request", "B",
           ratio(c("bytes_written"), requests));
    metric("server.pipelined_share", "ratio",
           ratio(c("frames_pipelined"), c("frames_received")));
    metric("server.shed_share", "ratio", ratio(c("shed_overloaded"), requests));

    // Layers no request of this workload reaches are timed over the
    // workload's own profiles, so every layer has a number.
    std::vector<double> csv_us = trace_.self_us("sampling.load_csv");
    if (csv_us.empty()) {
      for (std::size_t i = 0; i < kOffPathSamples; ++i) {
        const std::string csv = to_csv(inputs_.profiles[i]);
        csv_us.push_back(time_us(
            [&] { (void)spire::sampling::Dataset::load_csv(std::string_view(csv)); }));
      }
    }
    metric("sampling.load_csv_us.p50", "us", percentile(csv_us, 50));
    std::vector<double> parse_us = trace_.self_us("serve.profile_bin.parse");
    if (parse_us.empty()) {
      for (std::size_t i = 0; i < kOffPathSamples; ++i) {
        const std::string bin = serve::profile_bin::compile(
            spire::sampling::DatasetView(inputs_.profiles[i]));
        parse_us.push_back(time_us(
            [&] { (void)serve::profile_bin::parse(bin, bin_limits); }));
      }
    }
    metric("serve.profile_bin.parse_us.p50", "us", percentile(parse_us, 50));
    metric("serve.estimate_cache.hash_us.p50", "us",
           p50("serve.estimate_cache.hash"));
    metric("serve.estimate_cache.lookup_us.p50", "us",
           p50("serve.estimate_cache.lookup"));
    metric("serve.estimate_cache.hit_ratio", "ratio",
           ratio(c("cache_hits"), c("cache_hits") + c("cache_misses")));
    metric("serve.profile_cache.hit_ratio", "ratio",
           ratio(c("profile_parse_hits"),
                 c("profile_parse_hits") + c("profile_parse_misses")));
    metric("serve.shard.batch_mean", "requests", shards.batch_mean());
    metric("serve.shard.batch_max", "requests", shards.batch_max());

    // The kernel at batch 1, on the pairs the replay evaluated.
    if (estimated.empty()) estimated.emplace_back(0, 0);
    std::vector<double> b1_us;
    std::vector<double> tree_us;
    for (std::size_t i = 0; i < std::min<std::size_t>(64, estimated.size()); ++i) {
      const auto [model, profile] = estimated[i * estimated.size() /
                                              std::min<std::size_t>(64, estimated.size())];
      const spire::sampling::DatasetView view(inputs_.profiles[profile]);
      const serve::ViewJob job{&view};
      serve::EstimationService& svc = service(model);
      b1_us.push_back(time_us([&] {
        (void)svc.estimate_views(std::span<const serve::ViewJob>(&job, 1));
      }));
      tree_us.push_back(
          time_us([&] { (void)inputs_.models[model].estimate(view); }));
    }
    metric("serve.kernel.profile_us.b1", "us", percentile(b1_us, 50));
    metric("serve.kernel.profile_us.bmean", "us",
           kernel_per_profile_us.empty() ? percentile(b1_us, 50)
                                         : percentile(kernel_per_profile_us, 50));
    metric("serve.kernel.ns_per_lane", "ns",
           ratio(kernel_us_total * 1e3, replay_lanes));
    metric("serve.kernel.planned_lane_share", "ratio",
           ratio(c("eval_planned_lanes"),
                 c("eval_planned_lanes") + c("eval_scalar_lanes")));
    metric("spire.estimate_us.p50", "us", percentile(tree_us, 50));

    metric("serve.registry.publish_ms", "ms", median(publish_ms_));
    std::vector<double> open_ms;
    for (std::size_t m = 0; m < std::min<std::size_t>(8, ids_.size()); ++m) {
      serve::ModelRegistry fresh(live_.registry->root());
      open_ms.push_back(time_us([&] { (void)fresh.open(ids_[m]); }) / 1e3);
    }
    metric("serve.registry.open_ms", "ms", median(open_ms));
    std::vector<double> latest_ms;
    for (int i = 0; i < 5; ++i) {
      latest_ms.push_back(time_us([&] { (void)live_.registry->latest(); }) / 1e3);
    }
    metric("serve.registry.latest_ms", "ms", median(latest_ms));
    std::vector<double> plan_us;
    for (int i = 0; i < 5; ++i) {
      const spire::sampling::DatasetView view(inputs_.profiles[0]);
      const serve::ViewJob job{&view};
      serve::EstimationService svc(
          serve::MappedModel::map_file(live_.registry->object_path(ids_[0])));
      const std::span<const serve::ViewJob> jobs(&job, 1);
      const double cold = time_us([&] { (void)svc.estimate_views(jobs); });
      const double warm = time_us([&] { (void)svc.estimate_views(jobs); });
      plan_us.push_back(cold - warm);
    }
    metric("serve.mapped_model.plan_build_us", "us", median(plan_us));
    metric("serve.shard.retired", "count", c("shards_retired"));

    std::vector<double> late;
    for (const PhaseResult* p : phases) {
      for (const Outcome& o : p->outcomes) late.push_back(o.late_ns / 1e6);
    }
    metric("bench.gen_late_ms.p99", "ms", percentile(late, 99));
    metric("bench.trace_overhead", "ratio", overhead);
  }

  // --- wrap-up --------------------------------------------------------------

  void finish() {
    progress("phases done");
    // Traffic shares over every measured phase.
    Counters total;
    for (const PhaseResult& p : phases_) {
      if (p.name == "warm-up") continue;
      for (const auto& [k, v] : p.delta) total[k] += v;
    }
    const auto c = [&](const char* name) {
      return static_cast<double>(total[name]);
    };
    double samples = 0, bytes = 0, sent = 0;
    for (const PhaseResult& p : phases_) {
      if (p.name == "warm-up") continue;
      for (const Outcome& o : p.outcomes) {
        const auto profile = inputs_.pairs[o.kind].second;
        samples += static_cast<double>(inputs_.profiles[profile].size());
        bytes += static_cast<double>(inputs_.bodies[profile].size());
        sent += 1;
      }
    }
    shares_ = {
        {"workload_bytes_per_request", ratio(bytes, sent)},
        {"samples_per_request", ratio(samples, sent)},
        {"memo_hit_ratio",
         ratio(c("cache_hits"), c("cache_hits") + c("cache_misses"))},
        {"profile_cache_hit_ratio",
         ratio(c("profile_parse_hits"),
               c("profile_parse_hits") + c("profile_parse_misses"))},
    };
    metric("setup_s", "s", median(setup_s_), true);
    metric("server_rss_mb", "MiB",
           static_cast<double>(live_.server->peak_rss_kib()) / 1024.0, true);
    stop(&live_);
  }

  void metric(const std::string& name, const std::string& unit, double value,
              bool end_to_end = false) {
    metrics_.push_back({name, unit, value, end_to_end});
  }

  static std::string read_first(const std::string& path, const std::string& key) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(key, 0) == 0) {
        const auto colon = line.find(':');
        return colon == std::string::npos ? "" : line.substr(colon + 2);
      }
    }
    return "";
  }

  static std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') out += '\\';
      if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
    }
    return out + "\"";
  }

  static std::string json_list(const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + num(v[i]);
    return out + "]";
  }

  static std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
  }

  std::vector<std::pair<std::string, std::string>> host() const {
    return {
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"cpu_model", read_first("/proc/cpuinfo", "model name")},
        {"avx2", __builtin_cpu_supports("avx2") ? "yes" : "no"},
        {"kernel_vectorized", serve::eval_kernel_vectorized() ? "yes" : "no"},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"spire_simd", PERFBENCH_SPIRE_SIMD},
        {"compiler", PERFBENCH_COMPILER},
    };
  }

  int report() {
    std::ostringstream out;
    out << "workload " << spec_.name << ", seed " << args_.seed << ", "
        << (args_.trace ? "traced" : "untraced") << ", " << args_.seconds
        << " s\n";
    for (const auto& [k, v] : host()) out << "host." << k << " = " << v << "\n";
    for (const auto& [k, v] : shares_) out << "traffic." << k << " = " << v << "\n";
    for (const PhaseResult& p : phases_) {
      out << "phase " << p.name << ": " << p.outcomes.size() << " requests, "
          << p.failed << " failed, lateness p99 " << p.late_p99_ms
          << " ms, quiescent after " << p.polls_before << "+" << p.polls_after
          << " stats polls\n";
    }
    for (const Metric& m : metrics_) {
      if (m.name == "p99_ms.high") {
        out << "latency limit " << kLatencyLimitMs << " ms at "
            << spec_.high_rate << " req/s: p99 " << m.value << " ms, "
            << (m.value <= kLatencyLimitMs ? "met" : "MISSED") << "\n";
      }
    }
    out << "failed_share = " << failed_share() << "\n";
    // The run reports its own section; the rest is shown for reference.
    std::vector<const Metric*> reported;
    for (const Metric& m : metrics_) {
      const bool mine = m.end_to_end != args_.trace;
      if (mine) reported.push_back(&m);
      out << (mine ? "" : "(") << m.name << " = " << num(m.value) << " "
          << m.unit << (mine ? "" : ")") << "\n";
    }
    for (const std::string& p : problems_) out << "problem: " << p << "\n";
    std::fputs(out.str().c_str(), stdout);

    std::ostringstream metrics;
    metrics << "{";
    for (std::size_t i = 0; i < reported.size(); ++i) {
      metrics << (i ? ", " : "") << json_string(reported[i]->name)
              << ": {\"value\": " << num(reported[i]->value)
              << ", \"unit\": " << json_string(reported[i]->unit) << "}";
    }
    metrics << "}";
    std::ostringstream result;
    result << "{\"correct\": " << (correct_ ? "true" : "false")
           << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
           << ", \"metrics\": " << metrics.str() << "}";

    // The full record next to the spans.
    const std::string stem = (fs::path(args_.out) /
                              (spec_.name + "-seed" + std::to_string(args_.seed) +
                               (args_.trace ? "-traced" : ""))).string();
    std::ofstream record(stem + ".json");
    record << "{\"workload\": " << json_string(spec_.name)
           << ", \"seed\": " << args_.seed << ", \"seconds\": " << num(args_.seconds)
           << ", \"host\": {";
    const auto h = host();
    for (std::size_t i = 0; i < h.size(); ++i) {
      record << (i ? ", " : "") << json_string(h[i].first) << ": "
             << json_string(h[i].second);
    }
    record << "}, \"traffic\": {";
    for (std::size_t i = 0; i < shares_.size(); ++i) {
      record << (i ? ", " : "") << json_string(shares_[i].first) << ": "
             << num(shares_[i].second);
    }
    record << "}, \"phases\": [";
    for (std::size_t i = 0; i < phases_.size(); ++i) {
      const PhaseResult& p = phases_[i];
      record << (i ? ", " : "") << "{\"name\": " << json_string(p.name)
             << ", \"requests\": " << p.outcomes.size()
             << ", \"failed\": " << p.failed
             << ", \"late_p99_ms\": " << num(p.late_p99_ms)
             << ", \"stats_polls\": " << p.polls_before + p.polls_after
             << ", \"per_second_completed\": " << json_list(p.per_second_completed())
             << ", \"per_second_p50_ms\": " << json_list(p.per_second(50))
             << ", \"per_second_p99_ms\": " << json_list(p.per_second(99)) << "}";
    }
    record << "], \"setup_s_each\": " << json_list(setup_s_)
           << ", \"failed_share\": " << num(failed_share())
           << ", \"result\": " << result.str() << "}\n";
    if (args_.trace) std::ofstream(stem + "-spans.jsonl") << trace_.to_jsonl();

    std::printf("%s\n", result.str().c_str());
    std::fflush(stdout);
    return correct_ ? 0 : 1;
  }

  double failed_share() const {
    return ratio(static_cast<double>(failed_), static_cast<double>(attempted_));
  }

  const Clock::time_point start_ = Clock::now();
  const Args& args_;
  const WorkloadSpec& spec_;
  const fs::path run_dir_;

  Inputs inputs_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, sv::WorkloadResult> oracle_;
  std::vector<RequestKind> kinds_;
  std::vector<std::pair<sv::FrameType, std::string>> first_touch_;

  std::vector<std::string> ids_;
  std::map<std::string, std::uint32_t> model_of_id_;
  Deployment live_;
  std::uint64_t cursor_ = 0;
  std::size_t next_version_ = 0;  // the next model to swap in

  std::vector<double> setup_s_;
  std::vector<double> publish_ms_;
  std::vector<double> swap_ms_;
  std::vector<PhaseResult> phases_;
  int extra_polls_ = 0;
  Trace trace_;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, double>> shares_;

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::string> problems_;
};

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const WorkloadSpec* spec = find_workload(args.workload);
    if (!spec) throw std::invalid_argument("unknown workload " + args.workload);
    Run run(args, *spec);
    return run.execute();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
