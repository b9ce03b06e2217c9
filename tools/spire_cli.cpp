// spire_cli — the SPIRE toolchain as one binary.
//
//   spire_cli suite
//       List the built-in evaluation workloads.
//   spire_cli collect --workload NAME [--config CFG] [--cycles N]
//               [--window N] [--out FILE]
//       Run a workload on the simulated core under the multiplexing
//       sampler and write a sample CSV (metric,t,w,m).
//   spire_cli train --out MODEL FILE [FILE...]
//               [--polarity] [--min-samples N]
//       Train a SPIRE ensemble from sample CSVs and save it.
//   spire_cli analyze --model MODEL FILE [FILE...] [--top N]
//       Rank metrics for a workload's samples against a trained model.
//   spire_cli validate FILE [FILE...]
//       Scan sample CSVs for data-quality defects (NaN bursts, dropped
//       windows, duplicate rows, scale-up spikes, ...) and report them.
//   spire_cli lint MODEL [MODEL...] [--against CSV]... | lint --rules
//       Statically check serialized models against the paper's invariants
//       (region shapes, peak continuity, format version, ...) without
//       running estimation; with --against, also verify the upper-bound
//       property over a sample CSV. Exits nonzero on error findings.
//   spire_cli compile MODEL --out MODEL.bin [--text]
//       Convert a model to the binary v4 image (served zero-copy), or back
//       to text v1 (--text). Conversion is lossless in both directions.
//       Binary v2/v3 files are not read: recompile them from text.
//   spire_cli profile compile FILE --out FILE
//       Convert a workload profile between the sample-CSV format and the
//       spire-profile-bin v1 binary columnar format (direction is sniffed
//       from the input's leading bytes). Conversion is lossless in both
//       directions: doubles travel bit-exact.
//   spire_cli registry publish MODEL | list | pin ID | unpin ID | gc
//               [--registry-root DIR]
//       Content-addressed model store (default root .spire-registry).
//       `publish` converts either model format to its canonical v4 image
//       and stores it under the hash of its bytes — idempotent, atomic,
//       safe to race.
//       `gc` removes objects that are neither pinned nor currently mapped.
//   spire_cli estimate --model MODEL | --registry ID [--registry-root DIR]
//               FILE [FILE...] [--threads N]
//       Batch estimation: attainable throughput + top bottleneck for every
//       workload CSV against one compiled model, one pool task per file.
//       With --registry the model is resolved by content id and served
//       zero-copy from an mmap of the stored v4 image (bit-identical to
//       the compiled path). A file that fails to load or estimate is
//       reported and the batch continues; exits nonzero when any file
//       failed.
//   spire_cli show --model MODEL --metric EVENT
//       Describe and plot one learned roofline.
//   spire_cli tma --workload NAME [--config CFG] [--cycles N]
//       Run the Top-Down Analysis baseline on a workload.
//   spire_cli record --workload NAME [--config CFG] [--ops N] --out FILE
//       Serialize a workload's macro-op stream to a trace file.
//   spire_cli replay --trace FILE [--cycles N]
//       Run a recorded trace on the core and print its TMA breakdown.
//   spire_cli serve --socket PATH | --stdio [--registry-root DIR]
//               [--model ID|latest] [--workers N] [--max-queue N]
//               [--cache-entries N] [--profile-cache N]
//               [--drain-timeout-ms N]
//       Resident estimation server over the framed protocol: UNIX-domain
//       socket (or stdin/stdout with --stdio), per-model shards, each
//       with a queue bounded by --max-queue, and batch coalescing, an
//       estimate memo-cache, hot-swappable registry models, per-request
//       deadlines, graceful SIGTERM/SIGINT drain.
//   spire_cli serverctl ping|stats|swap|shards --server SOCK
//       Control-plane client: liveness probe, counter dump, a hot swap to
//       the registry's latest model, or the per-shard routing table.
//   spire_cli estimate --server SOCK FILE [FILE...]
//               [--deadline-ms N] [--retries N] [--model-class C] [--id ID]
//               [--binary] [--pipeline [--window N]]
//       Client mode of `estimate`: ships the workload CSVs to a running
//       server, with retry + exponential backoff + jitter and deadline
//       propagation (the server sees only the remaining budget). With
//       --binary the workloads travel as spire-profile-bin columns
//       (protocol v2, parse-free on the server); CSV inputs are compiled
//       on the fly, .profbin inputs pass through untouched. With
//       --pipeline each file becomes its own frame and up to --window
//       frames ride the connection concurrently (no retry; the server may
//       reply out of order).
//
// Exit codes (uniform across subcommands):
//   0  success
//   1  the operation ran and failed (bad data, failed estimate, error
//      findings, server answered with a non-retryable error)
//   2  usage error (unknown command, missing/invalid flags)
//   3  server unavailable: no reply within the retry budget
//
// Sample CSVs use the same format Dataset::save_csv writes, so data
// collected from real hardware (e.g. massaged `perf stat` logs) drops in.
// Because such logs are routinely dirty, collect/train/analyze accept
// --quality strict|repair|warn (default warn) controlling what happens when
// defects are found; `validate` inspects files without consuming them.
//
// train/analyze/validate/estimate accept --threads N: worker threads for
// the parallel pipeline stages (default: all hardware threads; 0 or 1
// forces serial). Results are bit-identical at any thread count.
//
// Model-consuming subcommands (analyze, estimate, show, lint) accept every
// model format — the line-oriented text v1 and the binary v4 image
// `compile` writes — sniffing the leading bytes.
//
// Each subcommand is a thin wrapper over pipeline::Engine: it parses flags
// into a PipelineContext, chains the stages it needs, and formats the
// results the context carries afterwards.
#include <charconv>
#include <cstdio>
#include <algorithm>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "lint/lint.h"
#include "pipeline/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "quality/quality.h"
#include "serve/model_v3.h"
#include "serve/profile_bin.h"
#include "serve/registry.h"
#include "sim/core.h"
#include "sim/trace.h"
#include "spire/model_io.h"
#include "tma/tma.h"
#include "util/ascii_plot.h"
#include "util/table.h"
#include "workloads/profile_stream.h"
#include "workloads/suite.h"

using namespace spire;

namespace {

/// A mistake in how the tool was invoked (missing flag, bad value) ->
/// exit 2, distinct from an operation that ran and failed (exit 1) and
/// from an unreachable server (exit 3). Subcommands throw this for
/// argument problems and plain runtime_error for everything else.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Tiny flag parser: --key value pairs plus positional arguments.
struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  std::optional<std::string> flag(const std::string& key) const {
    for (const auto& [k, v] : flags) {
      if (k == key) return v;
    }
    return std::nullopt;
  }
  bool has(const std::string& key) const { return flag(key).has_value(); }
  std::uint64_t flag_u64(const std::string& key, std::uint64_t fallback) const {
    const auto v = flag(key);
    if (!v) return fallback;
    std::uint64_t value = 0;
    const char* end = v->data() + v->size();
    const auto [ptr, ec] = std::from_chars(v->data(), end, value);
    if (ec == std::errc::result_out_of_range) {
      throw UsageError("--" + key + " value '" + *v +
                               "' is out of range");
    }
    if (v->empty() || ec != std::errc{} || ptr != end) {
      throw UsageError("--" + key +
                               " expects a non-negative integer, got '" + *v +
                               "'");
    }
    return value;
  }
};

/// One subcommand: its name, the flags it accepts (those taking a value
/// and the value-less ones), and a handler. Registration is the whole
/// dispatch table — adding a command means adding a row.
struct Command {
  const char* name;
  std::vector<std::string> value_flags;
  std::vector<std::string> bool_flags;
  int (*run)(const Args&);
};

/// Parses `command`'s flags. A flag the command does not declare is a
/// usage error: taking the next token as its value would silently drop an
/// input.
Args parse_args(int argc, char** argv, const Command& command) {
  const auto declared = [](const std::vector<std::string>& names,
                           const std::string& key) {
    return std::find(names.begin(), names.end(), key) != names.end();
  };
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      const bool is_bool = declared(command.bool_flags, key);
      if (!is_bool && !declared(command.value_flags, key)) {
        throw UsageError("unknown flag --" + key);
      }
      if (is_bool) {
        args.flags.emplace_back(key, "true");
      } else if (i + 1 < argc) {
        args.flags.emplace_back(key, argv[++i]);
      } else {
        throw UsageError("missing value for --" + key);
      }
    } else {
      args.positional.push_back(token);
    }
  }
  return args;
}

const workloads::SuiteEntry& resolve_workload(const Args& args) {
  const auto name = args.flag("workload");
  if (!name) throw UsageError("--workload is required");
  const std::string config = args.flag("config").value_or("");
  if (!config.empty()) return workloads::find_workload(*name, config);
  for (const auto& entry : workloads::hpc_suite()) {
    if (entry.profile.name == *name) return entry;
  }
  throw UsageError("unknown workload '" + *name + "'");
}

quality::Policy quality_policy(const Args& args) {
  const auto v = args.flag("quality");
  if (!v) return quality::Policy::kWarn;
  const auto policy = quality::policy_by_name(*v);
  if (!policy) {
    throw UsageError("--quality expects strict|repair|warn, got '" +
                             *v + "'");
  }
  return *policy;
}

/// --threads N; the default uses every hardware thread, 0 or 1 is serial.
util::ExecOptions exec_options(const Args& args) {
  util::ExecOptions exec = util::ExecOptions::hardware();
  exec.threads = args.flag_u64("threads", exec.threads);
  return exec;
}

/// An engine whose context carries the flags every dataset-consuming
/// subcommand shares (--quality, --threads), logging diagnostics to stderr.
pipeline::Engine make_engine(const Args& args) {
  pipeline::Engine engine;
  engine.context().policy = quality_policy(args);
  engine.context().exec = exec_options(args);
  engine.context().log = &std::cerr;
  return engine;
}

int cmd_suite(const Args&) {
  util::TextTable table({"Name", "Configuration", "Expected bottleneck", "Set"});
  for (const auto& entry : workloads::hpc_suite()) {
    table.add_row({entry.profile.name, entry.profile.config,
                   std::string(counters::tma_area_name(entry.expected_bottleneck)),
                   entry.testing ? "testing" : "training"});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_collect(const Args& args) {
  const auto& entry = resolve_workload(args);
  sampling::CollectorConfig cc;
  cc.window_cycles = args.flag_u64("window", cc.window_cycles);

  auto engine = make_engine(args);
  engine
      .collect(entry, cc, args.flag_u64("cycles", 8'000'000),
               args.flag_u64("seed", 7))
      .validate();
  const auto& ctx = engine.context();

  const std::string out_path =
      args.flag("out").value_or(entry.profile.name + ".samples.csv");
  std::ofstream out(out_path);
  if (!out) throw std::runtime_error("cannot write " + out_path);
  ctx.data.save_csv(out);
  const auto& stats = *ctx.collection_stats;
  std::fprintf(stderr,
               "collected %zu samples over %llu windows (IPC %.3f) -> %s\n",
               ctx.data.size(), static_cast<unsigned long long>(stats.windows),
               static_cast<double>(stats.instructions) /
                   static_cast<double>(stats.measured_cycles),
               out_path.c_str());
  return 0;
}

int cmd_train(const Args& args) {
  const auto out_path = args.flag("out");
  if (!out_path) throw UsageError("--out is required");
  if (args.positional.empty()) {
    throw UsageError("need at least one sample CSV");
  }
  auto engine = make_engine(args);
  auto& options = engine.context().train_options;
  options.min_samples = args.flag_u64("min-samples", options.min_samples);
  options.polarity_constrained = args.has("polarity");

  engine.load_samples(args.positional).validate().train();
  const auto& ctx = engine.context();
  model::save_model_file(*ctx.ensemble, *out_path);
  std::fprintf(stderr, "trained %zu rooflines from %zu samples -> %s\n",
               ctx.ensemble->metric_count(), ctx.data.size(),
               out_path->c_str());
  return 0;
}

int cmd_analyze(const Args& args) {
  const auto model_path = args.flag("model");
  if (!model_path) throw UsageError("--model is required");
  if (args.positional.empty()) {
    throw UsageError("need at least one sample CSV");
  }
  auto engine = make_engine(args);
  engine.load_model(*model_path)
      .load_samples(args.positional)
      .validate()
      .analyze();
  const auto& analysis = *engine.context().analysis;

  std::printf("measured throughput:  %.4f\n", analysis.measured_throughput);
  std::printf("estimated attainable: %.4f\n\n", analysis.estimated_throughput);
  const auto top = args.flag_u64("top", 10);
  util::TextTable table({"Mean est.", "Abbr.", "Metric", "Area"});
  table.set_align(0, util::Align::kRight);
  for (std::size_t i = 0; i < top && i < analysis.ranking.size(); ++i) {
    const auto& r = analysis.ranking[i];
    table.add_row({util::format_fixed(r.p_bar, 3),
                   std::string(r.abbrev.empty() ? "-" : r.abbrev),
                   std::string(r.name),
                   std::string(counters::tma_area_name(r.area))});
  }
  std::printf("%s", table.render().c_str());
  const auto pool = model::Analyzer::bottleneck_pool(analysis);
  std::printf("\nbottleneck pool (within 25%% of the minimum): %zu metrics\n",
              pool.size());
  return 0;
}

int cmd_validate(const Args& args) {
  if (args.positional.empty()) {
    throw UsageError("need at least one sample CSV");
  }
  bool any_errors = false;
  for (const auto& path : args.positional) {
    // One engine per file: `validate` reports each CSV on its own, and a
    // file that fails to parse must not poison the others.
    pipeline::Engine engine;
    engine.context().exec = exec_options(args);
    try {
      engine.load_samples({path});
    } catch (const std::exception& e) {
      std::printf("%s: unparseable: %s\n", path.c_str(), e.what());
      any_errors = true;
      continue;
    }
    engine.validate();
    const auto& report = *engine.context().quality_report;
    if (report.clean()) {
      std::printf("%s: clean (%zu samples, %zu metrics)\n", path.c_str(),
                  report.samples_scanned, report.metrics_scanned);
    } else {
      std::printf("%s:\n%s", path.c_str(), report.describe().c_str());
      any_errors |= report.has_errors();
    }
  }
  return any_errors ? 1 : 0;
}

int cmd_lint(const Args& args) {
  if (args.has("rules")) {
    const auto registry = lint::LintRegistry::builtin();
    util::TextTable table({"Rule", "Checks that"});
    for (const auto& rule : registry.rules()) {
      table.add_row({std::string(rule->id()), std::string(rule->summary())});
    }
    std::printf("%s", table.render().c_str());
    return 0;
  }
  if (args.positional.empty()) {
    throw UsageError("need at least one model file (or --rules)");
  }
  // --against may repeat; all CSVs merge into one reference dataset.
  std::vector<std::string> against_paths;
  for (const auto& [key, value] : args.flags) {
    if (key == "against") against_paths.push_back(value);
  }
  pipeline::Engine engine;
  if (!against_paths.empty()) engine.load_samples(against_paths);
  engine.lint_check(args.positional, /*against_data=*/!against_paths.empty());

  bool any_errors = false;
  for (const auto& report : engine.context().lint_reports) {
    if (report.clean()) {
      std::printf("%s: clean (%zu metric(s), %zu rule(s))\n",
                  report.source.c_str(), report.metrics_scanned,
                  report.rules_run);
    } else {
      std::printf("%s", report.describe().c_str());
      any_errors |= report.has_errors();
    }
  }
  return any_errors ? 1 : 0;
}

int cmd_compile(const Args& args) {
  const auto out_path = args.flag("out");
  if (!out_path) throw UsageError("--out is required");
  if (args.positional.size() != 1) {
    throw UsageError("need exactly one model file");
  }
  const auto ensemble = model::load_model_any_file(args.positional.front());
  const char* format = "binary v4";
  if (args.has("text")) {
    model::save_model_file(ensemble, *out_path);
    format = "text v1";
  } else {
    serve::save_model_v3_file(ensemble, *out_path);
  }
  std::fprintf(stderr, "compiled %zu rooflines: %s -> %s (%s)\n",
               ensemble.metric_count(), args.positional.front().c_str(),
               out_path->c_str(), format);
  return 0;
}

/// Reads a whole file as raw bytes (profiles may be binary).
std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

int cmd_profile(const Args& args) {
  if (args.positional.empty()) {
    throw UsageError("need an action: compile");
  }
  const std::string& action = args.positional.front();
  if (action != "compile") {
    throw UsageError("unknown profile action '" + action +
                     "' (expected compile)");
  }
  if (args.positional.size() != 2) {
    throw UsageError("profile compile needs exactly one input file");
  }
  const auto out_path = args.flag("out");
  if (!out_path) throw UsageError("--out is required");
  const std::string& in_path = args.positional[1];
  const std::string bytes = slurp_file(in_path);

  std::size_t metrics = 0;
  std::size_t samples = 0;
  const char* format = nullptr;
  std::ofstream out(*out_path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + *out_path);
  if (serve::profile_bin::looks_like(bytes)) {
    // Binary -> CSV. decompile() runs the full bounded+CRC parse first.
    const sampling::Dataset data = serve::profile_bin::decompile(bytes);
    metrics = data.metrics().size();
    samples = data.size();
    data.save_csv(out);
    format = "sample CSV";
  } else {
    // CSV -> binary, via the in-place string_view parse.
    const sampling::Dataset data = sampling::Dataset::load_csv(
        std::string_view(bytes));
    const sampling::DatasetView view(data);
    metrics = view.metrics().size();
    samples = data.size();
    const std::string compiled = serve::profile_bin::compile(view);
    out.write(compiled.data(),
              static_cast<std::streamsize>(compiled.size()));
    format = "spire-profile-bin v1";
  }
  if (!out) throw std::runtime_error("write to " + *out_path + " failed");
  std::fprintf(stderr, "compiled %zu metric(s) / %zu samples: %s -> %s (%s)\n",
               metrics, samples, in_path.c_str(), out_path->c_str(), format);
  return 0;
}

std::string registry_root(const Args& args) {
  return args.flag("registry-root")
      .value_or(std::string(serve::ModelRegistry::kDefaultRoot));
}

int cmd_registry(const Args& args) {
  if (args.positional.empty()) {
    throw UsageError("need an action: publish|list|pin|unpin|gc");
  }
  const std::string& action = args.positional.front();
  serve::ModelRegistry registry(registry_root(args));
  if (action == "publish") {
    if (args.positional.size() != 2) {
      throw UsageError("registry publish needs exactly one model file");
    }
    const std::string id = registry.publish_file(args.positional[1]);
    std::printf("%s\n", id.c_str());
    return 0;
  }
  if (action == "list") {
    const auto pinned = registry.pinned();
    for (const auto& id : registry.list()) {
      const bool is_pinned =
          std::find(pinned.begin(), pinned.end(), id) != pinned.end();
      std::printf("%s%s\n", id.c_str(), is_pinned ? " (pinned)" : "");
    }
    return 0;
  }
  if (action == "pin" || action == "unpin") {
    if (args.positional.size() != 2) {
      throw UsageError("registry " + action + " needs a model id");
    }
    if (action == "pin") {
      registry.pin(args.positional[1]);
    } else {
      registry.unpin(args.positional[1]);
    }
    return 0;
  }
  if (action == "gc") {
    for (const auto& id : registry.gc()) {
      std::fprintf(stderr, "removed %s\n", id.c_str());
    }
    return 0;
  }
  throw UsageError("unknown registry action '" + action +
                           "' (expected publish|list|pin|unpin|gc)");
}

int cmd_estimate_server(const Args& args);

int cmd_estimate(const Args& args) {
  const auto model_path = args.flag("model");
  const auto registry_id = args.flag("registry");
  if (args.positional.empty()) {
    throw UsageError("need at least one sample CSV");
  }
  if (args.has("server")) {
    if (model_path || registry_id) {
      throw UsageError("--server excludes --model/--registry");
    }
    return cmd_estimate_server(args);
  }
  if (!model_path && !registry_id) {
    throw UsageError("--model, --registry, or --server is required");
  }
  if (model_path && registry_id) {
    throw UsageError("--model and --registry are mutually exclusive");
  }
  auto engine = make_engine(args);
  engine.context().log = nullptr;  // per-file errors land in the table below
  if (registry_id) {
    engine.resolve_model(registry_root(args), *registry_id);
  } else {
    engine.load_model(*model_path).compile();
  }
  engine.estimate_batch(args.positional);

  bool any_errors = false;
  util::TextTable table({"Workload", "Samples", "Attainable P", "Top bottleneck"});
  table.set_align(1, util::Align::kRight);
  table.set_align(2, util::Align::kRight);
  for (const auto& r : engine.context().batch_results) {
    if (r.ok()) {
      const auto& top = r.estimate->ranking.front();
      table.add_row({r.source, std::to_string(r.samples),
                     util::format_fixed(r.estimate->throughput, 4),
                     std::string(counters::event_name(top.metric))});
    } else {
      table.add_row({r.source, std::to_string(r.samples), "-",
                     "error: " + r.error});
      any_errors = true;
    }
  }
  std::printf("%s", table.render().c_str());
  return any_errors ? 1 : 0;
}

int cmd_show(const Args& args) {
  const auto model_path = args.flag("model");
  const auto metric_name = args.flag("metric");
  if (!model_path || !metric_name) {
    throw UsageError("--model and --metric are required");
  }
  const auto ensemble = model::load_model_any_file(*model_path);
  const auto event = counters::event_by_name(*metric_name);
  if (!event) throw UsageError("unknown metric '" + *metric_name + "'");
  const auto it = ensemble.rooflines().find(*event);
  if (it == ensemble.rooflines().end()) {
    throw std::runtime_error("model has no roofline for " + *metric_name);
  }
  const auto& roofline = it->second;
  std::printf("%s\n%s\n", metric_name->c_str(), roofline.describe().c_str());

  util::Series fit{.name = "roofline", .xs = {}, .ys = {}, .marker = '*'};
  const double apex = std::max(roofline.apex_intensity(), 1.0);
  for (double x = apex / 1000.0; x <= apex * 1000.0; x *= 1.15) {
    fit.xs.push_back(x);
    fit.ys.push_back(roofline.estimate(x));
  }
  util::PlotOptions opts;
  opts.title = "P(I) bound, log x";
  opts.x_scale = util::Scale::kLog10;
  std::printf("%s", util::render_plot({fit}, opts).c_str());
  return 0;
}

int cmd_tma(const Args& args) {
  const auto& entry = resolve_workload(args);
  workloads::ProfileStream stream(entry.profile);
  sim::Core core(sim::CoreConfig{}, stream, args.flag_u64("seed", 7));
  core.run(args.flag_u64("cycles", 8'000'000));
  const auto result = tma::analyze(core.counters());
  std::printf("%s / %s\n%s", entry.profile.name.c_str(),
              entry.profile.config.c_str(), result.describe().c_str());
  std::printf("main bottleneck: %s\n",
              std::string(counters::tma_area_name(result.main_bottleneck()))
                  .c_str());
  return 0;
}

int cmd_record(const Args& args) {
  const auto& entry = resolve_workload(args);
  const auto out_path = args.flag("out");
  if (!out_path) throw UsageError("--out is required");
  workloads::ProfileStream stream(entry.profile);
  const std::size_t written =
      sim::save_trace_file(stream, *out_path, args.flag_u64("ops", 1'000'000));
  std::fprintf(stderr, "recorded %zu macro-ops of %s -> %s\n", written,
               entry.profile.name.c_str(), out_path->c_str());
  return 0;
}

int cmd_replay(const Args& args) {
  const auto trace_path = args.flag("trace");
  if (!trace_path) throw UsageError("--trace is required");
  auto stream = sim::load_trace_file(*trace_path);
  sim::Core core(sim::CoreConfig{}, stream, args.flag_u64("seed", 7));
  core.run(args.flag_u64("cycles", 50'000'000));
  const auto result = tma::analyze(core.counters());
  std::printf("replayed %zu ops in %llu cycles\n%s", stream.size(),
              static_cast<unsigned long long>(core.cycle()),
              result.describe().c_str());
  return 0;
}

server::ClientOptions client_options(const Args& args) {
  const auto sock = args.flag("server");
  if (!sock) throw UsageError("--server SOCKET is required");
  server::ClientOptions options;
  options.socket_path = *sock;
  options.backoff.max_attempts =
      static_cast<int>(args.flag_u64("retries", 4));
  options.backoff.base_ms =
      static_cast<std::uint32_t>(args.flag_u64("backoff-ms", 50));
  options.backoff.seed = args.flag_u64("seed", 0);
  return options;
}

int cmd_serve(const Args& args) {
  const auto socket = args.flag("socket");
  const bool stdio = args.has("stdio");
  if (!socket && !stdio) throw UsageError("--socket PATH or --stdio is required");
  if (socket && stdio) {
    throw UsageError("--socket and --stdio are mutually exclusive");
  }
  serve::ModelRegistry registry(registry_root(args));
  server::ServerOptions options;
  options.socket_path = socket.value_or("");
  options.workers = args.flag_u64("workers", options.workers);
  options.max_queue = args.flag_u64("max-queue", options.max_queue);
  options.cache_entries =
      args.flag_u64("cache-entries", options.cache_entries);
  options.profile_cache_entries =
      args.flag_u64("profile-cache", options.profile_cache_entries);
  options.drain_timeout_ms = static_cast<int>(
      args.flag_u64("drain-timeout-ms",
                    static_cast<std::uint64_t>(options.drain_timeout_ms)));
  options.read_timeout_ms = static_cast<int>(
      args.flag_u64("read-timeout-ms",
                    static_cast<std::uint64_t>(options.read_timeout_ms)));
  options.write_timeout_ms = static_cast<int>(
      args.flag_u64("write-timeout-ms",
                    static_cast<std::uint64_t>(options.write_timeout_ms)));

  server::EstimationServer server(registry, options);
  // Before anything is announced: a SIGTERM that lands from here on stays
  // in the shutdown latch until run() acts on it.
  server.install_signal_handlers();
  if (const auto model = args.flag("model")) {
    if (*model == "latest") {
      std::string id, error;
      if (!server.swap_to_latest("", &id, &error)) {
        throw std::runtime_error("cannot resolve latest model: " + error);
      }
      std::fprintf(stderr, "serving model %s\n", id.c_str());
    } else {
      server.set_model(*model);
      std::fprintf(stderr, "serving model %s\n", model->c_str());
    }
  }
  if (stdio) {
    // Frames own stdout; diagnostics must stay on stderr. The connection
    // reads on its own thread so that, as in socket mode, a SIGTERM drains
    // the server while stdin is still open; EOF starts the same drain.
    std::exception_ptr failure;
    std::thread connection([&server, &failure] {
      try {
        server.serve_connection_fds(0, 1);
      } catch (...) {
        failure = std::current_exception();
      }
      server.begin_shutdown();
    });
    const int rc = server.run();
    connection.join();
    if (failure) std::rethrow_exception(failure);
    return rc;
  }
  server.start();
  std::fprintf(stderr,
               "serving on %s (%zu workers, shard queue %zu, cache %zu)\n",
               server.socket_path().c_str(), server.options().workers,
               server.options().max_queue, server.options().cache_entries);
  const int rc = server.run();
  std::fprintf(stderr, rc == 0 ? "drained cleanly\n" : "drain timed out\n");
  return rc;
}

int cmd_serverctl(const Args& args) {
  if (args.positional.size() != 1) {
    throw UsageError("need an action: ping|stats|swap|shards");
  }
  const std::string& action = args.positional.front();
  server::Client client(client_options(args));
  if (action == "ping") {
    client.ping();
    std::printf("ok\n");
    return 0;
  }
  if (action == "stats") {
    const auto stats = client.stats();
    util::TextTable table({"Counter", "Value"});
    table.set_align(1, util::Align::kRight);
    for (const auto& [name, value] : stats.counters) {
      table.add_row({name, std::to_string(value)});
    }
    std::printf("%s", table.render().c_str());
    return 0;
  }
  if (action == "swap") {
    const auto reply = client.swap(args.flag("model-class").value_or(""));
    std::printf("%s generation %llu\n", reply.model_id.c_str(),
                static_cast<unsigned long long>(reply.swap_generation));
    return 0;
  }
  if (action == "shards") {
    const auto reply = client.shards();
    util::TextTable table({"Model", "Classes", "Depth", "Enqueued", "Shed",
                           "Completed", "Batches", "MaxBatch", "State"});
    for (std::size_t col = 2; col <= 7; ++col) {
      table.set_align(col, util::Align::kRight);
    }
    for (const auto& shard : reply.shards) {
      std::string classes;
      for (const auto& cls : shard.classes) {
        if (!classes.empty()) classes += ",";
        classes += cls.empty() ? "(default)" : cls;
      }
      table.add_row({shard.model_id, classes,
                     std::to_string(shard.queue_depth),
                     std::to_string(shard.enqueued),
                     std::to_string(shard.shed),
                     std::to_string(shard.completed),
                     std::to_string(shard.batches),
                     std::to_string(shard.max_batch),
                     shard.retired != 0 ? "draining" : "live"});
    }
    std::printf("%s", table.render().c_str());
    return 0;
  }
  throw UsageError("unknown serverctl action '" + action +
                   "' (expected ping|stats|swap|shards)");
}

int cmd_estimate_server(const Args& args) {
  const bool binary = args.has("binary");
  const bool pipelined = args.has("pipeline");
  const std::string model_class = args.flag("model-class").value_or("");
  const std::string model_id = args.flag("id").value_or("");
  const auto deadline_ms =
      static_cast<std::uint32_t>(args.flag_u64("deadline-ms", 0));

  // One buffer per file. In binary mode CSV inputs are compiled to
  // spire-profile-bin on the fly; already-binary inputs pass through.
  std::vector<std::string> payloads;
  payloads.reserve(args.positional.size());
  for (const auto& path : args.positional) {
    std::string bytes = slurp_file(path);
    if (binary && !serve::profile_bin::looks_like(bytes)) {
      const sampling::Dataset data =
          sampling::Dataset::load_csv(std::string_view(bytes));
      bytes = serve::profile_bin::compile(sampling::DatasetView(data));
    }
    payloads.push_back(std::move(bytes));
  }

  bool any_errors = false;
  util::TextTable table(
      {"Workload", "Samples", "Attainable P", "Top bottleneck"});
  table.set_align(1, util::Align::kRight);
  table.set_align(2, util::Align::kRight);
  const auto add_result = [&](const std::string& source,
                              const server::WorkloadResult& r) {
    if (r.status == server::ErrorCode::kOk && !r.ranking.empty()) {
      table.add_row({source, std::to_string(r.samples),
                     util::format_fixed(r.throughput, 4),
                     r.ranking.front().metric});
    } else {
      table.add_row({source, std::to_string(r.samples), "-",
                     "error: " + (r.error.empty()
                                      ? std::string(server::error_code_name(
                                            r.status))
                                      : r.error)});
      any_errors = true;
    }
  };
  const auto add_error = [&](const std::string& source,
                             const std::string& message) {
    table.add_row({source, "0", "-", "error: " + message});
    any_errors = true;
  };

  server::Client client(client_options(args));
  if (pipelined) {
    // One frame per file, up to --window in flight, no retry: the CLI face
    // of Client::pipeline. Replies are matched to files by seq.
    const auto& limits = client.options().limits;
    std::vector<server::Client::PipelineRequest> requests;
    requests.reserve(payloads.size());
    for (const auto& payload : payloads) {
      server::Client::PipelineRequest frame;
      if (binary) {
        server::EstimateBinRequest request;
        request.model_class = model_class;
        request.model_id = model_id;
        request.deadline_ms = deadline_ms;
        request.profiles = {std::string_view(payload)};
        frame.type = server::FrameType::kEstimateBinRequest;
        frame.payload = server::encode_estimate_bin_request(request, limits);
      } else {
        server::EstimateRequest request;
        request.model_class = model_class;
        request.model_id = model_id;
        request.deadline_ms = deadline_ms;
        request.workload_csvs = {payload};
        frame.type = server::FrameType::kEstimateRequest;
        frame.payload = server::encode_estimate_request(request, limits);
      }
      requests.push_back(std::move(frame));
    }
    std::vector<server::Client::PipelineResult> results;
    client.pipeline(requests, &results, args.flag_u64("window", 32));
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& res = results[i];
      const std::string& source =
          i < args.positional.size() ? args.positional[i] : "?";
      if (!res.ok) {
        add_error(source, res.error);
      } else if (res.header.type == server::FrameType::kErrorReply) {
        const auto error = server::decode_error_reply(res.payload, limits);
        add_error(source, error.message.empty()
                              ? std::string(server::error_code_name(error.code))
                              : error.message);
      } else {
        const auto reply = server::decode_estimate_reply(res.payload, limits);
        if (reply.results.size() == 1) {
          add_result(source, reply.results.front());
        } else {
          add_error(source, "malformed reply: expected 1 result, got " +
                                std::to_string(reply.results.size()));
        }
      }
    }
    std::printf("%s", table.render().c_str());
    return any_errors ? 1 : 0;
  }

  server::EstimateReply reply;
  if (binary) {
    server::EstimateBinRequest request;
    request.model_class = model_class;
    request.model_id = model_id;
    request.deadline_ms = deadline_ms;
    for (const auto& payload : payloads) {
      request.profiles.emplace_back(payload);
    }
    reply = client.estimate_bin(std::move(request));
  } else {
    server::EstimateRequest request;
    request.model_class = model_class;
    request.model_id = model_id;
    request.deadline_ms = deadline_ms;
    request.workload_csvs = std::move(payloads);
    reply = client.estimate(std::move(request));
  }
  for (std::size_t i = 0; i < reply.results.size(); ++i) {
    const std::string& source =
        i < args.positional.size() ? args.positional[i] : "?";
    add_result(source, reply.results[i]);
  }
  std::printf("%s", table.render().c_str());
  std::fprintf(stderr, "served by model %s (generation %llu)\n",
               reply.model_id.c_str(),
               static_cast<unsigned long long>(reply.swap_generation));
  return any_errors ? 1 : 0;
}

const std::vector<Command>& commands() {
  // make_engine reads --quality and --threads; client_options reads
  // --server, --retries, --backoff-ms and --seed.
  static const std::vector<Command> kCommands = {
      {"suite", {}, {}, cmd_suite},
      {"collect",
       {"workload", "config", "window", "cycles", "seed", "out", "quality",
        "threads"},
       {},
       cmd_collect},
      {"train", {"out", "min-samples", "quality", "threads"}, {"polarity"},
       cmd_train},
      {"analyze", {"model", "top", "quality", "threads"}, {}, cmd_analyze},
      {"validate", {"threads"}, {}, cmd_validate},
      {"lint", {"against"}, {"rules"}, cmd_lint},
      {"compile", {"out"}, {"text"}, cmd_compile},
      {"profile", {"out"}, {}, cmd_profile},
      {"registry", {"registry-root"}, {}, cmd_registry},
      {"estimate",
       {"model", "registry", "registry-root", "quality",
        "threads", "server", "retries", "backoff-ms", "seed", "deadline-ms",
        "model-class", "id", "window"},
       {"binary", "pipeline"},
       cmd_estimate},
      {"show", {"model", "metric"}, {}, cmd_show},
      {"tma", {"workload", "config", "cycles", "seed"}, {}, cmd_tma},
      {"record", {"workload", "config", "ops", "out"}, {}, cmd_record},
      {"replay", {"trace", "cycles", "seed"}, {}, cmd_replay},
      {"serve",
       {"socket", "registry-root", "model", "workers",
        "max-queue", "cache-entries", "profile-cache",
        "drain-timeout-ms", "read-timeout-ms", "write-timeout-ms"},
       {"stdio"},
       cmd_serve},
      {"serverctl", {"server", "retries", "backoff-ms", "seed", "model-class"},
       {},
       cmd_serverctl},
  };
  return kCommands;
}

int usage() {
  std::fprintf(stderr,
               "usage: spire_cli <command> [options]\n"
               "commands:\n"
               "  suite                                     list workloads\n"
               "  collect --workload N [--config C] [--cycles N] [--window N] [--out F]\n"
               "  train   --out MODEL FILE... [--polarity] [--min-samples N]\n"
               "  analyze --model MODEL FILE... [--top N]\n"
               "  validate FILE...                          report data-quality defects\n"
               "  lint    MODEL... [--against CSV]...       check model invariants\n"
               "  lint    --rules                           list the lint rules\n"
               "  compile MODEL --out F [--text]            text v1 <-> binary v4 image\n"
               "  profile compile FILE --out F              workload CSV <-> profile-bin\n"
               "  registry publish MODEL | list | pin ID | unpin ID | gc\n"
               "          [--registry-root DIR]             content-addressed model store\n"
               "  estimate --model MODEL | --registry ID | --server SOCK FILE...\n"
               "          [--registry-root DIR] [--deadline-ms N] [--retries N]\n"
               "          [--binary] [--pipeline [--window N]]\n"
               "                                            batch attainable-throughput\n"
               "  show    --model MODEL --metric EVENT\n"
               "  tma     --workload N [--config C] [--cycles N]\n"
               "  record  --workload N [--config C] [--ops N] --out FILE\n"
               "  replay  --trace FILE [--cycles N]\n"
               "  serve   --socket PATH | --stdio [--registry-root DIR]\n"
               "          [--model ID|latest] [--workers N] [--max-queue N]\n"
               "          [--cache-entries N] [--profile-cache N]\n"
               "          [--drain-timeout-ms N]           resident estimation server\n"
               "  serverctl ping|stats|swap|shards --server SOCK\n"
               "                                           control a running server\n"
               "exit codes: 0 ok, 1 operation failed, 2 usage error,\n"
               "3 server unavailable after retries.\n"
               "collect/train/analyze also accept --quality strict|repair|warn\n"
               "(default warn): throw on, repair, or just report defective "
               "samples.\n"
               "train/analyze/validate/estimate accept --threads N (default: "
               "all\nhardware threads; 0 forces serial). Results are identical "
               "at any\nthread count. Model-consuming commands accept text v1 "
               "and binary v4.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    for (const auto& cmd : commands()) {
      if (command == cmd.name) {
        return cmd.run(parse_args(argc, argv, cmd));
      }
    }
    return usage();
  } catch (const UsageError& e) {
    std::fprintf(stderr, "spire_cli: %s\n", e.what());
    return 2;
  } catch (const server::ServerUnavailable& e) {
    std::fprintf(stderr, "spire_cli: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spire_cli: %s\n", e.what());
    return 1;
  }
}
