// Spans and the arithmetic the per-layer numbers come from.
//
// The traced run records one root span per request around the client
// call, then replays that request's server-side stages through the
// layers' public functions and records each as a child of the root. The
// replayed children ran on another timeline, so they are laid end to end
// from the root's start: a layer's number is its span's self time, and
// the root's self time — client latency not covered by any replayed stage
// — is the residual (socket, reader-to-pump handoff, shard queue wait).
// Spans stay in memory and are written out once, when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t request = 0;   // spans of one request share this id
  std::int64_t parent = -1;    // index of the causing span, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Trace {
 public:
  /// Adds a span and returns its index.
  std::size_t add(Span span);

  /// Adds a replayed stage of `root` lasting `duration_ns`, placed right
  /// after the root's previous replayed child (or at the root's start).
  std::size_t add_replayed(std::size_t root, std::string name,
                           std::int64_t duration_ns);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of span `index` minus the part of its interval its direct
  /// children cover (overlapping children are counted once).
  std::int64_t self_ns(std::size_t index) const;

  /// Self times of every span named `name`, in microseconds.
  std::vector<double> self_us(const std::string& name) const;

  /// JSON lines, one span per line.
  std::string to_jsonl() const;

 private:
  std::vector<Span> spans_;
  std::vector<std::vector<std::size_t>> children_;
};

/// Nearest-rank percentile: the smallest value with at least `q` percent
/// of the values at or below it. `q` in (0, 100]; 0 for no values.
double percentile(std::vector<double> values, double q);

}  // namespace perfbench
