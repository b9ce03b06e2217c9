#include "trace.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

namespace perfbench {

std::size_t Trace::add(Span span) {
  const std::size_t index = spans_.size();
  if (span.parent >= 0) {
    children_[static_cast<std::size_t>(span.parent)].push_back(index);
  }
  spans_.push_back(std::move(span));
  children_.emplace_back();
  return index;
}

std::size_t Trace::add_replayed(std::size_t root, std::string name,
                                std::int64_t duration_ns) {
  const Span& parent = spans_[root];
  const std::int64_t start = children_[root].empty()
                                 ? parent.start_ns
                                 : spans_[children_[root].back()].end_ns;
  Span span;
  span.name = std::move(name);
  span.request = parent.request;
  span.parent = static_cast<std::int64_t>(root);
  span.start_ns = start;
  span.end_ns = start + duration_ns;
  return add(std::move(span));
}

std::int64_t Trace::self_ns(std::size_t index) const {
  const Span& span = spans_[index];
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const std::size_t child : children_[index]) {
    const std::int64_t lo = std::max(spans_[child].start_ns, span.start_ns);
    const std::int64_t hi = std::min(spans_[child].end_ns, span.end_ns);
    if (lo < hi) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t union_ns = 0;
  std::int64_t reach = span.start_ns;
  for (const auto& [lo, hi] : covered) {
    const std::int64_t from = std::max(lo, reach);
    if (hi > from) union_ns += hi - from;
    reach = std::max(reach, hi);
  }
  return span.duration_ns() - union_ns;
}

std::vector<double> Trace::self_us(const std::string& name) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(self_ns(i) / 1e3);
  }
  return out;
}

std::string Trace::to_jsonl() const {
  std::ostringstream out;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"request\":" << s.request
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return out.str();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace perfbench
