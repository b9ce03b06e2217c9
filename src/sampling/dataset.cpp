#include "sampling/dataset.h"

#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "sampling/dataset_detail.h"
#include "util/contract.h"

namespace spire::sampling {

using counters::Event;

void Dataset::add(Event metric, const Sample& sample) {
  by_metric_[metric].push_back(sample);
}

const std::vector<Sample>& Dataset::samples(Event metric) const {
  static const std::vector<Sample> kEmpty;
  const auto it = by_metric_.find(metric);
  return it == by_metric_.end() ? kEmpty : it->second;
}

std::vector<Sample>& Dataset::mutable_samples(Event metric) {
  return by_metric_[metric];
}

void Dataset::remove(Event metric) { by_metric_.erase(metric); }

std::vector<Event> Dataset::metrics() const {
  std::vector<Event> out;
  for (const auto& info : counters::event_catalog()) {
    const auto it = by_metric_.find(info.event);
    if (it != by_metric_.end() && !it->second.empty()) out.push_back(info.event);
  }
  return out;
}

std::size_t Dataset::size() const {
  std::size_t n = 0;
  for (const auto& [metric, samples] : by_metric_) n += samples.size();
  return n;
}

void Dataset::merge(const Dataset& other) {
  for (const auto& [metric, samples] : other.by_metric_) {
    auto& mine = by_metric_[metric];
    mine.insert(mine.end(), samples.begin(), samples.end());
  }
}

void Dataset::save_csv(std::ostream& out) const {
  out << "metric,t,w,m\n";
  out.precision(17);
  for (const Event metric : metrics()) {
    const auto name = counters::event_name(metric);
    for (const Sample& s : samples(metric)) {
      out << name << ',' << s.t << ',' << s.w << ',' << s.m << '\n';
    }
  }
}

namespace detail {

namespace {

// 10^0 .. 10^22: every power of ten a double holds exactly.
constexpr double kExactPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
                                  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                                  1e12, 1e13, 1e14, 1e15, 1e16, 1e17,
                                  1e18, 1e19, 1e20, 1e21, 1e22};

bool is_digit(char c) { return static_cast<unsigned>(c - '0') < 10u; }

}  // namespace

const char* parse_decimal_fast(const char* first, const char* last,
                               double& value) {
  const char* p = first;
  const bool negative = p != last && *p == '-';
  p += negative;
  // Leading zeros are not significant; `significant` counts from the first
  // nonzero digit, so the mantissa cannot wrap while it stays <= 19.
  std::uint64_t mantissa = 0;
  int significant = 0;
  const char* const digits_begin = p;
  for (; p != last && is_digit(*p); ++p) {
    mantissa = mantissa * 10 + static_cast<unsigned>(*p - '0');
    significant += mantissa != 0;
  }
  const std::ptrdiff_t whole = p - digits_begin;
  std::ptrdiff_t fraction = 0;
  if (p != last && *p == '.') {
    const char* const fraction_begin = ++p;
    for (; p != last && is_digit(*p); ++p) {
      mantissa = mantissa * 10 + static_cast<unsigned>(*p - '0');
      significant += mantissa != 0;
    }
    fraction = p - fraction_begin;
  }
  if (whole + fraction == 0 || significant > 19 || fraction > 22 ||
      mantissa > (std::uint64_t{1} << 53)) {
    return nullptr;
  }
  value = static_cast<double>(mantissa) / kExactPow10[fraction];
  if (negative) value = -value;
#if SPIRE_DCHECK_ENABLED
  // Checked builds re-derive every fast-path field on std::from_chars and
  // demand the same bits, as the CRC fold and the eval lanes are checked.
  double reference = 0.0;
  const auto [ptr, ec] = std::from_chars(first, p, reference);
  SPIRE_DCHECK(ec == std::errc{} && ptr == p &&
                   std::bit_cast<std::uint64_t>(reference) ==
                       std::bit_cast<std::uint64_t>(value),
               "CSV fast path diverged from std::from_chars on '",
               std::string_view(first, static_cast<std::size_t>(p - first)),
               "'");
#endif
  return p;
}

bool parse_number(std::string_view field, double& value) {
  const char* const first = field.data();
  const char* const last = first + field.size();
  if (parse_decimal_fast(first, last, value) == last) return true;
  const auto [ptr, ec] = std::from_chars(first, last, value);
  return ec == std::errc{} && ptr == last;
}

}  // namespace detail

namespace {

double parse_double(std::string_view field, const char* what,
                    std::string_view line) {
  double value = 0.0;
  if (!detail::parse_number(field, value)) {
    throw std::runtime_error(std::string("dataset: bad ") + what + " value '" +
                             std::string(field) + "' in row '" +
                             std::string(line) + "'");
  }
  return value;
}

/// Splits one data row into its four fields without allocating.
struct RowFields {
  std::string_view metric, t, w, m;
};

RowFields split_row(std::string_view line) {
  RowFields f;
  std::string_view* slots[4] = {&f.metric, &f.t, &f.w, &f.m};
  std::size_t start = 0;
  for (int i = 0; i < 4; ++i) {
    const std::size_t comma = line.find(',', start);
    if (i < 3) {
      if (comma == std::string_view::npos) {
        throw std::runtime_error("dataset: short row '" + std::string(line) +
                                 "'");
      }
      *slots[i] = line.substr(start, comma - start);
      start = comma + 1;
    } else {
      if (comma != std::string_view::npos) {
        throw std::runtime_error("dataset: long row '" + std::string(line) +
                                 "'");
      }
      *slots[i] = line.substr(start);
    }
  }
  return f;
}

/// Throws the error a row the loader could not take deserves. The checks
/// run in the order that decides which error a row with several faults
/// reports: its shape, then its metric, then t, w and m.
[[noreturn]] void throw_row_error(std::string_view line) {
  const RowFields f = split_row(line);
  if (!counters::event_by_name(f.metric)) {
    throw std::runtime_error("dataset: unknown metric '" +
                             std::string(f.metric) + "'");
  }
  parse_double(f.t, "t", line);
  parse_double(f.w, "w", line);
  parse_double(f.m, "m", line);
  throw std::logic_error("dataset: row '" + std::string(line) +
                         "' was rejected but has no fault");
}

/// The end of the field that starts at `p`: the next ',' before `last`, or
/// nullptr when there is none. Fields are a few bytes long.
const char* find_comma(const char* p, const char* last) {
  for (; p != last; ++p) {
    if (*p == ',') return p;
  }
  return nullptr;
}

/// Pops the next line off `rest` (handling a trailing '\r' and a final line
/// without '\n'); returns false when the buffer is exhausted.
bool next_line(std::string_view& rest, std::string_view& line) {
  if (rest.empty()) return false;
  const std::size_t nl = rest.find('\n');
  if (nl == std::string_view::npos) {
    line = rest;
    rest = {};
  } else {
    line = rest.substr(0, nl);
    rest = rest.substr(nl + 1);
  }
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return true;
}

}  // namespace

Dataset Dataset::load_csv(std::istream& in) {
  // Slurp the stream in bulk through its buffer, then parse in place.
  std::string buffer;
  if (std::streambuf* const source = in.rdbuf()) {
    constexpr std::size_t kChunk = 64 * 1024;
    std::size_t size = 0;
    for (;;) {
      buffer.resize(size + kChunk);
      const auto got = source->sgetn(buffer.data() + size, kChunk);
      size += static_cast<std::size_t>(got);
      if (got < static_cast<std::streamsize>(kChunk)) break;
    }
    buffer.resize(size);
  }
  return load_csv(std::string_view(buffer));
}

Dataset Dataset::load_csv(std::string_view text) {
  // Hot path for the 27-workload suite and the serving request path
  // (hundreds of thousands of rows per run): one pass over the caller's
  // buffer, every field converted in place.
  Dataset out;

  std::string_view rest(text);
  std::string_view header;
  if (!next_line(rest, header)) return out;  // empty stream
  if (header != "metric,t,w,m") {
    throw std::runtime_error("dataset: unexpected header '" +
                             std::string(header) + "'");
  }

  // CSVs are written catalog-major (long runs of one metric). A run's rows
  // collect in `run` and move into their series when the run ends, which
  // reserves each series exactly, even when a metric's rows arrive in
  // several runs; the name -> event lookup runs only when the name changes.
  std::string_view run_name;
  std::vector<Sample>* series = nullptr;
  std::vector<Sample> run;
  const auto end_run = [&] {
    if (series == nullptr) return;
    series->reserve(series->size() + run.size());
    series->insert(series->end(), run.begin(), run.end());
    run.clear();
  };

  const char* p = rest.data();
  const char* const end = p + rest.size();
  while (p != end) {
    const auto* const nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
    const char* const next = nl != nullptr ? nl + 1 : end;
    const char* line_end = nl != nullptr ? nl : end;
    if (line_end != p && line_end[-1] == '\r') --line_end;
    const std::string_view line(p, static_cast<std::size_t>(line_end - p));
    if (line.empty()) {
      p = next;
      continue;
    }

    // A run name holds no ',', so a line that starts with it and a ','
    // names the same metric.
    const char* field = nullptr;
    if (series != nullptr && line.size() > run_name.size() &&
        line[run_name.size()] == ',' &&
        std::memcmp(p, run_name.data(), run_name.size()) == 0) {
      field = p + run_name.size() + 1;
    } else {
      const char* const comma = find_comma(p, line_end);
      const auto metric =
          comma == nullptr
              ? std::nullopt
              : counters::event_by_name(
                    std::string_view(p, static_cast<std::size_t>(comma - p)));
      if (!metric) throw_row_error(line);
      end_run();
      run_name = std::string_view(p, static_cast<std::size_t>(comma - p));
      series = &out.by_metric_[*metric];
      field = comma + 1;
    }

    Sample sample;
    for (double* const value : {&sample.t, &sample.w, &sample.m}) {
      // t and w end at the next ','; m runs to the end of the line, and a
      // ',' left in it makes from_chars stop short of the end: a long row.
      const char* const field_end =
          value == &sample.m ? line_end : find_comma(field, line_end);
      if (field_end == nullptr ||
          !detail::parse_number(
              std::string_view(field,
                               static_cast<std::size_t>(field_end - field)),
              *value)) {
        throw_row_error(line);
      }
      field = field_end + 1;
    }
    run.push_back(sample);
    p = next;
  }
  end_run();
  return out;
}

}  // namespace spire::sampling
