#include "serve/profile_bin.h"

#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "util/hash.h"

namespace spire::serve::profile_bin {

namespace {

using counters::Event;
using sampling::Sample;

// The zero-copy reinterpret below depends on Sample being exactly the wire
// triple: three packed doubles, nothing else.
static_assert(sizeof(Sample) == kSampleBytes);
static_assert(alignof(Sample) == alignof(double));
static_assert(std::is_trivially_copyable_v<Sample>);

[[noreturn]] void reject(Section section, std::size_t offset,
                         const std::string& what) {
  throw std::runtime_error("profile-bin: " + what + " (section " +
                           section_name(section) + ", offset " +
                           std::to_string(offset) + ")");
}

std::uint32_t read_u32(std::string_view bytes, std::size_t offset) {
  std::uint32_t v;
  std::memcpy(&v, bytes.data() + offset, sizeof v);
  return v;
}

std::uint64_t read_u64(std::string_view bytes, std::size_t offset) {
  std::uint64_t v;
  std::memcpy(&v, bytes.data() + offset, sizeof v);
  return v;
}

void append_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void append_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

std::size_t pad8(std::size_t n) { return (n + 7u) & ~std::size_t{7}; }

/// Everything the structure pass proves about one profile, so the data
/// passes below can index without re-checking.
struct Layout {
  struct Column {
    Event metric;
    std::size_t name_offset;  // into the names section (absolute)
    std::size_t name_len;
    std::size_t sample_offset;  // into the samples section (absolute)
    std::size_t count;
  };
  std::vector<Column> columns;
  std::size_t names_offset = 0;   // absolute, directory end
  std::size_t names_bytes = 0;    // raw (unpadded)
  std::size_t samples_offset = 0; // absolute, 8-aligned by construction
  std::size_t total_samples = 0;
  std::uint32_t meta_crc = 0;
  std::uint32_t samples_crc = 0;
};

/// The structure tier: bounds and cross-checks only, in section order, with
/// every quantity validated before it sizes an allocation or an offset.
Layout check_structure(std::string_view bytes, const Limits& limits) {
  if (bytes.size() < kHeaderBytes) {
    reject(Section::kHeader, bytes.size(),
           "profile of " + std::to_string(bytes.size()) +
               " bytes is shorter than the header");
  }
  if (read_u64(bytes, 0) != kMagic) {
    reject(Section::kHeader, 0, "bad magic");
  }
  const std::uint32_t version = read_u32(bytes, 8);
  if (version != kFormatVersion) {
    reject(Section::kHeader, 8,
           "unsupported version " + std::to_string(version));
  }
  Layout layout;
  const std::uint64_t metric_count = read_u32(bytes, 12);
  layout.total_samples = read_u64(bytes, 16);
  layout.names_bytes = read_u32(bytes, 24);
  layout.meta_crc = read_u32(bytes, 28);
  layout.samples_crc = read_u32(bytes, 32);
  if (read_u32(bytes, 36) != 0) {
    reject(Section::kHeader, 36, "reserved header bytes must be zero");
  }
  if (metric_count == 0 || metric_count > limits.max_metrics) {
    reject(Section::kHeader, 12,
           "metric count " + std::to_string(metric_count) + " (limit " +
               std::to_string(limits.max_metrics) + ")");
  }
  if (layout.total_samples == 0 ||
      layout.total_samples > limits.max_samples) {
    reject(Section::kHeader, 16,
           "sample count " + std::to_string(layout.total_samples) +
               " (limit " + std::to_string(limits.max_samples) + ")");
  }
  if (layout.names_bytes > metric_count * limits.max_name_bytes) {
    reject(Section::kHeader, 24,
           "names section of " + std::to_string(layout.names_bytes) +
               " bytes exceeds " + std::to_string(metric_count) +
               " names at " + std::to_string(limits.max_name_bytes) +
               " bytes each");
  }

  // The whole-file size is fully determined by the three header counts;
  // cross-check it BEFORE touching the directory, so a hostile header can
  // never walk a directory that is not really there.
  layout.names_offset = kHeaderBytes + metric_count * kDirEntryBytes;
  layout.samples_offset = pad8(layout.names_offset + layout.names_bytes);
  const std::size_t expected =
      layout.samples_offset + layout.total_samples * kSampleBytes;
  if (bytes.size() != expected) {
    reject(Section::kHeader, 0,
           "profile is " + std::to_string(bytes.size()) +
               " bytes, header geometry requires " + std::to_string(expected));
  }

  // Directory walk: per-column bounds, then the two sums must reproduce the
  // header totals exactly.
  layout.columns.reserve(metric_count);
  std::size_t name_offset = layout.names_offset;
  std::size_t sample_offset = layout.samples_offset;
  std::size_t names_seen = 0;
  std::size_t samples_seen = 0;
  for (std::uint64_t i = 0; i < metric_count; ++i) {
    const std::size_t entry = kHeaderBytes + i * kDirEntryBytes;
    const std::uint32_t name_len = read_u32(bytes, entry);
    if (name_len == 0 || name_len > limits.max_name_bytes) {
      reject(Section::kDirectory, entry,
             "name length " + std::to_string(name_len) + " (limit " +
                 std::to_string(limits.max_name_bytes) + ")");
    }
    if (read_u32(bytes, entry + 4) != 0) {
      reject(Section::kDirectory, entry + 4,
             "reserved directory bytes must be zero");
    }
    const std::uint64_t count = read_u64(bytes, entry + 8);
    if (count == 0 || count > layout.total_samples - samples_seen) {
      reject(Section::kDirectory, entry + 8,
             "column of " + std::to_string(count) + " samples with " +
                 std::to_string(layout.total_samples - samples_seen) +
                 " remaining");
    }
    if (name_len > layout.names_bytes - names_seen) {
      reject(Section::kDirectory, entry,
             "name of " + std::to_string(name_len) + " bytes with " +
                 std::to_string(layout.names_bytes - names_seen) +
                 " remaining");
    }
    Layout::Column column;
    column.name_offset = name_offset;
    column.name_len = name_len;
    column.sample_offset = sample_offset;
    column.count = count;
    layout.columns.push_back(column);
    name_offset += name_len;
    sample_offset += count * kSampleBytes;
    names_seen += name_len;
    samples_seen += count;
  }
  if (names_seen != layout.names_bytes) {
    reject(Section::kDirectory, layout.names_offset - kDirEntryBytes,
           "directory names sum to " + std::to_string(names_seen) +
               " bytes, header says " + std::to_string(layout.names_bytes));
  }
  if (samples_seen != layout.total_samples) {
    reject(Section::kDirectory, layout.names_offset - kDirEntryBytes,
           "directory samples sum to " + std::to_string(samples_seen) +
               ", header says " + std::to_string(layout.total_samples));
  }

  // Names: each must resolve to a known metric, and the canonical encoding
  // requires catalog order (strictly increasing event values — which also
  // proves uniqueness) plus zeroed padding. So each name is matched
  // against the catalog entries after the previous column's, one walk over
  // the catalog for the whole directory; only a name the walk misses is
  // looked up by name, to tell an unknown metric from one out of order.
  const auto& catalog = counters::event_catalog();
  std::size_t next = 0;  // first catalog index the next column may name
  for (auto& column : layout.columns) {
    const std::string_view name =
        bytes.substr(column.name_offset, column.name_len);
    std::size_t at = next;
    while (at < catalog.size() && catalog[at].name != name) ++at;
    if (at == catalog.size()) {
      if (!counters::event_by_name(name)) {
        reject(Section::kNames, column.name_offset,
               "unknown metric '" + std::string(name) + "'");
      }
      reject(Section::kNames, column.name_offset,
             "metric '" + std::string(name) +
                 "' out of catalog order (columns must be unique and "
                 "catalog-ordered)");
    }
    column.metric = catalog[at].event;
    next = at + 1;
  }
  for (std::size_t i = layout.names_offset + layout.names_bytes;
       i < layout.samples_offset; ++i) {
    if (bytes[i] != '\0') {
      reject(Section::kNames, i, "nonzero padding byte");
    }
  }
  return layout;
}

void check_crcs(std::string_view bytes, const Layout& layout) {
  const std::uint32_t meta = util::crc32(bytes.substr(
      kHeaderBytes, layout.samples_offset - kHeaderBytes));
  if (meta != layout.meta_crc) {
    reject(Section::kDirectory, kHeaderBytes, "metadata CRC mismatch");
  }
  const std::uint32_t samples =
      util::crc32(bytes.substr(layout.samples_offset));
  if (samples != layout.samples_crc) {
    reject(Section::kSamples, layout.samples_offset, "samples CRC mismatch");
  }
}

bool aligned_for_samples(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % alignof(Sample) == 0;
}

}  // namespace

const char* section_name(Section section) {
  switch (section) {
    case Section::kHeader: return "header";
    case Section::kDirectory: return "directory";
    case Section::kNames: return "names";
    case Section::kSamples: return "samples";
  }
  return "unknown";
}

bool looks_like(std::string_view bytes) {
  return bytes.size() >= sizeof(kMagic) && read_u64(bytes, 0) == kMagic;
}

std::string compile(const sampling::DatasetView& data) {
  const auto& metrics = data.metrics();
  std::size_t names_bytes = 0;
  for (const Event metric : metrics) {
    names_bytes += counters::event_name(metric).size();
  }
  const std::size_t names_offset =
      kHeaderBytes + metrics.size() * kDirEntryBytes;
  const std::size_t samples_offset = pad8(names_offset + names_bytes);
  std::string out;
  out.reserve(samples_offset + data.size() * kSampleBytes);

  // Header, CRC fields zero for now (patched once the sections exist).
  append_u64(out, kMagic);
  append_u32(out, kFormatVersion);
  append_u32(out, static_cast<std::uint32_t>(metrics.size()));
  append_u64(out, data.size());
  append_u32(out, static_cast<std::uint32_t>(names_bytes));
  append_u32(out, 0);  // meta_crc
  append_u32(out, 0);  // samples_crc
  append_u32(out, 0);  // reserved

  for (const Event metric : metrics) {
    append_u32(out, static_cast<std::uint32_t>(
                        counters::event_name(metric).size()));
    append_u32(out, 0);  // reserved
    append_u64(out, data.samples(metric).size());
  }
  for (const Event metric : metrics) {
    out.append(counters::event_name(metric));
  }
  out.append(samples_offset - out.size(), '\0');  // zeroed padding
  for (const Event metric : metrics) {
    const auto series = data.samples(metric);
    out.append(reinterpret_cast<const char*>(series.data()),
               series.size() * kSampleBytes);
  }

  const std::uint32_t meta_crc = util::crc32(
      std::string_view(out).substr(kHeaderBytes,
                                   samples_offset - kHeaderBytes));
  const std::uint32_t samples_crc =
      util::crc32(std::string_view(out).substr(samples_offset));
  std::memcpy(out.data() + 28, &meta_crc, sizeof meta_crc);
  std::memcpy(out.data() + 32, &samples_crc, sizeof samples_crc);
  return out;
}

ProfileView parse(std::string_view bytes, const Limits& limits,
                  Verify verify) {
  const Layout layout = check_structure(bytes, limits);
  if (verify == Verify::kFull) check_crcs(bytes, layout);

  ProfileView out;
  std::vector<std::pair<Event, std::span<const Sample>>> columns;
  columns.reserve(layout.columns.size());
  if (aligned_for_samples(bytes.data() + layout.samples_offset)) {
    // The hot path: spans alias the wire bytes directly. Framing pads
    // profiles to 8-aligned payload offsets, so this is what actually runs
    // in the server.
    for (const auto& column : layout.columns) {
      columns.emplace_back(
          column.metric,
          std::span<const Sample>(
              reinterpret_cast<const Sample*>(bytes.data() +
                                              column.sample_offset),
              column.count));
    }
  } else {
    // Foreign buffer with a misaligned samples section: one copy into owned
    // storage, never an unaligned double load.
    out.owned_.resize(layout.total_samples);
    std::memcpy(out.owned_.data(), bytes.data() + layout.samples_offset,
                layout.total_samples * kSampleBytes);
    std::size_t at = 0;
    for (const auto& column : layout.columns) {
      columns.emplace_back(
          column.metric,
          std::span<const Sample>(out.owned_.data() + at, column.count));
      at += column.count;
    }
  }
  out.view_ = sampling::DatasetView(
      std::span<const std::pair<Event, std::span<const Sample>>>(columns));
  return out;
}

sampling::Dataset decompile(std::string_view bytes, const Limits& limits) {
  const ProfileView profile = parse(bytes, limits, Verify::kFull);
  sampling::Dataset out;
  for (const Event metric : profile.view().metrics()) {
    auto& series = out.mutable_samples(metric);
    const auto column = profile.view().samples(metric);
    series.assign(column.begin(), column.end());
  }
  return out;
}

}  // namespace spire::serve::profile_bin
