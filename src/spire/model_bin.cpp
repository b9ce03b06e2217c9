// v4 image validation, Ensemble rebuild and serialization (see
// model_bin.h for the wire layout). The validator is the gate in front of
// every reader: nothing forms a pointer into an image until every byte
// count, alignment, CRC, and semantic invariant here has passed, and every
// failure names the section and absolute byte offset.
#include "spire/model_bin.h"

#include <bit>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>

#include "spire/model_io.h"
#include "util/contract.h"
#include "util/hash.h"

namespace spire::model::bin {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("model-bin: " + what);
}

std::string at_byte(std::size_t offset) {
  return " (at byte " + std::to_string(offset) + ")";
}

std::size_t align_up(std::size_t n) {
  return (n + kFlatAlignment - 1) & ~(kFlatAlignment - 1);
}

/// Alignment-safe little-endian reads over the image, addressed by file
/// offset. Bounds were established by the caller's layout checks; these
/// guard anyway so a checker bug can never over-read.
struct Reader {
  std::span<const std::byte> file;

  void need(std::size_t at, std::size_t bytes, const char* what) const {
    if (at > file.size() || file.size() - at < bytes) {
      fail(std::string(what) + " out of bounds" + at_byte(at));
    }
  }

  std::uint64_t le(std::size_t at, std::size_t bytes, const char* what) const {
    need(at, bytes, what);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(file[at + i]) << (8 * i);
    }
    return v;
  }

  std::uint32_t u32(std::size_t at, const char* what) const {
    return static_cast<std::uint32_t>(le(at, 4, what));
  }
  std::uint64_t u64(std::size_t at, const char* what) const {
    return le(at, 8, what);
  }
  double f64(std::size_t at, const char* what) const {
    return std::bit_cast<double>(u64(at, what));
  }
};

// --- little-endian encoding (writer side) ----------------------------------

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

std::string_view section_name(Section section) {
  switch (section) {
    case Section::kMetricRanges: return "metric-ranges";
    case Section::kNameIndex: return "name-index";
    case Section::kStrings: return "strings";
    case Section::kX0: return "x0";
    case Section::kY0: return "y0";
    case Section::kX1: return "x1";
    case Section::kY1: return "y1";
    case Section::kMetricInfo: return "metric-info";
  }
  return "unknown";
}

FlatLayout check_flat_region(std::span<const std::byte> file, Verify verify) {
  // --- magic line: this build reads exactly one binary version -------------
  const int version = binary_model_version(std::string_view(
      reinterpret_cast<const char*>(file.data()), file.size()));
  if (version == 0) {
    fail("bad magic (expected '" +
         std::string(kModelImageMagic.substr(0, kModelImageMagic.size() - 1)) +
         "')");
  }
  if (version != kModelBinFormatVersion) {
    fail(unsupported_binary_version(version));
  }

  const std::size_t total = file.size();
  constexpr std::size_t kTableBytes = kSectionCount * kSectionEntryBytes;
  constexpr std::size_t kMinBytes =
      kFlatHeaderOffset + kFlatHeaderBytes + kTableBytes + kFooterBytes;
  if (total < kMinBytes) {
    fail("image truncated: " + std::to_string(total) +
         " byte(s), need at least " + std::to_string(kMinBytes));
  }
  const Reader r{file};

  // --- footer (fixed position at EOF) --------------------------------------
  FlatLayout layout;
  const std::size_t footer_off = total - kFooterBytes;
  if (r.u64(footer_off + 24, "footer magic") != kFooterMagic) {
    fail("bad footer magic" + at_byte(footer_off + 24));
  }
  if (r.u32(footer_off + 20, "footer reserved") != 0) {
    fail("footer reserved field is not zero" + at_byte(footer_off + 20));
  }
  const std::uint64_t flat_offset = r.u64(footer_off, "flat offset");
  layout.file_size = r.u64(footer_off + 8, "file size");
  const std::uint32_t stored_crc = r.u32(footer_off + 16, "file CRC");
  if (layout.file_size != total) {
    fail("footer declares " + std::to_string(layout.file_size) +
         " file byte(s) but the image has " + std::to_string(total) +
         at_byte(footer_off + 8));
  }

  // --- flat header ----------------------------------------------------------
  if (flat_offset != kFlatHeaderOffset) {
    fail("flat header offset " + std::to_string(flat_offset) +
         ", expected " + std::to_string(kFlatHeaderOffset) +
         at_byte(footer_off));
  }
  if (r.u64(kFlatHeaderOffset, "flat magic") != kFlatMagic) {
    fail("bad flat magic" + at_byte(kFlatHeaderOffset));
  }
  layout.metric_count = r.u32(kFlatHeaderOffset + 8, "flat metric count");
  layout.piece_count = r.u32(kFlatHeaderOffset + 12, "flat piece count");
  const std::uint32_t section_count =
      r.u32(kFlatHeaderOffset + 16, "flat section count");
  if (section_count != kSectionCount) {
    fail("flat section count " + std::to_string(section_count) +
         " (this build reads " + std::to_string(kSectionCount) + ")" +
         at_byte(kFlatHeaderOffset + 16));
  }
  if (r.u32(kFlatHeaderOffset + 20, "flat reserved") != 0) {
    fail("flat reserved field is not zero" + at_byte(kFlatHeaderOffset + 20));
  }
  const std::size_t metric_count = layout.metric_count;
  const std::size_t piece_count = layout.piece_count;
  if (metric_count == 0 || metric_count > kMaxMetricSections) {
    fail("flat metric count " + std::to_string(metric_count) +
         " outside [1, " + std::to_string(kMaxMetricSections) + "]" +
         at_byte(kFlatHeaderOffset + 8));
  }
  if (piece_count == 0 ||
      piece_count > metric_count * 2 * kMaxRegionCorners) {
    fail("flat piece count " + std::to_string(piece_count) +
         " outside [1, " + std::to_string(metric_count * 2 * kMaxRegionCorners) +
         "]" + at_byte(kFlatHeaderOffset + 12));
  }

  // --- section table: kinds, sizes, alignment, contiguity, CRCs ------------
  std::size_t cursor = kFlatHeaderOffset + kFlatHeaderBytes + kTableBytes;
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    const std::size_t entry_off =
        kFlatHeaderOffset + kFlatHeaderBytes + i * kSectionEntryBytes;
    const auto kind = static_cast<Section>(i);
    const std::string_view name = section_name(kind);
    const std::uint32_t declared_kind = r.u32(entry_off, "section kind");
    if (declared_kind != i) {
      fail("section table entry " + std::to_string(i) + " declares kind " +
           std::to_string(declared_kind) + ", expected " + std::string(name) +
           at_byte(entry_off));
    }
    SectionExtent extent;
    extent.crc = r.u32(entry_off + 4, "section CRC");
    extent.offset = r.u64(entry_off + 8, "section offset");
    extent.bytes = r.u64(entry_off + 16, "section byte count");
    if (extent.offset % kFlatAlignment != 0) {
      fail("section " + std::string(name) + " offset " +
           std::to_string(extent.offset) + " is not 8-byte aligned" +
           at_byte(entry_off + 8));
    }
    if (extent.offset != cursor) {
      fail("section " + std::string(name) + " at byte " +
           std::to_string(extent.offset) + ", expected " +
           std::to_string(cursor) + " (sections must be contiguous)" +
           at_byte(entry_off + 8));
    }
    std::size_t expected = 0;
    bool exact = true;
    switch (kind) {
      case Section::kMetricRanges: expected = sizeof(MetricRange) * metric_count; break;
      case Section::kNameIndex: expected = sizeof(NameRef) * metric_count; break;
      case Section::kMetricInfo: expected = sizeof(MetricInfo) * metric_count; break;
      case Section::kStrings: exact = false; break;
      default: expected = sizeof(double) * piece_count; break;
    }
    if (exact && extent.bytes != expected) {
      fail("section " + std::string(name) + " has " +
           std::to_string(extent.bytes) + " byte(s), expected " +
           std::to_string(expected) + at_byte(entry_off + 16));
    }
    if (!exact && (extent.bytes < metric_count ||
                   extent.bytes > metric_count * kMaxNameBytes)) {
      fail("section strings has " + std::to_string(extent.bytes) +
           " byte(s) for " + std::to_string(metric_count) +
           " metric name(s)" + at_byte(entry_off + 16));
    }
    if (extent.bytes > footer_off || extent.offset > footer_off - extent.bytes) {
      fail("section " + std::string(name) + " overruns the footer" +
           at_byte(entry_off + 8));
    }
    if (verify == Verify::kFull) {
      const std::uint32_t crc =
          util::crc32(file.subspan(extent.offset, extent.bytes));
      if (crc != extent.crc) {
        fail("section " + std::string(name) + " CRC mismatch (stored " +
             std::to_string(extent.crc) + ", computed " + std::to_string(crc) +
             ")" + at_byte(extent.offset));
      }
    }
    layout.sections[i] = extent;
    cursor = align_up(extent.offset + extent.bytes);
  }
  if (cursor != footer_off) {
    fail("trailing garbage between the last section and the footer" +
         at_byte(cursor));
  }

  // --- semantic checks on the raw payloads ----------------------------------
  // Metric ranges must tile [0, piece_count) with a non-empty right region
  // each; the x1 column may hold +inf only at a right region's final piece.
  const SectionExtent& ranges = layout.section(Section::kMetricRanges);
  const SectionExtent& x0s = layout.section(Section::kX0);
  const SectionExtent& y0s = layout.section(Section::kY0);
  const SectionExtent& x1s = layout.section(Section::kX1);
  const SectionExtent& y1s = layout.section(Section::kY1);
  const SectionExtent& infos = layout.section(Section::kMetricInfo);
  std::size_t prev_end = 0;
  for (std::size_t m = 0; m < metric_count; ++m) {
    const std::size_t off = ranges.offset + m * sizeof(MetricRange);
    const std::uint32_t lb = r.u32(off, "left begin");
    const std::uint32_t le = r.u32(off + 4, "left end");
    const std::uint32_t rb = r.u32(off + 8, "right begin");
    const std::uint32_t re = r.u32(off + 12, "right end");
    const double left_max = r.f64(off + 16, "left max");
    const std::string where =
        "metric range " + std::to_string(m) + at_byte(off);
    if (!(lb <= le && le == rb && rb < re && re <= piece_count)) {
      fail(where + ": piece indices [" + std::to_string(lb) + ", " +
           std::to_string(le) + ") / [" + std::to_string(rb) + ", " +
           std::to_string(re) + ") are not an ordered tile of " +
           std::to_string(piece_count) + " piece(s)");
    }
    if (lb != prev_end) {
      fail(where + ": begins at piece " + std::to_string(lb) +
           ", previous range ended at " + std::to_string(prev_end));
    }
    prev_end = re;
    if (std::isnan(left_max) || std::isinf(left_max)) {
      fail(where + ": left max is not finite");
    }
    if (lb == le && left_max != 0.0) {
      fail(where + ": left max must be 0 when the left region is absent");
    }
    if (verify != Verify::kFull) continue;
    if (lb != le && !same_bits(left_max, r.f64(x1s.offset + 8 * (le - 1), "x1"))) {
      fail(where + ": left max is not the left region's last x1");
    }
    for (std::uint32_t i = lb; i < re; ++i) {
      const double x0 = r.f64(x0s.offset + 8 * i, "x0");
      const double y0 = r.f64(y0s.offset + 8 * i, "y0");
      const double x1 = r.f64(x1s.offset + 8 * i, "x1");
      const double y1 = r.f64(y1s.offset + 8 * i, "y1");
      const auto piece_fail = [&](const char* column, std::size_t col_off) {
        fail("section " + std::string(column) + " piece " +
             std::to_string(i) + ": value is not finite" +
             at_byte(col_off + 8 * i));
      };
      if (!std::isfinite(x0)) piece_fail("x0", x0s.offset);
      if (!std::isfinite(y0)) piece_fail("y0", y0s.offset);
      if (!std::isfinite(y1)) piece_fail("y1", y1s.offset);
      if (std::isnan(x1) || (std::isinf(x1) && (x1 < 0 || i + 1 != re))) {
        fail("section x1 piece " + std::to_string(i) +
             ": only a right region's final piece may be +inf" +
             at_byte(x1s.offset + 8 * i));
      }
    }
    // The apex intensity may be +inf (every training sample had zero
    // memory traffic); everything else in the record is a plain number.
    const std::size_t info_off = infos.offset + m * sizeof(MetricInfo);
    const double apex_x = r.f64(info_off, "apex intensity");
    const double apex_y = r.f64(info_off + 8, "apex throughput");
    if (std::isnan(apex_x) || (std::isinf(apex_x) && apex_x < 0) ||
        !std::isfinite(apex_y)) {
      fail("section metric-info metric " + std::to_string(m) +
           ": apex is not finite (intensity may be +inf)" + at_byte(info_off));
    }
  }
  if (prev_end != piece_count) {
    fail("metric ranges cover " + std::to_string(prev_end) + " of " +
         std::to_string(piece_count) + " piece(s)");
  }

  // Name index: contiguous (offset, length) records exactly covering the
  // strings section, each within the per-name cap.
  const SectionExtent& names = layout.section(Section::kNameIndex);
  const std::size_t strings_bytes = layout.section(Section::kStrings).bytes;
  std::size_t string_cursor = 0;
  for (std::size_t m = 0; m < metric_count; ++m) {
    const std::size_t off = names.offset + m * sizeof(NameRef);
    const std::uint32_t name_off = r.u32(off, "name offset");
    const std::uint32_t name_len = r.u32(off + 4, "name length");
    if (name_len == 0 || name_len > kMaxNameBytes) {
      fail("name " + std::to_string(m) + ": length " +
           std::to_string(name_len) + " outside [1, " +
           std::to_string(kMaxNameBytes) + "]" + at_byte(off + 4));
    }
    if (name_off != string_cursor ||
        strings_bytes - string_cursor < name_len) {
      fail("name " + std::to_string(m) +
           ": index is not a contiguous cover of the strings section" +
           at_byte(off));
    }
    string_cursor += name_len;
  }
  if (string_cursor != strings_bytes) {
    fail("strings section has " + std::to_string(strings_bytes) +
         " byte(s), the name index references " +
         std::to_string(string_cursor));
  }

  // --- whole-file CRC, last -------------------------------------------------
  // The catch-all for every byte the checks above do not pin down (the
  // magic padding, header fields). Checked after the per-section CRCs so
  // payload corruption reports the pinpoint section diagnostic rather than
  // this generic one. Skipped at kStructure: it is the one check whose cost
  // scales with table bytes, and readers of immutable published objects
  // already paid it at publish time.
  if (verify == Verify::kFull) {
    const std::uint32_t computed_crc = util::crc32(file.first(footer_off));
    if (computed_crc != stored_crc) {
      fail("whole-file CRC mismatch (stored " + std::to_string(stored_crc) +
           ", computed " + std::to_string(computed_crc) + ")" +
           at_byte(footer_off + 16));
    }
  }
  return layout;
}

FlatView map_flat(std::span<const std::byte> file, Verify verify) {
  if constexpr (std::endian::native != std::endian::little) {
    fail("reading an image requires a little-endian host");
  }
  if (reinterpret_cast<std::uintptr_t>(file.data()) % kFlatAlignment != 0) {
    fail("image storage is not 8-byte aligned (map the file)");
  }

  FlatView view;
  view.layout = check_flat_region(file, verify);
  const auto section = [&](Section s) {
    const SectionExtent& extent = view.layout.section(s);
    return file.subspan(extent.offset, extent.bytes);
  };
  const auto doubles = [&](Section s) {
    const auto bytes = section(s);
    return std::span<const double>(
        reinterpret_cast<const double*>(bytes.data()),
        bytes.size() / sizeof(double));
  };
  const std::size_t metric_count = view.layout.metric_count;
  view.ranges = std::span<const MetricRange>(
      reinterpret_cast<const MetricRange*>(section(Section::kMetricRanges).data()),
      metric_count);
  view.names = std::span<const NameRef>(
      reinterpret_cast<const NameRef*>(section(Section::kNameIndex).data()),
      metric_count);
  const auto strings = section(Section::kStrings);
  view.strings = std::string_view(
      reinterpret_cast<const char*>(strings.data()), strings.size());
  view.x0 = doubles(Section::kX0);
  view.y0 = doubles(Section::kY0);
  view.x1 = doubles(Section::kX1);
  view.y1 = doubles(Section::kY1);
  view.info = std::span<const MetricInfo>(
      reinterpret_cast<const MetricInfo*>(section(Section::kMetricInfo).data()),
      metric_count);
  return view;
}

std::vector<counters::Event> resolve_metrics(const FlatView& view) {
  std::vector<counters::Event> metrics;
  metrics.reserve(view.names.size());
  for (const NameRef& ref : view.names) {
    const std::string_view name = view.name(ref);
    const auto metric = counters::event_by_name(name);
    if (!metric) fail("unknown metric '" + std::string(name) + "'");
    if (!metrics.empty() && *metric <= metrics.back()) {
      fail("metric '" + std::string(name) +
           "' out of order (tables must ascend by event id)");
    }
    metrics.push_back(*metric);
  }
  return metrics;
}

Ensemble load_model_image(std::span<const std::byte> image) {
  const FlatView view = map_flat(image, Verify::kFull);
  const std::vector<counters::Event> metrics = resolve_metrics(view);
  const auto slice = [&view](std::uint32_t begin, std::uint32_t end) {
    std::vector<geom::LinearPiece> pieces;
    pieces.reserve(end - begin);
    for (std::uint32_t i = begin; i < end; ++i) {
      pieces.push_back({view.x0[i], view.y0[i], view.x1[i], view.y1[i]});
    }
    return pieces;
  };

  std::map<counters::Event, MetricRoofline> rooflines;
  for (std::size_t m = 0; m < metrics.size(); ++m) {
    const MetricRange& range = view.ranges[m];
    const MetricInfo& info = view.info[m];
    const std::string where =
        "metric '" + std::string(view.name(view.names[m])) + "'";
    // The left region is a knot chain: each piece starts exactly where the
    // previous one ended, or text v1 could not express it.
    std::vector<geom::LinearPiece> left_pieces =
        slice(range.left_begin, range.left_end);
    for (std::size_t i = 1; i < left_pieces.size(); ++i) {
      const geom::LinearPiece& prev = left_pieces[i - 1];
      if (!same_bits(left_pieces[i].x0, prev.x1) ||
          !same_bits(left_pieces[i].y0, prev.y1)) {
        fail(where + ": left region is not a continuous knot chain at piece " +
             std::to_string(range.left_begin + i));
      }
    }
    std::optional<geom::PiecewiseLinear> left;
    const char* region = "left";
    try {
      if (!left_pieces.empty()) left.emplace(std::move(left_pieces));
      region = "right";
      rooflines.emplace(
          metrics[m],
          MetricRoofline(std::move(left),
                         geom::PiecewiseLinear(
                             slice(range.right_begin, range.right_end)),
                         {info.apex_x, info.apex_y},
                         static_cast<std::size_t>(info.trained_on)));
    } catch (const std::exception& e) {
      fail(where + ": invalid " + region + " region: " + e.what());
    }
  }
  return Ensemble(std::move(rooflines));
}

std::string write_image(const FlatTables& tables) {
  const std::size_t metric_count = tables.names.size();
  const std::size_t piece_count = tables.x0.size();
  SPIRE_ASSERT(tables.ranges.size() == metric_count &&
                   tables.info.size() == metric_count,
               "write_image: per-metric table size mismatch");
  SPIRE_ASSERT(tables.y0.size() == piece_count &&
                   tables.x1.size() == piece_count &&
                   tables.y1.size() == piece_count,
               "write_image: segment table size mismatch");
  SPIRE_ASSERT(metric_count > 0 && piece_count > 0,
               "write_image: empty model");

  // --- payloads -------------------------------------------------------------
  std::array<std::string, kSectionCount> payloads;
  const auto payload = [&payloads](Section s) -> std::string& {
    return payloads[static_cast<std::size_t>(s)];
  };
  for (const MetricRange& range : tables.ranges) {
    std::string& p = payload(Section::kMetricRanges);
    put_u32(p, range.left_begin);
    put_u32(p, range.left_end);
    put_u32(p, range.right_begin);
    put_u32(p, range.right_end);
    put_f64(p, range.left_max);
  }
  for (const std::string_view name : tables.names) {
    SPIRE_ASSERT(!name.empty() && name.size() <= kMaxNameBytes,
                 "write_image: bad metric name length ", name.size());
    std::string& strings = payload(Section::kStrings);
    put_u32(payload(Section::kNameIndex),
            static_cast<std::uint32_t>(strings.size()));
    put_u32(payload(Section::kNameIndex),
            static_cast<std::uint32_t>(name.size()));
    strings.append(name);
  }
  const auto put_column = [&payload](Section s, std::span<const double> v) {
    for (const double d : v) put_f64(payload(s), d);
  };
  put_column(Section::kX0, tables.x0);
  put_column(Section::kY0, tables.y0);
  put_column(Section::kX1, tables.x1);
  put_column(Section::kY1, tables.y1);
  for (const MetricInfo& info : tables.info) {
    std::string& p = payload(Section::kMetricInfo);
    put_f64(p, info.apex_x);
    put_f64(p, info.apex_y);
    put_u64(p, info.trained_on);
  }

  // --- layout ---------------------------------------------------------------
  std::array<std::size_t, kSectionCount> offsets{};
  std::size_t cursor = kFlatHeaderOffset + kFlatHeaderBytes +
                       kSectionCount * kSectionEntryBytes;
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    offsets[i] = cursor;
    cursor = align_up(cursor + payloads[i].size());
  }
  const std::size_t file_size = cursor + kFooterBytes;

  // --- magic line, header, section table ------------------------------------
  std::string out;
  out.reserve(file_size);
  out.append(kModelImageMagic);
  out.resize(kFlatHeaderOffset, '\0');
  put_u64(out, kFlatMagic);
  put_u32(out, static_cast<std::uint32_t>(metric_count));
  put_u32(out, static_cast<std::uint32_t>(piece_count));
  put_u32(out, kSectionCount);
  put_u32(out, 0);
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    put_u32(out, i);
    put_u32(out, util::crc32(payloads[i]));
    put_u64(out, offsets[i]);
    put_u64(out, payloads[i].size());
  }
  for (std::uint32_t i = 0; i < kSectionCount; ++i) {
    out.resize(offsets[i], '\0');  // zero pad up to the 8-aligned offset
    out.append(payloads[i]);
  }
  out.resize(cursor, '\0');

  // --- footer ---------------------------------------------------------------
  const std::uint32_t file_crc = util::crc32(out);
  put_u64(out, kFlatHeaderOffset);
  put_u64(out, file_size);
  put_u32(out, file_crc);
  put_u32(out, 0);
  put_u64(out, kFooterMagic);
  SPIRE_ASSERT(out.size() == file_size, "write_image: layout arithmetic drift");
  return out;
}

}  // namespace spire::model::bin
