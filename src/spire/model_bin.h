// Binary model format v4: the one binary model image.
//
// A v4 image holds each metric's roofline exactly once, as the flattened
// serving tables, laid out so a reader can point spans straight into an
// mmap of the file — ZERO deserialization — and so the Ensemble can be
// rebuilt from the same bytes (load_model_image):
//
//   "spire-model-bin v4\n"                     19 bytes
//   zero padding to byte 24
//   FlatHeader                                 24 bytes at byte 24
//   SectionEntry x 8                           24 bytes each
//   section payloads                           each 8-aligned, zero-padded
//   Footer                                     32 bytes, last in file
//
// Sections, in file order (doubles are raw IEEE-754 little-endian bits):
//   metric-ranges  MetricRange x M   per-metric [begin,end) piece indices
//   name-index     NameRef x M       (offset, length) into `strings`
//   strings        bytes             metric names, concatenated in order
//   x0,y0,x1,y1    f64 x P           shared SoA segment-endpoint tables
//   metric-info    MetricInfo x M    apex and trained_on per metric
//
// A metric's left region is the pieces [left_begin, left_end), a
// continuous knot chain; its right region is [right_begin, right_end). The
// evaluator reads only the ranges and the endpoint columns; metric-info
// carries what the Ensemble needs beyond them, so text v1 -> v4 -> text v1
// is lossless.
//
// Integrity model — two tiers (see Verify below), both running BEFORE any
// pointer or span is formed:
//   * STRUCTURE (every open): Footer.file_size must equal the actual byte
//     count (for a mapping: the fstat size re-checked at map time) —
//     truncation or growth after write is caught structurally, never by a
//     SIGBUS; every section offset/byte-count is bounds- and
//     alignment-checked against file_size; metric ranges must tile the
//     piece tables and the name index must exactly cover the strings
//     section, so no validated span can be indexed out of bounds. All of
//     this is O(sections + metrics) — no pass over the table bytes, which
//     is what lets a mapped open stay cheap at any artifact size.
//   * FULL (publish / strict load / lint): everything above, plus each
//     section's CRC (pinpoint diagnostics), the whole-file CRC covering
//     every byte before the footer (any bit flip anywhere is detected),
//     and the value policy (NaN/inf placement, left_max consistency, x1
//     ascending within each region: the evaluators' segment search needs
//     it).
// Every failure throws std::runtime_error("model-bin: ...") naming the
// section and absolute byte offset. An image of another binary version is
// rejected with unsupported_binary_version's text.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "counters/events.h"
#include "spire/ensemble.h"

namespace spire::model::bin {

// Hardening caps. kMaxRegionCorners also bounds the text reader's region
// counts (model::read_text_model).
inline constexpr std::size_t kMaxMetricSections = 65'536;
inline constexpr std::size_t kMaxRegionCorners = 65'536;
inline constexpr std::size_t kMaxNameBytes = 256;

inline constexpr std::uint64_t kFlatMagic = 0x34544C4652495053ull;    // "SPIRFLT4"
inline constexpr std::uint64_t kFooterMagic = 0x444E453452495053ull;  // "SPIR4END"
inline constexpr std::size_t kFlatAlignment = 8;
inline constexpr std::size_t kFlatHeaderOffset = 24;
inline constexpr std::size_t kFlatHeaderBytes = 24;
inline constexpr std::size_t kSectionEntryBytes = 24;
inline constexpr std::size_t kFooterBytes = 32;

/// Section kinds, in required file order.
enum class Section : std::uint32_t {
  kMetricRanges = 0,
  kNameIndex = 1,
  kStrings = 2,
  kX0 = 3,
  kY0 = 4,
  kX1 = 5,
  kY1 = 6,
  kMetricInfo = 7,
};
inline constexpr std::uint32_t kSectionCount = 8;

std::string_view section_name(Section section);

/// One metric's slice of the shared segment tables: half-open piece index
/// ranges plus the cached left-region domain max. This struct IS the
/// on-disk record of the metric-ranges section (and the in-memory row the
/// serving evaluators iterate), so a mapped reader's ranges span points
/// directly at the file bytes.
struct MetricRange {
  std::uint32_t left_begin = 0;
  std::uint32_t left_end = 0;
  std::uint32_t right_begin = 0;
  std::uint32_t right_end = 0;
  double left_max = 0.0;  // left domain_max; 0 when the left region is absent

  bool has_left() const { return left_begin != left_end; }
};
static_assert(sizeof(MetricRange) == 24 && alignof(MetricRange) == 8,
              "MetricRange must match the metric-ranges record layout");

/// One name-index record: a metric name's (offset, length) in `strings`.
struct NameRef {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
};
static_assert(sizeof(NameRef) == 8,
              "NameRef must match the name-index record layout");

/// One metric-info record: the roofline fields the tables do not hold.
struct MetricInfo {
  double apex_x = 0.0;  // apex intensity; may be +inf
  double apex_y = 0.0;  // apex throughput
  std::uint64_t trained_on = 0;
};
static_assert(sizeof(MetricInfo) == 24 && alignof(MetricInfo) == 8,
              "MetricInfo must match the metric-info record layout");

struct SectionExtent {
  std::size_t offset = 0;  // absolute file offset, 8-aligned
  std::size_t bytes = 0;   // payload bytes (excluding inter-section padding)
  std::uint32_t crc = 0;
};

/// The byte-level validated layout of an image.
struct FlatLayout {
  std::size_t file_size = 0;  // total image bytes, footer included
  std::uint32_t metric_count = 0;
  std::uint32_t piece_count = 0;
  std::array<SectionExtent, kSectionCount> sections{};

  const SectionExtent& section(Section s) const {
    return sections[static_cast<std::size_t>(s)];
  }
};

/// Verification tiers (see the integrity model above). kStructure is every
/// check required for memory safety of a zero-copy reader, in
/// O(sections + metrics); kFull adds the per-byte work — section CRCs,
/// whole-file CRC, value policy. Images are fully verified when they enter
/// the system (publish, strict load, lint); readers of immutable published
/// objects open at kStructure so cold-start cost never scales with table
/// bytes.
enum class Verify { kStructure, kFull };

/// Validates `file` — an entire image, magic line included. All reads are
/// alignment-safe and endianness-independent; no allocation is
/// proportional to file contents. Throws std::runtime_error
/// ("model-bin: ...") with the section and absolute byte offset on any
/// defect.
FlatLayout check_flat_region(std::span<const std::byte> file,
                             Verify verify = Verify::kFull);

/// Typed zero-copy view over a validated image. Spans point into the
/// caller's (typically mmap'd) buffer; no table is copied.
struct FlatView {
  FlatLayout layout;
  std::span<const MetricRange> ranges;
  std::span<const NameRef> names;
  std::string_view strings;
  std::span<const double> x0, y0, x1, y1;
  std::span<const MetricInfo> info;

  std::string_view name(const NameRef& ref) const {
    return strings.substr(ref.offset, ref.length);
  }
};

/// check_flat_region plus the typed view. Also requires a little-endian
/// IEEE-754 host and 8-aligned storage (an mmap base is page-aligned, and
/// every section offset is 8-aligned, so both hold for mapped files).
/// Throws std::runtime_error("model-bin: ...").
FlatView map_flat(std::span<const std::byte> file,
                  Verify verify = Verify::kFull);

/// Resolves the name index to Events. Throws std::runtime_error
/// ("model-bin: ...") on an unknown name or when the names do not ascend
/// by event id — the order the writer emits (std::map iteration) and the
/// order the bit-identity contract's ranking accumulation assumes.
std::vector<counters::Event> resolve_metrics(const FlatView& view);

/// Rebuilds the Ensemble from an image, fully verified first: each
/// metric's left and right PiecewiseLinear come from its piece slices, the
/// apex and trained_on from metric-info. Lossless: model_v3_bytes of the
/// result reproduces `image`. Throws std::runtime_error("model-bin: ...")
/// on any defect, including a left region that is not a continuous chain
/// (text v1 could not express it).
Ensemble load_model_image(std::span<const std::byte> image);

/// The writer's input: flattened tables spanning caller-owned storage
/// (built by serve::model_v3_bytes, the one flatten walk, which
/// guarantees file tables equal in-memory tables by construction).
struct FlatTables {
  std::span<const std::string_view> names;  // per metric, file order
  std::span<const MetricRange> ranges;      // parallel to names
  std::span<const MetricInfo> info;         // parallel to names
  std::span<const double> x0, y0, x1, y1;   // shared segment tables
};

/// The complete image of `tables`: magic line, header, section table,
/// payloads and footer.
std::string write_image(const FlatTables& tables);

}  // namespace spire::model::bin
