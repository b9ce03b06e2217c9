// Binary model format v3: the flattened-tables wire layout.
//
// v3 is a strict superset of v2. The file opens with the v2 payload (magic
// line aside, byte-identical encoding: metric count + per-metric sections),
// so the stream deserializer keeps working; it then appends the flattened
// serving tables, laid out so a reader can point spans straight into an
// mmap of the file — ZERO deserialization:
//
//   "spire-model-bin v3\n"                     19 bytes
//   u32 metric count + v2 metric sections      (identical to v2)
//   zero padding to the next 8-byte boundary
//   FlatHeader                                 24 bytes, 8-aligned
//   SectionEntry x 9                           24 bytes each
//   section payloads                           each 8-aligned, zero-padded
//   Footer                                     32 bytes, last in file
//
// Sections, in file order (doubles are raw IEEE-754 little-endian bits):
//   metric-ranges  MetricRange x M   per-metric [begin,end) piece indices
//   name-index     NameRef x M       (offset, length) into `strings`
//   strings        bytes             metric names, concatenated in order
//   x0,y0,x1,y1    f64 x P           shared SoA segment-endpoint tables
//   slopes         f64 x P           (y1-y0)/(x1-x0); 0 for vertical/inf
//   intercepts     f64 x P           y0 - slope*x0; y0 for vertical/inf
//
// Evaluation uses the ENDPOINT tables only — the bit-identity contract
// replays LinearPiece::at's exact arithmetic. slopes/intercepts are
// precomputed convenience tables for downstream fast paths and are
// CRC-protected like everything else, but never consulted by the
// bit-identical evaluator.
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
//     and the per-piece value policy (NaN/inf placement).
// Every failure throws std::runtime_error("model-v3: ...") naming the
// section and absolute byte offset.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace spire::model::v3 {

// Shared hardening caps (the v2 loader enforces the same bounds).
inline constexpr std::size_t kMaxMetricSections = 65'536;
inline constexpr std::size_t kMaxRegionCorners = 65'536;
inline constexpr std::size_t kMaxNameBytes = 256;

inline constexpr std::uint64_t kFlatMagic = 0x33544C4652495053ull;    // "SPIRFLT3"
inline constexpr std::uint64_t kFooterMagic = 0x444E453352495053ull;  // "SPIR3END"
inline constexpr std::size_t kFlatAlignment = 8;
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
  kSlopes = 7,
  kIntercepts = 8,
};
inline constexpr std::uint32_t kSectionCount = 9;

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
              "MetricRange must match the v3 metric-ranges record layout");

/// One name-index record: a metric name's (offset, length) in `strings`.
struct NameRef {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
};
static_assert(sizeof(NameRef) == 8,
              "NameRef must match the v3 name-index record layout");

struct SectionExtent {
  std::size_t offset = 0;  // absolute file offset, 8-aligned
  std::size_t bytes = 0;   // payload bytes (excluding inter-section padding)
  std::uint32_t crc = 0;
};

/// The byte-level validated layout of a v3 artifact's flat region.
struct FlatLayout {
  std::size_t flat_offset = 0;  // absolute offset of the FlatHeader
  std::size_t file_size = 0;    // total artifact bytes, footer included
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
/// whole-file CRC, per-piece value policy. Artifacts are fully verified
/// when they enter the system (publish, strict load, lint); readers of
/// immutable published objects open at kStructure so cold-start cost never
/// scales with table bytes.
enum class Verify { kStructure, kFull };

/// Validates the flat region + footer that occupy the tail of a v3
/// artifact. `region` holds the artifact bytes [region_base, file_size);
/// `crc_before_region` is the streaming CRC state (util::crc32_init() /
/// crc32_update()) of the bytes before the region, so the whole-file CRC
/// can be verified regardless of how the caller obtained the tail (it is
/// ignored at Verify::kStructure). All reads are alignment-safe and
/// endianness-independent; no allocation is proportional to file contents.
/// Throws std::runtime_error("model-v3: ...") with the section and
/// absolute byte offset on any defect.
FlatLayout check_flat_region(std::span<const std::byte> region,
                             std::size_t region_base,
                             std::uint32_t crc_before_region,
                             Verify verify = Verify::kFull);

/// Typed zero-copy view over a fully validated artifact. Spans point into
/// the caller's (typically mmap'd) buffer; no table is copied.
struct FlatView {
  FlatLayout layout;
  std::span<const MetricRange> ranges;
  std::span<const NameRef> names;
  std::string_view strings;
  std::span<const double> x0, y0, x1, y1, slopes, intercepts;

  std::string_view name(const NameRef& ref) const {
    return strings.substr(ref.offset, ref.length);
  }
};

/// Validates `file` — an entire v3 artifact, magic line included — and
/// forms the typed view. Beyond check_flat_region this also requires a
/// little-endian IEEE-754 host and 8-aligned storage (an mmap base is
/// page-aligned, and every section offset is 8-aligned, so both hold for
/// mapped files). Throws std::runtime_error("model-v3: ...").
FlatView map_flat(std::span<const std::byte> file,
                  Verify verify = Verify::kFull);

/// The writer's input: flattened tables spanning caller-owned storage
/// (built by serve::model_v3_bytes, the one flatten walk, which
/// guarantees file tables equal in-memory tables by construction).
struct FlatTables {
  std::span<const std::string_view> names;  // per metric, file order
  std::span<const MetricRange> ranges;      // parallel to names
  std::span<const double> x0, y0, x1, y1;   // shared segment tables
};

/// Appends padding + FlatHeader + section table + payloads + Footer to
/// `out`, which must already hold the v3 magic and the v2 payload. Derives
/// the slopes/intercepts tables from the endpoints.
void append_flat(std::string& out, const FlatTables& tables);

}  // namespace spire::model::v3
