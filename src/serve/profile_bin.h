// spire-profile-bin v1: the zero-copy binary workload-profile format.
//
// The serving hot path used to pay a full text-CSV parse per request —
// number formatting on the client, from_chars plus per-series allocation on
// the server — even though both ends already hold the samples as packed
// doubles. This format ships them as what they are: little-endian per-metric
// t/w/m column triples that the server reads through std::span views
// STRAIGHT out of the request payload and hands to the batch kernel, with
// no Dataset materialization and no string copies.
//
// Layout (all integers little-endian; offsets from byte 0 of the profile):
//
//   header (40 bytes):
//     [0]  u64 magic         "SPIRPRF1"
//     [8]  u32 version       = 1
//     [12] u32 metric_count
//     [16] u64 total_samples
//     [24] u32 names_bytes   raw concatenated-name bytes (before padding)
//     [28] u32 meta_crc      crc32(directory || padded names)
//     [32] u32 samples_crc   crc32(samples section)
//     [36] u32 reserved      = 0
//   directory (metric_count x 16 bytes):
//     u32 name_len | u32 reserved = 0 | u64 sample_count
//   names:   the metric names concatenated in directory order,
//            zero-padded to the next 8-byte boundary
//   samples: total_samples x 24-byte {f64 t, f64 w, f64 m} triples,
//            concatenated in directory order (8-aligned from byte 0)
//
// Like the binary model formats, the parser is the attack surface: every
// count and length is bounded and cross-checked against the real byte size
// BEFORE any allocation or pointer is formed, the two CRCs catch bit
// corruption, and every rejection is a std::runtime_error whose message
// starts with "profile-bin:" and names the failing section and absolute
// byte offset. The encoding is canonical — metrics unique and in catalog
// order, padding zeroed — so compile() is deterministic and CSV <-> binary
// conversion is lossless (doubles travel bit-exact; the CSV side prints
// precision 17, which round-trips every double).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "counters/events.h"
#include "sampling/dataset.h"
#include "sampling/dataset_view.h"
#include "sampling/sample.h"

namespace spire::serve::profile_bin {

/// "SPIRPRF1" read as a little-endian u64.
inline constexpr std::uint64_t kMagic = 0x3146525052495053ULL;
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kHeaderBytes = 40;
inline constexpr std::size_t kDirEntryBytes = 16;
inline constexpr std::size_t kSampleBytes = 24;

/// Sections, for diagnostics: every rejection names the section it was
/// validating and the absolute byte offset of the defect.
enum class Section { kHeader, kDirectory, kNames, kSamples };
const char* section_name(Section section);

/// Hard bounds the parser enforces before sizing anything. Defaults suit
/// the CLI; the server derives these from its protocol Limits.
struct Limits {
  std::size_t max_metrics = counters::kEventCount;
  std::size_t max_samples = 1u << 24;  // 16M samples = 384 MiB of payload
  std::size_t max_name_bytes = 128;
};

/// Verification tiers, mirroring the model image's (spire/model_bin.h):
/// kStructure is the pure bounds/cross-check pass (O(sections), no data
/// read); kFull adds the two CRCs (O(bytes), still allocation-free).
enum class Verify { kStructure, kFull };

/// The parse result: a DatasetView whose per-metric spans alias the caller's
/// profile bytes (which must stay alive and unmodified for the view's
/// lifetime). When the buffer's samples section is not 8-aligned — possible
/// only for buffers not produced by our own framing, which pads — the
/// samples are copied once into owned storage instead of aliased, so the
/// view is always safe to evaluate through.
class ProfileView {
 public:
  ProfileView() = default;

  const sampling::DatasetView& view() const { return view_; }
  std::size_t samples() const { return view_.size(); }
  bool zero_copy() const { return owned_.empty(); }

 private:
  friend ProfileView parse(std::string_view, const Limits&, Verify);

  std::vector<sampling::Sample> owned_;  // misaligned-buffer fallback only
  sampling::DatasetView view_;
};

/// True when `bytes` starts with the profile magic (cheap format sniff).
bool looks_like(std::string_view bytes);

/// Canonical encode: metrics in catalog order (DatasetView guarantees it),
/// one contiguous column run per metric, CRCs filled in. Deterministic —
/// byte-identical output for equal inputs.
std::string compile(const sampling::DatasetView& data);

/// Bounded parse into a zero-copy view. Throws std::runtime_error
/// ("profile-bin: ..." naming section + offset) on any defect.
ProfileView parse(std::string_view bytes, const Limits& limits = {},
                  Verify verify = Verify::kFull);

/// Binary -> Dataset, for CSV round-tripping (`spire_cli profile compile`).
sampling::Dataset decompile(std::string_view bytes, const Limits& limits = {});

}  // namespace spire::serve::profile_bin
