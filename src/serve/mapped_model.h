// The one serving model type: a binary v4 image served zero-copy.
//
// Two ways to get one, one representation after that:
//
//  * map_file maps a v4 image read-only. The image IS the tables
//    (spire/model_bin.h), so open pays a page fault instead of a
//    parse: the bytes are validated BEFORE any span is formed and then
//    served straight out of the mapping. The default open runs the
//    structure tier — footer/header/section geometry against the fstat'd
//    size, range tiling, name-index cover; everything a span could be
//    formed or indexed from, in O(sections + metrics) — because published
//    artifacts are content-addressed and fully CRC-verified when they
//    enter the registry. Pass Verify::kFull to re-verify every byte
//    (section CRCs, whole-file CRC, value policy) on an artifact of
//    unknown provenance. Open cost therefore never scales with table
//    bytes, cold-start drops to the first faulted pages, and concurrent
//    processes serving the same artifact share one page-cache copy.
//  * compile serializes a live Ensemble with the image writer
//    (serve/model_v3.h) into a read-only anonymous mapping and opens it
//    through the same code as map_file. A compiled model is therefore
//    byte-for-byte the artifact the same ensemble would publish.
//
// The only load-time heap use is the resolved metric-Event vector (a few
// bytes per metric); every per-table structure is a span into the image.
// Evaluation delegates to serve/model_eval.h, so estimates, rankings, skip
// reasons, and thrown errors are bit-identical to Ensemble::estimate at
// any thread count.
//
// Immutable after construction; safe for concurrent estimate calls without
// locks. Moving a MappedModel does not move the mapping, so the internal
// views survive moves.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "counters/events.h"
#include "sampling/dataset_view.h"
#include "serve/model_eval.h"
#include "spire/ensemble.h"
#include "spire/model_bin.h"
#include "util/mmap_file.h"

namespace spire::serve {

class MappedModel {
 public:
  /// Maps and validates a binary v4 image. Throws std::runtime_error —
  /// "mmap: ..." for filesystem failures, "model-bin: ..." (naming section
  /// and byte offset) for an image of another version and for any defect
  /// the chosen tier covers: structural
  /// damage (truncation, resized or reshaped sections) at either tier,
  /// plus every CRC and value-policy violation at Verify::kFull. Never
  /// SIGBUSes on a file that passed validation and is not modified
  /// afterwards (registry objects are immutable-once-published).
  static MappedModel map_file(
      const std::string& path,
      model::bin::Verify verify = model::bin::Verify::kStructure);

  /// Flattens a trained ensemble into an in-memory v4 image (exactly
  /// model_v3_bytes(ensemble)) and serves it. The ensemble can be
  /// discarded afterwards. Throws what the image writer throws (an empty
  /// right region, an over-cap model).
  static MappedModel compile(const model::Ensemble& ensemble);

  /// Bit-identical to Ensemble::estimate: same throughput/ranking/skipped
  /// values and the same std::invalid_argument when the workload shares no
  /// metric. Evaluates through the direct path (serve::estimate).
  model::Estimate estimate(sampling::DatasetView workload,
                           model::Merge merge = model::Merge::kTimeWeighted) const;

  /// Metrics in table order, ascending by event id (validated at open).
  const std::vector<counters::Event>& metrics() const { return metrics_; }

  std::size_t metric_count() const { return metrics_.size(); }
  std::size_t piece_count() const { return view_.x0.size(); }

  /// The mapped artifact's path ("<memory>" for a compiled image) and its
  /// bytes.
  const std::string& path() const { return file_.path(); }
  std::span<const std::byte> bytes() const { return file_.bytes(); }

  /// The tables in the evaluator shape. All spans except `metrics` point
  /// directly into the image.
  EvalTables tables() const {
    return {metrics_, view_.ranges, view_.x0, view_.y0, view_.x1, view_.y1};
  }

  /// The validated raw view (layout, name strings, the per-metric apex
  /// records) for diagnostics and tooling.
  const model::bin::FlatView& view() const { return view_; }

 private:
  MappedModel() = default;

  /// map_file and compile's shared tail: validates `image` at `verify`,
  /// forms the view, and resolves the metric names.
  static MappedModel open_image(util::MmapFile image,
                                model::bin::Verify verify);

  util::MmapFile file_;                   // a file or an anonymous image
  model::bin::FlatView view_;              // spans into file_
  std::vector<counters::Event> metrics_;  // resolved from the strings section
};

}  // namespace spire::serve
