#include "serve/model_v3.h"

#include <fstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "spire/model_bin_v3.h"
#include "spire/model_io.h"
#include "util/contract.h"

namespace spire::serve {

using model::v3::MetricRange;

std::string model_v3_bytes(const model::Ensemble& ensemble) {
  std::string out;
  out.append(model::kModelBinMagicV3);
  model::append_model_bin_body(out, ensemble);

  // The flatten walk: every roofline's pieces, left region then right,
  // appended to shared endpoint columns. std::map iteration = ascending
  // Event order, the same order Ensemble::estimate materializes its
  // per-metric tasks in.
  std::size_t pieces = 0;
  for (const auto& [metric, roofline] : ensemble.rooflines()) {
    if (roofline.left().has_value()) pieces += roofline.left()->pieces().size();
    pieces += roofline.right().pieces().size();
  }
  std::vector<double> x0, y0, x1, y1;
  x0.reserve(pieces);
  y0.reserve(pieces);
  x1.reserve(pieces);
  y1.reserve(pieces);
  std::vector<std::string_view> names;
  std::vector<MetricRange> ranges;
  names.reserve(ensemble.rooflines().size());
  ranges.reserve(ensemble.rooflines().size());

  const auto append_region = [&](const geom::PiecewiseLinear& region) {
    for (const geom::LinearPiece& p : region.pieces()) {
      x0.push_back(p.x0);
      y0.push_back(p.y0);
      x1.push_back(p.x1);
      y1.push_back(p.y1);
    }
  };
  for (const auto& [metric, roofline] : ensemble.rooflines()) {
    MetricRange range;
    range.left_begin = static_cast<std::uint32_t>(x0.size());
    if (roofline.left().has_value()) {
      append_region(*roofline.left());
      range.left_max = roofline.left()->domain_max();
    }
    range.left_end = static_cast<std::uint32_t>(x0.size());
    range.right_begin = range.left_end;
    append_region(roofline.right());
    range.right_end = static_cast<std::uint32_t>(x0.size());
    SPIRE_ASSERT(range.right_end > range.right_begin,
                 "compile: empty right region for metric ",
                 counters::event_name(metric));
    names.push_back(counters::event_name(metric));
    ranges.push_back(range);
  }
  model::v3::append_flat(out, {names, ranges, x0, y0, x1, y1});
  return out;
}

void save_model_v3_file(const model::Ensemble& ensemble,
                        const std::string& path) {
  const std::string bytes = model_v3_bytes(ensemble);
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("model-v3: cannot write " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("model-v3: write failed: " + path);
}

}  // namespace spire::serve
