#include "lint/model_source.h"

#include <exception>
#include <fstream>
#include <sstream>

#include "spire/model_bin.h"
#include "util/mmap_file.h"

namespace spire::lint {

RawModel parse_raw_model(std::istream& in) {
  RawModel raw;
  static_cast<model::TextModel&>(raw) = model::read_text_model(in);
  return raw;
}

namespace {

/// v4 lint path: open at the structure tier, verify in full, rebuild the
/// Ensemble, then lint its lossless text form.
RawModel parse_raw_image(const std::string& path) {
  RawModel raw;
  raw.binary = true;
  raw.binary_version = model::kModelBinFormatVersion;
  std::stringstream text;
  try {
    const util::MmapFile image = util::MmapFile::open_readonly(path);
    model::bin::check_flat_region(image.bytes(), model::bin::Verify::kStructure);
    try {
      model::bin::check_flat_region(image.bytes(), model::bin::Verify::kFull);
    } catch (const std::exception& e) {
      raw.flat_issues.push_back(e.what());
      return raw;
    }
    model::save_model(model::bin::load_model_image(image.bytes()), text);
  } catch (const std::exception& e) {
    raw.binary_error = e.what();
    return raw;
  }
  raw = parse_raw_model(text);
  raw.binary = true;
  raw.binary_version = model::kModelBinFormatVersion;
  return raw;
}

}  // namespace

RawModel parse_raw_model_file(const std::string& path) {
  if (const int version = model::binary_model_file_version(path)) {
    if (version == model::kModelBinFormatVersion) return parse_raw_image(path);
    RawModel raw;
    raw.binary = true;
    raw.binary_version = version;
    return raw;
  }
  std::ifstream in(path);
  if (!in) {
    RawModel model;
    model.issues.push_back({0, "cannot read " + path});
    return model;
  }
  return parse_raw_model(in);
}

}  // namespace spire::lint
