// The binary-model sniff and the any-format file loader (see model_io.h).
#include <fstream>

#include "spire/model_bin.h"
#include "spire/model_io.h"
#include "util/mmap_file.h"

namespace spire::model {

int binary_model_version(std::string_view head) {
  constexpr std::string_view kPrefix = "spire-model-bin v";
  if (!head.starts_with(kPrefix)) return 0;
  // Nine digits at most, so the version always fits an int.
  const std::string_view rest = head.substr(kPrefix.size(), 10);
  int version = 0;
  std::size_t digits = 0;
  while (digits < rest.size() && digits < 9 && rest[digits] >= '0' &&
         rest[digits] <= '9') {
    version = version * 10 + (rest[digits] - '0');
    ++digits;
  }
  const bool well_formed = digits > 0 && rest[0] != '0' &&
                           digits < rest.size() && rest[digits] == '\n';
  return well_formed ? version : 0;
}

int binary_model_file_version(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::string head(32, '\0');
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  head.resize(static_cast<std::size_t>(in.gcount()));
  return binary_model_version(head);
}

std::string unsupported_binary_version(int version) {
  return "binary model format v" + std::to_string(version) +
         " is not supported (this build reads v" +
         std::to_string(kModelBinFormatVersion) +
         "); recompile the model from its text v1 form with `spire_cli "
         "compile`";
}

Ensemble load_model_any_file(const std::string& path) {
  if (binary_model_file_version(path) == 0) return load_model_file(path);
  const util::MmapFile image = util::MmapFile::open_readonly(path);
  return bin::load_model_image(image.bytes());
}

}  // namespace spire::model
