// Read-only memory mapping of a whole file, RAII-owned.
//
// The serving split's cold-start killer is parse-and-copy: loading a v2
// artifact deserializes every table into heap vectors before the first
// estimate. MmapFile is the substrate for the zero-copy alternative: map
// the artifact once, page-cache shared across every process serving the
// same model, and let serve::MappedModel point spans straight into it.
//
// Hardening against files that change after open (a truncation would turn
// every later read into SIGBUS): the size is captured with fstat on the
// open descriptor, the map is created for exactly that size, and fstat is
// re-checked AFTER the mapping exists — a file that shrank in the window
// between open and map is rejected up front instead of faulting later.
// Registry objects are immutable-once-published (rename-on-publish), so a
// mapping resolved through the registry can never see an in-place rewrite.
//
// from_bytes builds the same object over a read-only anonymous mapping, so
// an image produced in memory (serve::MappedModel::compile) is stored,
// freed and moved exactly like a file mapping.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

namespace spire::util {

class MmapFile {
 public:
  /// An empty mapping (no bytes).
  MmapFile() = default;

  /// Maps `path` read-only in its entirety. Throws std::runtime_error
  /// ("mmap: ...") when the file cannot be opened, is empty, cannot be
  /// mapped, or changes size while being mapped.
  static MmapFile open_readonly(const std::string& path);

  /// Copies `bytes` into a fresh anonymous mapping and seals it read-only.
  /// path() is "<memory>". Throws std::runtime_error ("mmap: ...") when
  /// `bytes` is empty or the mapping cannot be created.
  static MmapFile from_bytes(std::string_view bytes);

  ~MmapFile();
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// The mapped bytes. The span (and any view derived from it) stays valid
  /// for the lifetime of this object; moving the object does not move the
  /// mapping, so derived views survive moves.
  std::span<const std::byte> bytes() const {
    return {static_cast<const std::byte*>(data_), size_};
  }

  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  MmapFile(void* data, std::size_t size, std::string path)
      : data_(data), size_(size), path_(std::move(path)) {}

  void* data_ = nullptr;
  std::size_t size_ = 0;
  std::string path_;
};

}  // namespace spire::util
