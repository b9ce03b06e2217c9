#include "util/mmap_file.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/posix_io.h"

namespace spire::util {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("mmap: " + path + ": " + what);
}

}  // namespace

MmapFile MmapFile::open_readonly(const std::string& path) {
  const int fd = open_retry(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail(path, "cannot open");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail(path, "fstat failed");
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    fail(path, "not a regular file");
  }
  if (st.st_size <= 0) {
    ::close(fd);
    fail(path, "empty file");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (data == MAP_FAILED) {
    ::close(fd);
    fail(path, "mmap failed");
  }
  // Re-check the size now that the mapping exists: a file truncated between
  // fstat and mmap would SIGBUS on first touch past the new EOF. The
  // descriptor still references the same inode, so this closes that window.
  struct stat verify{};
  const bool shrank =
      ::fstat(fd, &verify) != 0 || verify.st_size != st.st_size;
  ::close(fd);
  if (shrank) {
    ::munmap(data, size);
    fail(path, "file size changed while mapping (concurrent truncation?)");
  }
  return MmapFile(data, size, path);
}

MmapFile MmapFile::from_bytes(std::string_view bytes) {
  const std::string path = "<memory>";
  if (bytes.empty()) fail(path, "empty image");
  void* data = ::mmap(nullptr, bytes.size(), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (data == MAP_FAILED) fail(path, "mmap failed");
  std::memcpy(data, bytes.data(), bytes.size());
  if (::mprotect(data, bytes.size(), PROT_READ) != 0) {
    ::munmap(data, bytes.size());
    fail(path, "mprotect failed");
  }
  return MmapFile(data, bytes.size(), path);
}

MmapFile::~MmapFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      path_(std::move(other.path_)) {}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    // tmp adopts the current mapping and unmaps it on scope exit.
    MmapFile tmp(std::move(other));
    std::swap(data_, tmp.data_);
    std::swap(size_, tmp.size_);
    std::swap(path_, tmp.path_);
  }
  return *this;
}

}  // namespace spire::util
