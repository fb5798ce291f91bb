#include "io/mmap_io.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "io/binary_io.hpp"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define THRIFTY_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define THRIFTY_HAVE_MMAP 0
#endif

namespace thrifty::io {

bool mmap_supported() { return THRIFTY_HAVE_MMAP != 0; }

#if THRIFTY_HAVE_MMAP

bool advise_range(const void* mapping, std::uint64_t mapping_bytes,
                  std::uint64_t offset, std::uint64_t length,
                  MapAdvice advice) {
  if (mapping == nullptr || offset >= mapping_bytes) return false;
  length = std::min(length, mapping_bytes - offset);
  if (length == 0) return false;
  // madvise requires a page-aligned start address: round the offset down
  // to the page holding the first requested byte and extend the length
  // so the advised region still covers the last one.
  const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t aligned_offset = (offset / page) * page;
  const std::uint64_t aligned_length = length + (offset - aligned_offset);
  int kind = MADV_NORMAL;
  switch (advice) {
    case MapAdvice::kWillNeed:
      kind = MADV_WILLNEED;
      break;
    case MapAdvice::kDontNeed:
      kind = MADV_DONTNEED;
      break;
    case MapAdvice::kSequential:
      kind = MADV_SEQUENTIAL;
      break;
    case MapAdvice::kNormal:
      kind = MADV_NORMAL;
      break;
  }
  void* address =
      const_cast<char*>(static_cast<const char*>(mapping)) + aligned_offset;
  return ::madvise(address, static_cast<std::size_t>(aligned_length),
                   kind) == 0;
}

namespace {

/// RAII read-only file mapping.  The descriptor is closed as soon as the
/// mapping exists (the mapping holds its own reference to the inode).
class MappedFile {
 public:
  MappedFile(const std::string& path, const MmapOptions& options) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      throw IoError(IoErrorKind::kOpenFailed, "cannot open for read", path);
    }
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      throw IoError(IoErrorKind::kOpenFailed, "cannot stat", path);
    }
    size_ = static_cast<std::uint64_t>(st.st_size);
    if (size_ > 0) {
      void* mapping = ::mmap(nullptr, static_cast<std::size_t>(size_),
                             PROT_READ, MAP_PRIVATE, fd, 0);
      if (mapping == MAP_FAILED) {
        ::close(fd);
        throw IoError(IoErrorKind::kOpenFailed, "mmap failed", path);
      }
      data_ = static_cast<const char*>(mapping);
      if (options.sequential) {
        advise_range(mapping, size_, 0, size_, MapAdvice::kSequential);
      }
      if (options.willneed) {
        advise_range(mapping, size_, 0, size_, MapAdvice::kWillNeed);
      }
#ifdef MADV_HUGEPAGE
      if (options.hugepages) {
        ::madvise(mapping, static_cast<std::size_t>(size_), MADV_HUGEPAGE);
      }
#endif
    }
    ::close(fd);
  }

  ~MappedFile() {
    if (data_ != nullptr) {
      ::munmap(const_cast<char*>(data_), static_cast<std::size_t>(size_));
    }
  }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const char* data() const { return data_; }
  [[nodiscard]] std::uint64_t size() const { return size_; }

 private:
  const char* data_ = nullptr;
  std::uint64_t size_ = 0;
};

}  // namespace

MappedCsr read_csr_mmap_region(const std::string& path,
                               const MmapOptions& options) {
  auto file = std::make_shared<MappedFile>(path, options);
  const std::uint64_t total = file->size();
  const char* base = file->data();

  // The header parse and payload check are the other loaders' own, so
  // all three reject identical inputs with the same kinds and offsets.
  const SnapshotShape shape = parse_snapshot_header(
      {base, static_cast<std::size_t>(
                 std::min(total, CsrSnapshotLayout::kHeaderBytes))},
      total, path);

  // The header is 8-byte aligned (static_assert in binary_io.hpp) and
  // the mapping is page-aligned, so the payload pointers are correctly
  // aligned for their element types — no copy or fixup needed.
  const auto* offsets_ptr = static_cast<const graph::EdgeOffset*>(
      static_cast<const void*>(base + CsrSnapshotLayout::offsets_begin()));
  const auto* neighbors_ptr = static_cast<const graph::VertexId*>(
      static_cast<const void*>(base +
                               CsrSnapshotLayout::neighbors_begin(shape.n)));
  const std::span<const graph::EdgeOffset> offsets{
      offsets_ptr, static_cast<std::size_t>(shape.n) + 1};
  const std::span<const graph::VertexId> neighbors{
      neighbors_ptr, static_cast<std::size_t>(shape.m)};

  validate_snapshot_payload(offsets, neighbors, path);
  MappedCsr mapped;
  mapped.mapping = base;
  mapped.mapping_bytes = total;
  mapped.graph = graph::CsrGraph(offsets, neighbors, std::move(file));
  return mapped;
}

#else  // !THRIFTY_HAVE_MMAP

bool advise_range(const void* /*mapping*/, std::uint64_t /*mapping_bytes*/,
                  std::uint64_t /*offset*/, std::uint64_t /*length*/,
                  MapAdvice /*advice*/) {
  return false;
}

MappedCsr read_csr_mmap_region(const std::string& path,
                               const MmapOptions& /*options*/) {
  MappedCsr mapped;
  mapped.graph = read_csr_file(path);
  return mapped;
}

#endif  // THRIFTY_HAVE_MMAP

graph::CsrGraph read_csr_mmap(const std::string& path,
                              const MmapOptions& options) {
  return read_csr_mmap_region(path, options).graph;
}

graph::CsrGraph read_csr_file_auto(const std::string& path,
                                   bool prefer_mmap) {
  if (prefer_mmap && mmap_supported()) return read_csr_mmap(path);
  return read_csr_file(path);
}

}  // namespace thrifty::io
