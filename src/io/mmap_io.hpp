// Zero-copy, memory-mapped loading of binary CSR snapshots.
//
// `read_csr_mmap` maps the snapshot file read-only and returns a
// CsrGraph whose offset and neighbour arrays alias the mapping directly
// — no heap allocation, no copy, and the page cache is shared between
// processes loading the same graph.  The mapping is kept alive by the
// returned graph (CsrGraph's keep-alive holder) and unmapped when the
// last copy of the graph is destroyed.
//
// Safety contract: the file size is fstat'd and cross-checked against
// the header-declared payload *before* any payload page is touched, via
// exactly the validation the other loaders use
// (io::parse_snapshot_header / validate_snapshot_payload).  A
// malformed or truncated file is rejected with the same typed IoError
// kinds and byte offsets as io::read_csr_file and io::read_csr — never
// a SIGBUS from walking past the mapping.
//
// On platforms without mmap (or when `mmap_supported()` is false) the
// loaders here fall back to the stream path transparently.
#pragma once

#include <string>

#include "graph/csr_graph.hpp"
#include "io/io_error.hpp"

namespace thrifty::io {

struct MmapOptions {
  /// Advise the kernel the payload will be read front to back
  /// (MADV_SEQUENTIAL: aggressive readahead, early page reclaim).
  bool sequential = true;
  /// Request asynchronous pre-fault of the whole mapping
  /// (MADV_WILLNEED), so the first traversal does not stall on 4 KiB
  /// page-in granularity.
  bool willneed = true;
  /// Request transparent huge pages for the mapping (MADV_HUGEPAGE
  /// where available): fewer TLB misses on multi-GiB neighbour arrays.
  /// Off by default — file-backed THP is not universally supported.
  bool hugepages = false;
};

/// True when this build can memory-map files (POSIX mmap present).
[[nodiscard]] bool mmap_supported();

/// Residency hint for a byte range of an existing mapping.
enum class MapAdvice {
  /// Prefetch: ask the kernel to page the range in asynchronously
  /// (MADV_WILLNEED) so an upcoming sweep does not stall on demand
  /// faults.
  kWillNeed,
  /// Release: the range will not be touched soon; drop its pages
  /// (MADV_DONTNEED — for a read-only file mapping they re-fault from
  /// the page cache or disk, never losing data).
  kDontNeed,
  /// Front-to-back access pattern (MADV_SEQUENTIAL).
  kSequential,
  /// Reset to the default paging behaviour (MADV_NORMAL).
  kNormal,
};

/// Applies `advice` to the byte range [offset, offset + length) of the
/// mapping at `mapping` (of `mapping_bytes` total).  The range is
/// clamped to the mapping and page-aligned internally (madvise requires
/// page-aligned addresses): the start rounds down, the length rounds up,
/// so the advised region always covers the requested bytes.  Returns
/// false (without throwing) when the platform lacks madvise or the call
/// fails — residency hints are best-effort by design.
bool advise_range(const void* mapping, std::uint64_t mapping_bytes,
                  std::uint64_t offset, std::uint64_t length,
                  MapAdvice advice);

/// A zero-copy loaded snapshot plus its raw mapping coordinates, for
/// callers that manage residency themselves (the sharded solver's
/// windowed prefetch/release policy feeds these into advise_range).
/// `mapping`/`mapping_bytes` are null/0 when the graph was loaded
/// through the stream fallback and owns its memory.
struct MappedCsr {
  graph::CsrGraph graph;
  const void* mapping = nullptr;
  std::uint64_t mapping_bytes = 0;
};

/// Loads a binary CSR snapshot as a zero-copy mapped view.  Throws the
/// same typed IoErrors as read_csr_file (kOpenFailed, kBadMagic,
/// kTruncated, kTrailingGarbage, kHeaderBounds, kInvariantViolation).
/// Falls back to the stream loader when mmap is unavailable.
[[nodiscard]] graph::CsrGraph read_csr_mmap(const std::string& path,
                                            const MmapOptions& options = {});

/// As read_csr_mmap, but also exposes the mapping's base address and
/// size so the caller can drive advise_range on it.  The mapping stays
/// alive exactly as long as the contained graph (same keep-alive).
[[nodiscard]] MappedCsr read_csr_mmap_region(const std::string& path,
                                             const MmapOptions& options = {});

/// Convenience dispatcher for tools: mmap-backed when `prefer_mmap` and
/// the platform supports it, the copying stream loader otherwise.
[[nodiscard]] graph::CsrGraph read_csr_file_auto(const std::string& path,
                                                 bool prefer_mmap);

}  // namespace thrifty::io
