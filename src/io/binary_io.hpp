// Compact binary CSR snapshot format, so large generated graphs can be
// built once and memory-mapped-speed loaded by benchmarks.
//
// Layout (little-endian):
//   magic   "THRFTYG1"            8 bytes
//   n       vertex count          8 bytes
//   m       directed edge count   8 bytes
//   offsets (n+1) * 8 bytes
//   neighbors m * 4 bytes
//
// The readers are strict: the declared n/m are cross-checked against the
// actual file or stream size *before* any allocation (a hostile header
// cannot trigger a multi-gigabyte allocation or an integer-overflowed
// one; a stream of unknown size grows its arrays in bounded steps as
// bytes arrive), the payload must match the header exactly (no trailing
// bytes), and the loaded arrays must satisfy the CSR invariants
// (offsets[0] == 0, monotone, offsets[n] == m, neighbour ids < n).
// Violations surface as typed IoErrors carrying the byte offset of the
// offending datum.
//
// read_csr_file reads a regular file with parallel pread calls, one
// fixed-size chunk at a time, and checks each chunk while it is still in
// cache.  The same header parse and payload check back it, the stream
// loader and the zero-copy mmap loader (io/mmap_io.hpp), so all three
// reject identical malformed inputs with identical IoError kinds and
// byte offsets.  The chunked reader itself (read_csr_arrays) serves any
// CSR-shaped file: a shard's cut sidecar (shard/manifest.hpp) is read by
// it too, with its own header and its ids bounded by the slot count.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>

#include "graph/csr_graph.hpp"
#include "io/io_error.hpp"
#include "support/uninit_vector.hpp"

namespace thrifty::io {

/// Byte layout of the THRFTYG1 snapshot, shared by the stream and mmap
/// loaders.  The header is a deliberate 24 bytes — a multiple of the
/// 8-byte offset alignment — so a page-aligned mapping of the file can
/// serve the payload arrays in place without any copy or realignment.
struct CsrSnapshotLayout {
  static constexpr std::array<char, 8> kMagic = {'T', 'H', 'R', 'F',
                                                 'T', 'Y', 'G', '1'};
  static constexpr std::uint64_t kMagicBytes = kMagic.size();
  static constexpr std::uint64_t kHeaderBytes = 24;  // magic + n + m

  static constexpr std::uint64_t offsets_begin() { return kHeaderBytes; }
  static constexpr std::uint64_t neighbors_begin(std::uint64_t n) {
    return kHeaderBytes + (n + 1) * sizeof(graph::EdgeOffset);
  }
};

// The mmap loader overlays typed arrays directly onto the page-aligned
// mapping, so the payload boundaries must be aligned for their element
// types.  These are the guarantees docs/FORMATS.md documents; a format
// change that breaks them must fail the build, not fault at runtime.
static_assert(sizeof(graph::EdgeOffset) == 8 &&
                  sizeof(graph::VertexId) == 4,
              "snapshot layout assumes 8-byte offsets and 4-byte ids");
static_assert(CsrSnapshotLayout::kHeaderBytes %
                      alignof(graph::EdgeOffset) ==
                  0,
              "offsets payload must start on an 8-byte boundary");
static_assert(sizeof(graph::EdgeOffset) % alignof(graph::VertexId) == 0,
              "neighbour payload (header + (n+1)*8) must stay 4-byte "
              "aligned for every n");

/// Bytes per pread chunk of read_csr_file.  Each chunk is checked as soon
/// as it arrives, while it is still in cache.
inline constexpr std::uint64_t kSnapshotReadChunkBytes = std::uint64_t{1}
                                                         << 20;

/// Serialises a CSR graph to a stream.  Throws IoError(kWriteFailed).
void write_csr(std::ostream& out, const graph::CsrGraph& graph);

/// Serialises a CSR graph to a file.  Throws IoError on I/O failure.
void write_csr_file(const std::string& path, const graph::CsrGraph& graph);

/// Loads a CSR graph from a stream.  `context` names the source in error
/// messages (the file path when called via read_csr_file).  A stream
/// that cannot seek (a pipe) is read in bounded steps, so a header that
/// overstates the payload ends in kTruncated, not in a huge allocation.
/// Throws IoError with the precise kind: kBadMagic, kTruncated,
/// kTrailingGarbage, kHeaderBounds, or kInvariantViolation.
[[nodiscard]] graph::CsrGraph read_csr(std::istream& in,
                                       const std::string& context =
                                           "<stream>");

/// Loads a CSR graph from a file: parallel pread chunks for a regular
/// file (on the calling thread below a fixed payload size), read_csr for
/// anything else (a FIFO).  Throws IoError (see read_csr), plus
/// kOpenFailed when the file cannot be opened.
[[nodiscard]] graph::CsrGraph read_csr_file(const std::string& path);

/// Vertex and directed edge counts a snapshot header declares.
struct SnapshotShape {
  std::uint64_t n = 0;
  std::uint64_t m = 0;
};

/// Layout of a CSR-shaped file: a `header_bytes` header, then n + 1 u64
/// offsets and m u32 ids, each id below `id_limit`.  A THRFTYG1 snapshot
/// is one (id_limit = n); a shard's THRFTYS3 cut sidecar is another, whose
/// ids are global vertex ids outside the shard's own range.
struct CsrFileShape {
  std::uint64_t header_bytes = 0;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t id_limit = 0;
  /// Ids in [own_begin, own_end) are out of range too: a shard's cut CSR
  /// names only vertices that other shards own.  Empty by default.
  std::uint64_t own_begin = 0;
  std::uint64_t own_end = 0;
  /// Kind of the error for an id at or above id_limit or inside the own
  /// range.
  IoErrorKind out_of_range_kind = IoErrorKind::kInvariantViolation;

  [[nodiscard]] std::uint64_t ids_begin() const {
    return header_bytes + (n + 1) * sizeof(graph::EdgeOffset);
  }
};

/// The two payload arrays of a CSR-shaped file.
struct CsrArrays {
  support::UninitVector<graph::EdgeOffset> offsets;
  support::UninitVector<graph::VertexId> ids;
};

/// Reads a CSR-shaped regular file.  `parse_header(prefix, total_bytes)`
/// gets the file's first `header_bytes` bytes (fewer only when the file
/// is that short) and its size; it throws for a bad header and returns
/// the shape.  Before anything is allocated the shape is checked against
/// the file size: n must fit 32-bit ids, the sizes must not overflow 64
/// bits (kHeaderBounds, at byte 8), and the payload must fill the file
/// exactly (kTruncated at byte 8, kTrailingGarbage at the first extra
/// byte).  Both arrays are then filled with pread calls of kSnapshotReadChunkBytes, in
/// parallel from two chunks on, and each chunk is checked while in
/// cache: offsets[0] == 0, monotone offsets, offsets[n] == m and every
/// id < id_limit and outside [own_begin, own_end).  Throws IoError:
/// kOpenFailed, kTruncated when the file shrinks under the read,
/// kInvariantViolation (out_of_range_kind for an id) carrying the byte
/// offset of the first violation, or whatever parse_header throws.
[[nodiscard]] CsrArrays read_csr_arrays(
    const std::string& path, std::uint64_t header_bytes,
    const std::function<CsrFileShape(std::span<const char>, std::uint64_t)>&
        parse_header);

/// Header parse shared by the three loaders.  `prefix` holds the
/// snapshot's first bytes: all 24 header bytes, or fewer only when the
/// snapshot is that short.  Checks the magic, bounds the vertex count to
/// 32-bit ids, rejects 64-bit size overflow, and cross-checks the
/// declared payload against `total_bytes` (when known) before any
/// allocation or page touch.  Throws IoError(kTruncated at the first
/// missing byte | kBadMagic | kHeaderBounds | kTrailingGarbage).
[[nodiscard]] SnapshotShape parse_snapshot_header(
    std::span<const char> prefix, std::optional<std::uint64_t> total_bytes,
    const std::string& context);

/// Payload check shared by the three loaders, symmetry exempt (snapshots
/// of directed data are representable).  Checks the four conditions
/// validate_csr's ok() reduces to without symmetry: offsets[0] == 0,
/// offsets[n] == m, monotone offsets, and largest neighbour id < n.  Only
/// when one fails does it run validate_csr, to name the first violation;
/// throws IoError(kInvariantViolation) carrying its byte offset in the
/// snapshot.
void validate_snapshot_payload(std::span<const graph::EdgeOffset> offsets,
                               std::span<const graph::VertexId> neighbors,
                               const std::string& context);

}  // namespace thrifty::io
