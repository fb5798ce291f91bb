#include "io/binary_io.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include "graph/validate.hpp"
#include "support/assert.hpp"
#include "support/math.hpp"
#include "support/uninit_vector.hpp"

namespace thrifty::io {

namespace {

using graph::EdgeOffset;
using graph::VertexId;

constexpr std::uint64_t kHeaderBytes = CsrSnapshotLayout::kHeaderBytes;

/// Payloads smaller than this are read and checked on the calling thread,
/// so tiny inputs (unit tests, crosscheck scenarios) never open a parallel
/// region.
constexpr std::uint64_t kParallelPayloadBytes = 2 * kSnapshotReadChunkBytes;
constexpr std::size_t kOffsetsPerChunk =
    kSnapshotReadChunkBytes / sizeof(EdgeOffset);
constexpr std::size_t kIdsPerChunk = kSnapshotReadChunkBytes / sizeof(VertexId);

void write_raw(std::ostream& out, const void* data, std::size_t bytes) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  if (!out) throw IoError(IoErrorKind::kWriteFailed, "binary graph write");
}

void read_raw(std::istream& in, void* data, std::size_t bytes,
              const std::string& context, std::uint64_t at) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (in.gcount() != static_cast<std::streamsize>(bytes)) {
    throw IoError(IoErrorKind::kTruncated, "unexpected end of snapshot",
                  context, 0, at + static_cast<std::uint64_t>(in.gcount()));
  }
}

/// Reads `count` elements from a stream of unknown size.  The array grows
/// in bounded steps as bytes arrive, so its size follows the bytes
/// actually received, never the header's claim.
template <typename T>
void read_growing(std::istream& in, support::UninitVector<T>& out,
                  std::uint64_t count, const std::string& context,
                  std::uint64_t at) {
  constexpr std::uint64_t kStep = kSnapshotReadChunkBytes / sizeof(T);
  out.clear();
  while (out.size() < count) {
    const std::size_t have = out.size();
    const auto step = static_cast<std::size_t>(std::min(kStep, count - have));
    out.resize(have + step);
    read_raw(in, out.data() + have, step * sizeof(T), context,
             at + have * sizeof(T));
  }
}

/// Total stream length in bytes, or nullopt for non-seekable streams.
std::optional<std::uint64_t> stream_size(std::istream& in) {
  const std::istream::pos_type current = in.tellg();
  if (current == std::istream::pos_type(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(current);
  if (end == std::istream::pos_type(-1)) return std::nullopt;
  return static_cast<std::uint64_t>(end);
}

/// Byte offset of the first invariant violation a validation report
/// names, for the IoError context.
std::uint64_t violation_byte_offset(const graph::ValidationReport& report,
                                    const CsrFileShape& shape) {
  using graph::CsrViolation;
  const std::uint64_t offsets_base = shape.header_bytes;
  const std::uint64_t neighbors_base = shape.ids_begin();
  const std::uint64_t n = shape.n;
  switch (report.first_violation) {
    case CsrViolation::kFirstOffsetNonZero:
      return offsets_base;
    case CsrViolation::kLastOffsetMismatch:
      return offsets_base + n * 8;
    case CsrViolation::kNonMonotoneOffsets:
      return offsets_base +
             static_cast<std::uint64_t>(report.first_vertex) * 8;
    case CsrViolation::kNeighborOutOfRange:
      return neighbors_base + report.first_edge_index * 4;
    default:
      return IoError::kNoPosition;
  }
}

/// A range of elements of one payload array.
struct Chunk {
  bool offsets = false;  ///< the offsets array, else the neighbours
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// What the payload check needs besides the two ends of the offsets.
struct PayloadScan {
  bool complete = true;  ///< every chunk was filled
  bool monotone = true;
  bool ids_in_range = true;  ///< every id < the shape's id_limit
};

/// Walks the payload in fixed-size chunks, in parallel from
/// kParallelPayloadBytes on.  `fill(chunk)` makes the chunk's elements
/// available (a pread, or nothing for arrays already in memory) and
/// returns false when it could not; a filled chunk is checked at once,
/// while it is still in cache.
template <typename Fill>
PayloadScan scan_payload(std::span<const EdgeOffset> offsets,
                         std::span<const VertexId> neighbors,
                         std::uint64_t id_limit, Fill&& fill) {
  const std::size_t offset_chunks =
      support::ceil_div(offsets.size(), kOffsetsPerChunk);
  const std::size_t chunks =
      offset_chunks + support::ceil_div(neighbors.size(), kIdsPerChunk);
  const bool parallel = offsets.size_bytes() + neighbors.size_bytes() >=
                        kParallelPayloadBytes;
  // Ids are 32-bit, so every id is below a limit beyond that range.
  const bool check_ids = id_limit <= std::numeric_limits<VertexId>::max();
  const auto limit = static_cast<VertexId>(check_ids ? id_limit : 0);
  bool complete = true;
  bool monotone = true;
  bool ids_in_range = true;
#pragma omp parallel for if (parallel) schedule(static) \
    reduction(&& : complete, monotone, ids_in_range)
  for (std::size_t c = 0; c < chunks; ++c) {
    Chunk chunk;
    chunk.offsets = c < offset_chunks;
    const std::size_t size = chunk.offsets ? offsets.size() : neighbors.size();
    const std::size_t per = chunk.offsets ? kOffsetsPerChunk : kIdsPerChunk;
    chunk.begin = (chunk.offsets ? c : c - offset_chunks) * per;
    chunk.end = std::min(chunk.begin + per, size);
    if (!fill(chunk)) {
      complete = false;
      continue;
    }
    if (chunk.offsets) {
      bool sorted = true;
      for (std::size_t i = chunk.begin + 1; i < chunk.end; ++i) {
        sorted &= offsets[i - 1] <= offsets[i];
      }
      monotone = monotone && sorted;
    } else if (check_ids) {
      // An OR of compares vectorises on every x86-64 level; an unsigned
      // 32-bit max needs SSE4.1.
      std::uint32_t out_of_range = 0;
#pragma omp simd reduction(| : out_of_range)
      for (std::size_t e = chunk.begin; e < chunk.end; ++e) {
        out_of_range |= static_cast<std::uint32_t>(neighbors[e] >= limit);
      }
      ids_in_range = ids_in_range && out_of_range == 0;
    }
  }
  // The pairs that straddle two offset chunks.
  for (std::size_t c = 1; complete && c < offset_chunks; ++c) {
    const std::size_t first = c * kOffsetsPerChunk;
    monotone = monotone && offsets[first - 1] <= offsets[first];
  }
  return {complete, monotone, ids_in_range};
}

/// The four-condition payload check.  Only on failure does validate_csr
/// run, to locate the first violation for the error.
void check_payload(std::span<const EdgeOffset> offsets,
                   std::span<const VertexId> neighbors,
                   const PayloadScan& scan, const CsrFileShape& shape,
                   const std::string& context) {
  if (!offsets.empty() && offsets.front() == 0 &&
      offsets.back() == neighbors.size() && scan.monotone &&
      scan.ids_in_range) {
    return;
  }
  graph::ValidateOptions vopts;
  vopts.check_symmetry = false;
  vopts.id_limit = shape.id_limit;
  const graph::ValidationReport report =
      graph::validate_csr(offsets, neighbors, vopts);
  THRIFTY_ASSERT(!report.ok());
  const IoErrorKind kind =
      report.first_violation == graph::CsrViolation::kNeighborOutOfRange
          ? shape.out_of_range_kind
          : IoErrorKind::kInvariantViolation;
  throw IoError(kind, report.to_string(), context, 0,
                violation_byte_offset(report, shape));
}

graph::CsrGraph read_csr_stream_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw IoError(IoErrorKind::kOpenFailed, "cannot open for read", path);
  }
  return read_csr(in, path);
}

/// A file opened for positional reads, closed on scope exit.
class ReadOnlyFile {
 public:
  explicit ReadOnlyFile(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    if (fd_ < 0) {
      throw IoError(IoErrorKind::kOpenFailed, "cannot open for read", path);
    }
    struct ::stat st {};
    if (::fstat(fd_, &st) != 0) {
      ::close(fd_);
      throw IoError(IoErrorKind::kOpenFailed, "cannot stat", path);
    }
    size_ = static_cast<std::uint64_t>(st.st_size);
  }
  ~ReadOnlyFile() { ::close(fd_); }
  ReadOnlyFile(const ReadOnlyFile&) = delete;
  ReadOnlyFile& operator=(const ReadOnlyFile&) = delete;

  /// File size when opened.
  [[nodiscard]] std::uint64_t size() const { return size_; }

  /// Reads up to `bytes` at file offset `at`, looping on short reads and
  /// EINTR.  Returns the bytes read: fewer than asked only at end of file
  /// or on a read error.  Safe to call from several threads at once.
  std::uint64_t read_at(void* data, std::uint64_t bytes,
                        std::uint64_t at) const {
    auto* out = static_cast<char*>(data);
    std::uint64_t done = 0;
    while (done < bytes) {
      const ::ssize_t got =
          ::pread(fd_, out + done, static_cast<std::size_t>(bytes - done),
                  static_cast<::off_t>(at + done));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      done += static_cast<std::uint64_t>(got);
    }
    return done;
  }

 private:
  int fd_;
  std::uint64_t size_ = 0;
};

/// Lowers `target` to `value` if smaller.
void lower(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

/// Cross-checks a declared shape against the file's byte count (when
/// known) before anything is allocated: n must fit 32-bit ids, the sizes
/// must not overflow 64 bits (kHeaderBounds, at byte 8), and the payload
/// must fill the file exactly (kTruncated at byte 8, kTrailingGarbage at
/// the first extra byte).
void check_csr_file_size(const CsrFileShape& shape,
                         std::optional<std::uint64_t> total_bytes,
                         const std::string& context) {
  // n must fit the 4-byte VertexId (which also makes the (n + 1) * 8 below
  // overflow-free), and the declared payload must match the actual size
  // exactly, so a hostile header can neither trigger an unbounded
  // allocation nor smuggle trailing bytes past the reader.
  if (shape.n > std::numeric_limits<VertexId>::max()) {
    throw IoError(IoErrorKind::kHeaderBounds,
                  "vertex count " + std::to_string(shape.n) +
                      " exceeds 32-bit vertex ids",
                  context, 0, 8);
  }
  const std::optional<std::uint64_t> ids_bytes =
      support::checked_mul<std::uint64_t>(shape.m, sizeof(VertexId));
  const std::optional<std::uint64_t> expected =
      ids_bytes ? support::checked_add<std::uint64_t>(shape.ids_begin(),
                                                      *ids_bytes)
                : std::nullopt;
  if (!expected) {
    throw IoError(IoErrorKind::kHeaderBounds,
                  "declared sizes overflow 64 bits (n=" +
                      std::to_string(shape.n) +
                      ", m=" + std::to_string(shape.m) + ")",
                  context, 0, 8);
  }
  if (total_bytes) {
    if (*expected > *total_bytes) {
      throw IoError(IoErrorKind::kTruncated,
                    "header declares " + std::to_string(*expected) +
                        " bytes but stream holds " +
                        std::to_string(*total_bytes),
                    context, 0, 8);
    }
    if (*expected < *total_bytes) {
      throw IoError(IoErrorKind::kTrailingGarbage,
                    std::to_string(*total_bytes - *expected) +
                        " byte(s) past the declared payload",
                    context, 0, *expected);
    }
  }
}

}  // namespace

CsrArrays read_csr_arrays(
    const std::string& path, std::uint64_t header_bytes,
    const std::function<CsrFileShape(std::span<const char>, std::uint64_t)>&
        parse_header) {
  const ReadOnlyFile file(path);
  std::vector<char> header(static_cast<std::size_t>(header_bytes));
  const std::uint64_t got_header = file.read_at(
      header.data(), std::min(file.size(), header_bytes), 0);
  const CsrFileShape shape = parse_header(
      {header.data(), static_cast<std::size_t>(got_header)}, file.size());
  check_csr_file_size(shape, file.size(), path);

  CsrArrays arrays;
  arrays.offsets.resize(static_cast<std::size_t>(shape.n) + 1);
  arrays.ids.resize(static_cast<std::size_t>(shape.m));
  // Each thread preads its own chunks, so it also faults in their pages.
  std::atomic<std::uint64_t> end_of_file{IoError::kNoPosition};
  const auto fill = [&](const Chunk& chunk) {
    const std::size_t element =
        chunk.offsets ? sizeof(EdgeOffset) : sizeof(VertexId);
    void* data =
        chunk.offsets
            ? static_cast<void*>(arrays.offsets.data() + chunk.begin)
            : static_cast<void*>(arrays.ids.data() + chunk.begin);
    const std::uint64_t at =
        (chunk.offsets ? shape.header_bytes : shape.ids_begin()) +
        chunk.begin * element;
    const std::uint64_t bytes = (chunk.end - chunk.begin) * element;
    const std::uint64_t got = file.read_at(data, bytes, at);
    if (got == bytes) return true;
    lower(end_of_file, at + got);
    return false;
  };
  const std::span<const EdgeOffset> offsets{arrays.offsets.data(),
                                            arrays.offsets.size()};
  const std::span<const VertexId> ids{arrays.ids.data(), arrays.ids.size()};
  const PayloadScan scan = scan_payload(offsets, ids, shape.id_limit, fill);
  if (!scan.complete) {
    // The file shrank after it was opened.
    throw IoError(IoErrorKind::kTruncated, "unexpected end of snapshot", path,
                  0, end_of_file.load());
  }
  check_payload(offsets, ids, scan, shape, path);
  return arrays;
}

SnapshotShape parse_snapshot_header(std::span<const char> prefix,
                                    std::optional<std::uint64_t> total_bytes,
                                    const std::string& context) {
  if (prefix.size() < CsrSnapshotLayout::kMagicBytes) {
    throw IoError(IoErrorKind::kTruncated, "unexpected end of snapshot",
                  context, 0, prefix.size());
  }
  if (std::memcmp(prefix.data(), CsrSnapshotLayout::kMagic.data(),
                  CsrSnapshotLayout::kMagicBytes) != 0) {
    throw IoError(IoErrorKind::kBadMagic, "not a THRFTYG1 snapshot",
                  context, 0, 0);
  }
  if (prefix.size() < kHeaderBytes) {
    throw IoError(IoErrorKind::kTruncated, "unexpected end of snapshot",
                  context, 0, prefix.size());
  }
  SnapshotShape shape;
  std::memcpy(&shape.n, prefix.data() + 8, sizeof shape.n);
  std::memcpy(&shape.m, prefix.data() + 16, sizeof shape.m);
  check_csr_file_size({kHeaderBytes, shape.n, shape.m, shape.n}, total_bytes,
                      context);
  return shape;
}

void validate_snapshot_payload(std::span<const EdgeOffset> offsets,
                               std::span<const VertexId> neighbors,
                               const std::string& context) {
  // Verified on the raw arrays, so corrupt data surfaces as a catchable
  // typed error instead of tripping the CsrGraph constructor's aborting
  // contract checks.
  const std::uint64_t n = offsets.empty() ? 0 : offsets.size() - 1;
  const CsrFileShape shape{kHeaderBytes, n, neighbors.size(), n};
  const PayloadScan scan = scan_payload(offsets, neighbors, shape.id_limit,
                                        [](const Chunk&) { return true; });
  check_payload(offsets, neighbors, scan, shape, context);
}

void write_csr(std::ostream& out, const graph::CsrGraph& graph) {
  write_raw(out, CsrSnapshotLayout::kMagic.data(),
            CsrSnapshotLayout::kMagic.size());
  const std::uint64_t n = graph.num_vertices();
  const std::uint64_t m = graph.num_directed_edges();
  write_raw(out, &n, sizeof n);
  write_raw(out, &m, sizeof m);
  write_raw(out, graph.offsets().data(), graph.offsets().size_bytes());
  write_raw(out, graph.neighbor_array().data(),
            graph.neighbor_array().size_bytes());
}

void write_csr_file(const std::string& path, const graph::CsrGraph& graph) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw IoError(IoErrorKind::kOpenFailed, "cannot open for write", path);
  }
  try {
    write_csr(out, graph);
  } catch (const IoError& e) {
    throw IoError(e.kind(), "binary graph write", path);
  }
}

graph::CsrGraph read_csr(std::istream& in, const std::string& context) {
  const std::optional<std::uint64_t> total_bytes = stream_size(in);

  std::array<char, kHeaderBytes> header{};
  in.read(header.data(), static_cast<std::streamsize>(header.size()));
  const SnapshotShape shape = parse_snapshot_header(
      {header.data(), static_cast<std::size_t>(in.gcount())}, total_bytes,
      context);
  const std::uint64_t offsets_at = CsrSnapshotLayout::offsets_begin();
  const std::uint64_t neighbors_at =
      CsrSnapshotLayout::neighbors_begin(shape.n);

  support::UninitVector<EdgeOffset> offsets;
  support::UninitVector<VertexId> neighbors;
  if (total_bytes) {
    // The header matched the stream size, so the allocation is backed by
    // bytes that exist.
    offsets.resize(static_cast<std::size_t>(shape.n) + 1);
    neighbors.resize(static_cast<std::size_t>(shape.m));
    read_raw(in, offsets.data(), offsets.size() * sizeof(EdgeOffset),
             context, offsets_at);
    read_raw(in, neighbors.data(), neighbors.size() * sizeof(VertexId),
             context, neighbors_at);
  } else {
    read_growing(in, offsets, shape.n + 1, context, offsets_at);
    read_growing(in, neighbors, shape.m, context, neighbors_at);
    if (in.peek() != std::istream::traits_type::eof()) {
      throw IoError(IoErrorKind::kTrailingGarbage,
                    "bytes past the declared payload", context, 0,
                    neighbors_at + shape.m * sizeof(VertexId));
    }
  }

  validate_snapshot_payload({offsets.data(), offsets.size()},
                            {neighbors.data(), neighbors.size()}, context);
  return graph::CsrGraph(std::move(offsets), std::move(neighbors));
}

graph::CsrGraph read_csr_file(const std::string& path) {
  // Anything but a regular file (a FIFO) has no size to pread against,
  // and opening it twice would race its writer, so it goes to the stream
  // loader without being opened here.
  struct ::stat st {};
  if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    return read_csr_stream_file(path);
  }
  CsrArrays arrays = read_csr_arrays(
      path, kHeaderBytes,
      [&](std::span<const char> prefix, std::uint64_t total_bytes) {
        const SnapshotShape shape =
            parse_snapshot_header(prefix, total_bytes, path);
        return CsrFileShape{kHeaderBytes, shape.n, shape.m, shape.n};
      });
  return graph::CsrGraph(std::move(arrays.offsets), std::move(arrays.ids));
}

}  // namespace thrifty::io
