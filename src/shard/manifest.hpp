// Persistence for sharded snapshots: a text manifest plus per-shard
// payload files.
//
// Layout on disk (for a manifest written to `graph.shards`):
//
//   graph.shards        text manifest (format below)
//   graph.shard0.bin    shard 0's intra-CSR, a standard THRFTYG1
//                       snapshot over shard-local ids
//   graph.shard0.cut    shard 0's cut sidecar (THRFTYS3): the cut CSR
//   graph.shard1.bin    ...
//
// The manifest is line-oriented text:
//
//   # thrifty shard manifest v2
//   vertices <n>
//   directed_edges <m>
//   shards <K>
//   shard <begin> <end> <intra_edges> <cut_pairs> <csr> <cut>
//   ... (exactly K shard lines)
//
// Payload paths are stored relative to the manifest's directory, so the
// whole bundle can be moved as a unit.  Reading re-validates everything
// with typed IoErrors: a bad banner (a v1 manifest included) is
// kBadMagic, an unparsable line is kMalformedLine, missing shard lines
// are kTruncated, extra lines are kTrailingGarbage, non-contiguous
// ranges are kInvariantViolation, and an edge sum that disagrees with
// the header is kCountMismatch.
//
// The cut sidecar is binary: an 8-byte magic "THRFTYS3", three u64
// header fields (local vertex count, global vertex count n, cut-pair
// count), then the cut CSR: n_local + 1 u64 offsets and one u32 global
// vertex id per cut pair.  It is read like a THRFTYG1 snapshot
// (io::read_csr_arrays: parallel pread chunks checked in cache) with the
// file size cross-checked against the header before any allocation.
// Offsets must start at 0, rise monotonically and end at the pair count
// (kInvariantViolation), and every id must be below n and outside the
// shard's own range (kIndexOutOfRange): the solver's boundary pull reads
// those labels while it writes the shard's own.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/io_error.hpp"
#include "shard/shard.hpp"

namespace thrifty::shard {

/// Per-shard metadata from a manifest.  Paths are resolved against the
/// manifest's directory (ready to open).
struct ShardMeta {
  graph::VertexId begin = 0;
  graph::VertexId end = 0;
  graph::EdgeOffset intra_edges = 0;
  std::uint64_t cut_pair_count = 0;
  std::string csr_path;
  std::string cut_path;

  [[nodiscard]] graph::VertexId num_local() const { return end - begin; }
  /// On-disk bytes of this shard's intra-CSR snapshot — the quantity the
  /// residency budget is charged against.
  [[nodiscard]] std::uint64_t csr_bytes() const;
};

struct ShardManifest {
  graph::VertexId num_vertices = 0;
  graph::EdgeOffset num_directed_edges = 0;
  std::vector<ShardMeta> shards;

  [[nodiscard]] int num_shards() const {
    return static_cast<int>(shards.size());
  }
  [[nodiscard]] std::uint64_t total_cut_pairs() const;
  /// Largest single shard snapshot on disk: the minimum residency window
  /// any streaming policy must afford.
  [[nodiscard]] std::uint64_t max_shard_csr_bytes() const;
};

/// Writes the manifest and every per-shard payload file next to it.
/// `manifest_path` should carry the `.shards` extension; payload files
/// derive their names from its stem (see header comment).  Throws
/// IoError (kOpenFailed/kWriteFailed) on failure.
void write_sharded_snapshot(const std::string& manifest_path,
                            const ShardedGraph& sharded);

/// Parses and validates a manifest.  Throws typed IoErrors as described
/// in the header comment; on success every ShardMeta carries resolved
/// payload paths.  Payload files are *not* opened here.
[[nodiscard]] ShardManifest read_shard_manifest(const std::string& path);

/// Writes one shard's cut sidecar; `num_vertices` is the global vertex
/// count that bounds its ids.
void write_shard_cuts(const std::string& path, const Shard& shard,
                      graph::VertexId num_vertices);

/// Reads and validates the cut sidecar at `meta.cut_path` into a Shard
/// with everything but its intra-CSR: range and cut CSR.  Header fields
/// that disagree with `meta` or `num_vertices` are kCountMismatch; an id
/// at or above `num_vertices` or inside [meta.begin, meta.end) is
/// kIndexOutOfRange at the byte of the first such id, the same at every
/// thread count; an older THRFTYS1 or THRFTYS2 file is kBadMagic.
[[nodiscard]] Shard read_shard_cuts(const ShardMeta& meta,
                                    graph::VertexId num_vertices);

}  // namespace thrifty::shard
