#include "shard/manifest.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <utility>

#include "io/binary_io.hpp"
#include "io/mmap_io.hpp"

namespace thrifty::shard {

namespace fs = std::filesystem;
using io::IoError;
using io::IoErrorKind;

namespace {

constexpr std::string_view kManifestBanner = "# thrifty shard manifest v1";
constexpr std::array<char, 8> kCutMagic = {'T', 'H', 'R', 'F',
                                           'T', 'Y', 'S', '2'};
/// The sidecar format before the cut CSR: (local, slot) pairs.
constexpr std::array<char, 8> kOldCutMagic = {'T', 'H', 'R', 'F',
                                              'T', 'Y', 'S', '1'};
constexpr std::uint64_t kCutHeaderBytes = 32;  // magic + 3 u64 counts

/// graph.shards -> graph.shard<k>.bin / graph.shard<k>.cut
std::string payload_name(const std::string& manifest_path, int k,
                         const char* ext) {
  const fs::path p(manifest_path);
  std::string stem = p.stem().string();
  if (stem.empty()) stem = "graph";
  return stem + ".shard" + std::to_string(k) + ext;
}

std::string resolve(const std::string& manifest_path,
                    const std::string& relative) {
  const fs::path dir = fs::path(manifest_path).parent_path();
  if (dir.empty()) return relative;
  return (dir / relative).string();
}

void write_raw(std::ostream& out, const void* data, std::size_t bytes,
               const std::string& path) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  if (!out) throw IoError(IoErrorKind::kWriteFailed, "sidecar write", path);
}

[[noreturn]] void malformed(const std::string& path, std::uint64_t line,
                            const std::string& what) {
  throw IoError(IoErrorKind::kMalformedLine, what, path, line);
}

/// Parses "<key> <u64>" with an exact key match.
std::uint64_t header_value(const std::string& text, const char* key,
                           const std::string& path, std::uint64_t line) {
  std::istringstream in(text);
  std::string got;
  std::uint64_t value = 0;
  std::string extra;
  if (!(in >> got >> value) || got != key || (in >> extra)) {
    malformed(path, line,
              std::string("expected '") + key + " <count>'");
  }
  return value;
}

/// Header check of a THRFTYS2 sidecar against the manifest, before any
/// allocation.  Returns the cut CSR's shape for io::read_csr_arrays.
io::CsrFileShape parse_cut_header(std::span<const char> prefix,
                                  const ShardMeta& meta,
                                  std::uint32_t num_slots) {
  const std::string& path = meta.cut_path;
  if (prefix.size() < kCutMagic.size()) {
    throw IoError(IoErrorKind::kTruncated, "unexpected end of sidecar",
                  path, 0, prefix.size());
  }
  if (std::memcmp(prefix.data(), kOldCutMagic.data(), kOldCutMagic.size()) ==
      0) {
    throw IoError(IoErrorKind::kBadMagic,
                  "THRFTYS1 sidecar of an older format; re-run "
                  "graph_convert --shards to rewrite the snapshot",
                  path, 0, 0);
  }
  if (std::memcmp(prefix.data(), kCutMagic.data(), kCutMagic.size()) != 0) {
    throw IoError(IoErrorKind::kBadMagic, "not a THRFTYS2 sidecar", path, 0,
                  0);
  }
  if (prefix.size() < kCutHeaderBytes) {
    throw IoError(IoErrorKind::kTruncated, "unexpected end of sidecar",
                  path, 0, prefix.size());
  }
  std::uint64_t n_local = 0;
  std::uint64_t slots = 0;
  std::uint64_t pairs = 0;
  std::memcpy(&n_local, prefix.data() + 8, 8);
  std::memcpy(&slots, prefix.data() + 16, 8);
  std::memcpy(&pairs, prefix.data() + 24, 8);
  if (n_local != meta.num_local() || slots != num_slots) {
    throw IoError(IoErrorKind::kCountMismatch,
                  "sidecar header (n_local=" + std::to_string(n_local) +
                      ", slots=" + std::to_string(slots) +
                      ") disagrees with manifest (n_local=" +
                      std::to_string(meta.num_local()) +
                      ", slots=" + std::to_string(num_slots) + ")",
                  path, 0, 8);
  }
  if (pairs != meta.cut_pair_count) {
    throw IoError(IoErrorKind::kCountMismatch,
                  "sidecar declares " + std::to_string(pairs) +
                      " cut pairs but the manifest " +
                      std::to_string(meta.cut_pair_count),
                  path, 0, 24);
  }
  return io::CsrFileShape{kCutHeaderBytes, n_local, pairs, num_slots,
                          IoErrorKind::kIndexOutOfRange};
}

}  // namespace

std::uint64_t ShardMeta::csr_bytes() const {
  return io::CsrSnapshotLayout::neighbors_begin(num_local()) +
         static_cast<std::uint64_t>(intra_edges) * sizeof(graph::VertexId);
}

std::uint64_t ShardManifest::total_cut_pairs() const {
  std::uint64_t total = 0;
  for (const ShardMeta& s : shards) total += s.cut_pair_count;
  return total;
}

std::uint64_t ShardManifest::max_shard_csr_bytes() const {
  std::uint64_t best = 0;
  for (const ShardMeta& s : shards) best = std::max(best, s.csr_bytes());
  return best;
}

void write_shard_cuts(const std::string& path, const Shard& shard,
                      std::uint32_t num_slots) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw IoError(IoErrorKind::kOpenFailed, "cannot open for write", path);
  }
  const std::uint64_t header[3] = {shard.num_local(), num_slots,
                                   shard.cut_slots.size()};
  write_raw(out, kCutMagic.data(), kCutMagic.size(), path);
  write_raw(out, header, sizeof header, path);
  write_raw(out, shard.cut_offsets.data(),
            shard.cut_offsets.size() * sizeof(graph::EdgeOffset), path);
  write_raw(out, shard.cut_slots.data(),
            shard.cut_slots.size() * sizeof(std::uint32_t), path);
}

Shard read_shard_cuts(const ShardMeta& meta, std::uint32_t num_slots) {
  io::CsrArrays cut = io::read_csr_arrays(
      meta.cut_path, kCutHeaderBytes,
      [&](std::span<const char> prefix, std::uint64_t /*total_bytes*/) {
        return parse_cut_header(prefix, meta, num_slots);
      });
  Shard shard;
  shard.begin = meta.begin;
  shard.end = meta.end;
  shard.slot_begin = meta.slot_begin;
  shard.publish = publish_list(cut.offsets);
  if (shard.publish.size() != meta.boundary_count) {
    throw IoError(IoErrorKind::kCountMismatch,
                  std::to_string(shard.publish.size()) +
                      " non-empty cut rows but the manifest declares " +
                      std::to_string(meta.boundary_count) +
                      " boundary vertices",
                  meta.cut_path, 0, kCutHeaderBytes);
  }
  shard.cut_offsets = std::move(cut.offsets);
  shard.cut_slots = std::move(cut.ids);
  return shard;
}

void write_sharded_snapshot(const std::string& manifest_path,
                            const ShardedGraph& sharded) {
  std::ofstream out(manifest_path);
  if (!out) {
    throw IoError(IoErrorKind::kOpenFailed, "cannot open for write",
                  manifest_path);
  }
  out << kManifestBanner << '\n';
  out << "vertices " << sharded.num_vertices << '\n';
  out << "directed_edges " << sharded.num_directed_edges << '\n';
  out << "slots " << sharded.num_slots() << '\n';
  out << "shards " << sharded.num_shards() << '\n';
  for (int k = 0; k < sharded.num_shards(); ++k) {
    const Shard& shard = sharded.shards[static_cast<std::size_t>(k)];
    const std::string csr_name = payload_name(manifest_path, k, ".bin");
    const std::string cut_name = payload_name(manifest_path, k, ".cut");
    out << "shard " << shard.begin << ' ' << shard.end << ' '
        << shard.local.num_directed_edges() << ' '
        << shard.cut_slots.size() << ' ' << shard.publish.size() << ' '
        << csr_name << ' ' << cut_name << '\n';
    io::write_csr_file(resolve(manifest_path, csr_name), shard.local);
    write_shard_cuts(resolve(manifest_path, cut_name), shard,
                     sharded.num_slots());
  }
  if (!out) {
    throw IoError(IoErrorKind::kWriteFailed, "manifest write",
                  manifest_path);
  }
}

ShardManifest read_shard_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw IoError(IoErrorKind::kOpenFailed, "cannot open for read", path);
  }
  std::string line;
  std::uint64_t line_no = 0;
  auto next_line = [&]() -> bool {
    if (!std::getline(in, line)) return false;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return true;
  };

  if (!next_line() || line != kManifestBanner) {
    throw IoError(IoErrorKind::kBadMagic, "not a thrifty shard manifest",
                  path, 1);
  }

  ShardManifest manifest;
  auto header = [&](const char* key) -> std::uint64_t {
    if (!next_line()) {
      throw IoError(IoErrorKind::kTruncated,
                    std::string("missing '") + key + "' header line", path,
                    line_no + 1);
    }
    return header_value(line, key, path, line_no);
  };
  const std::uint64_t n = header("vertices");
  const std::uint64_t m = header("directed_edges");
  const std::uint64_t slots = header("slots");
  const std::uint64_t num_shards = header("shards");

  if (n > std::numeric_limits<graph::VertexId>::max()) {
    throw IoError(IoErrorKind::kHeaderBounds,
                  "vertex count " + std::to_string(n) +
                      " exceeds 32-bit vertex ids",
                  path, 2);
  }
  if (slots > n) {
    throw IoError(IoErrorKind::kHeaderBounds,
                  "slot count exceeds vertex count", path, 4);
  }
  if (num_shards < 1 || num_shards > std::max<std::uint64_t>(n, 1)) {
    throw IoError(IoErrorKind::kHeaderBounds,
                  "shard count " + std::to_string(num_shards) +
                      " outside [1, max(n, 1)]",
                  path, 5);
  }
  manifest.num_vertices = static_cast<graph::VertexId>(n);
  manifest.num_directed_edges = m;
  manifest.num_slots = static_cast<std::uint32_t>(slots);

  std::uint64_t edge_sum = 0;
  std::uint64_t boundary_sum = 0;
  for (std::uint64_t k = 0; k < num_shards; ++k) {
    if (!next_line()) {
      throw IoError(IoErrorKind::kTruncated,
                    "expected " + std::to_string(num_shards) +
                        " shard lines, found " + std::to_string(k),
                    path, line_no + 1);
    }
    std::istringstream fields(line);
    std::string tag;
    ShardMeta meta;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::string csr_name;
    std::string cut_name;
    std::string extra;
    if (!(fields >> tag >> begin >> end >> meta.intra_edges >>
          meta.cut_pair_count >> meta.boundary_count >> csr_name >>
          cut_name) ||
        tag != "shard" || (fields >> extra)) {
      malformed(path, line_no,
                "expected 'shard <begin> <end> <intra> <pairs> "
                "<boundary> <csr> <cut>'");
    }
    if (begin > end || end > n) {
      throw IoError(IoErrorKind::kInvariantViolation,
                    "shard range [" + std::to_string(begin) + ", " +
                        std::to_string(end) + ") outside [0, " +
                        std::to_string(n) + ")",
                    path, line_no);
    }
    const std::uint64_t expected_begin =
        manifest.shards.empty()
            ? 0
            : static_cast<std::uint64_t>(manifest.shards.back().end);
    if (begin != expected_begin) {
      throw IoError(IoErrorKind::kInvariantViolation,
                    "shard ranges not contiguous: expected begin " +
                        std::to_string(expected_begin) + ", got " +
                        std::to_string(begin),
                    path, line_no);
    }
    if (meta.boundary_count > end - begin) {
      throw IoError(IoErrorKind::kCountMismatch,
                    "boundary count exceeds shard size", path, line_no);
    }
    meta.begin = static_cast<graph::VertexId>(begin);
    meta.end = static_cast<graph::VertexId>(end);
    // Each boundary count is at most its range's size, so the sum so far
    // is at most begin and fits 32 bits.
    meta.slot_begin = static_cast<std::uint32_t>(boundary_sum);
    meta.csr_path = resolve(path, csr_name);
    meta.cut_path = resolve(path, cut_name);
    edge_sum += meta.intra_edges + meta.cut_pair_count;
    boundary_sum += meta.boundary_count;
    manifest.shards.push_back(std::move(meta));
  }
  if (!manifest.shards.empty() &&
      manifest.shards.back().end != manifest.num_vertices) {
    throw IoError(IoErrorKind::kInvariantViolation,
                  "shard ranges cover [0, " +
                      std::to_string(manifest.shards.back().end) +
                      ") but the manifest declares " + std::to_string(n) +
                      " vertices",
                  path, line_no);
  }
  if (edge_sum != m) {
    throw IoError(IoErrorKind::kCountMismatch,
                  "shard edges sum to " + std::to_string(edge_sum) +
                      " but the manifest declares " + std::to_string(m),
                  path, line_no);
  }
  if (boundary_sum != slots) {
    throw IoError(IoErrorKind::kCountMismatch,
                  "shard boundary counts sum to " +
                      std::to_string(boundary_sum) +
                      " but the manifest declares " +
                      std::to_string(slots) + " slots",
                  path, line_no);
  }
  while (next_line()) {
    if (!line.empty()) {
      throw IoError(IoErrorKind::kTrailingGarbage,
                    "unexpected content past the shard table", path,
                    line_no);
    }
  }
  return manifest;
}

ShardedGraph load_sharded_graph(const ShardManifest& manifest,
                                bool use_mmap) {
  ShardedGraph sharded;
  sharded.num_vertices = manifest.num_vertices;
  sharded.num_directed_edges = manifest.num_directed_edges;
  sharded.slot_vertex.resize(manifest.num_slots);
  for (const ShardMeta& meta : manifest.shards) {
    Shard shard = read_shard_cuts(meta, manifest.num_slots);
    shard.local = io::read_csr_file_auto(meta.csr_path, use_mmap);
    if (shard.local.num_vertices() != meta.num_local() ||
        shard.local.num_directed_edges() != meta.intra_edges) {
      throw IoError(IoErrorKind::kCountMismatch,
                    "shard snapshot shape disagrees with manifest",
                    meta.csr_path);
    }
    // The manifest's boundary counts sum to the slot count and each
    // sidecar has exactly its count of non-empty rows, so the shards'
    // publish runs tile the slot table.
    for (std::size_t i = 0; i < shard.publish.size(); ++i) {
      sharded.slot_vertex[shard.slot_begin + i] =
          shard.begin + shard.publish[i];
    }
    sharded.shards.push_back(std::move(shard));
  }
  return sharded;
}

}  // namespace thrifty::shard
