// Sharded decomposition of a CSR snapshot for out-of-core execution.
//
// A shard owns a contiguous vertex range (edge-balanced over the CSR
// offsets, exactly like the §V-A thread partitions but at snapshot
// granularity) and materialises two things:
//
//   * its *intra-shard* subgraph — every edge whose endpoints both lie
//     in the range, renumbered to shard-local ids, stored as a fully
//     valid THRFTYG1 CSR so the existing stream/mmap loaders (with all
//     their validation) load it unchanged;
//   * its *cut CSR* — for each owned vertex u, the slots of its remote
//     neighbours (each directed edge (u, v) with v outside the range),
//     where slot(v) indexes the global boundary-label table.
//
// The boundary-label table has one slot per *boundary vertex* (a vertex
// with at least one cut edge), assigned in ascending global-id order.
// Ranges are contiguous, so each shard's boundary vertices own one
// contiguous run of slots, starting at `slot_begin`: the owned vertex
// with the i-th non-empty cut row owns slot slot_begin + i.  The table
// is the only state that crosses shards during a sharded solve: labels
// of interior vertices never leave their shard, which is what makes the
// exchange bandwidth-frugal (Koohi Esfahani et al.'s distributed-CC
// framing, kept in-process here).
//
// Persistence (manifest + per-shard files) lives in shard/manifest.hpp;
// the solver in shard/solver.hpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/types.hpp"
#include "support/uninit_vector.hpp"

namespace thrifty::shard {

struct Shard {
  /// Owned global vertex range [begin, end).
  graph::VertexId begin = 0;
  graph::VertexId end = 0;
  /// Intra-shard subgraph over local ids 0..end-begin (rows for every
  /// owned vertex, including ones with only cut edges).
  graph::CsrGraph local;
  /// Owned boundary vertices as ascending local ids: exactly the rows
  /// with a non-empty cut row.  publish[i] owns slot slot_begin + i.
  std::vector<graph::VertexId> publish;
  std::uint32_t slot_begin = 0;
  /// Cut CSR over local ids: row u holds the slots of u's remote
  /// neighbours, in adjacency order.  n_local + 1 offsets.
  support::UninitVector<graph::EdgeOffset> cut_offsets;
  support::UninitVector<std::uint32_t> cut_slots;

  [[nodiscard]] graph::VertexId num_local() const { return end - begin; }
};

struct ShardedGraph {
  graph::VertexId num_vertices = 0;
  /// Directed edge count of the original graph (intra + cut).
  graph::EdgeOffset num_directed_edges = 0;
  /// slot -> global vertex id, ascending (one entry per boundary
  /// vertex).  The inverse lookup is each shard's publish list.
  std::vector<graph::VertexId> slot_vertex;
  std::vector<Shard> shards;

  [[nodiscard]] int num_shards() const {
    return static_cast<int>(shards.size());
  }
  [[nodiscard]] std::uint32_t num_slots() const {
    return static_cast<std::uint32_t>(slot_vertex.size());
  }
  /// Total cut-edge pairs across shards (each directed cut edge counted
  /// once, at its owner).
  [[nodiscard]] std::uint64_t total_cut_pairs() const;
  /// Shard owning global vertex `v`.
  [[nodiscard]] int shard_of(graph::VertexId v) const;
};

/// The publish list a cut CSR implies: the local ids of its non-empty
/// rows, ascending.
[[nodiscard]] std::vector<graph::VertexId> publish_list(
    std::span<const graph::EdgeOffset> cut_offsets);

/// Partitions `graph` into `num_shards` contiguous edge-balanced vertex
/// ranges and materialises every shard's intra-CSR, publish list and
/// cut CSR.  `num_shards` is clamped to [1, num_vertices] (an empty
/// graph yields one empty shard).  Deterministic; parallel over shards.
[[nodiscard]] ShardedGraph partition_shards(const graph::CsrGraph& graph,
                                            int num_shards);

}  // namespace thrifty::shard
