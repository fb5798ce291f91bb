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
//   * its *cut CSR* — for each owned vertex u, the global ids of its
//     remote neighbours (each directed edge (u, v) with v outside the
//     range), in adjacency order.
//
// Labels cross shards through the solver's one global label array, the
// paper's unified labels: a boundary pull reads the labels its cut rows
// name in place.  A cut id never lies inside its own shard's range, so
// a pull reads only labels that other shards own.
//
// Persistence (manifest + per-shard files) lives in shard/manifest.hpp;
// the solver in shard/solver.hpp.
#pragma once

#include <cstdint>
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
  /// Cut CSR over local ids: row u holds the global ids of u's remote
  /// neighbours, in adjacency order.  n_local + 1 offsets.
  support::UninitVector<graph::EdgeOffset> cut_offsets;
  support::UninitVector<graph::VertexId> cut_ids;

  [[nodiscard]] graph::VertexId num_local() const { return end - begin; }
};

struct ShardedGraph {
  graph::VertexId num_vertices = 0;
  /// Directed edge count of the original graph (intra + cut).
  graph::EdgeOffset num_directed_edges = 0;
  std::vector<Shard> shards;

  [[nodiscard]] int num_shards() const {
    return static_cast<int>(shards.size());
  }
  /// Total cut-edge pairs across shards (each directed cut edge counted
  /// once, at its owner).
  [[nodiscard]] std::uint64_t total_cut_pairs() const;
};

/// Partitions `graph` into `num_shards` contiguous edge-balanced vertex
/// ranges and materialises every shard's intra-CSR and cut CSR.
/// `num_shards` is clamped to [1, num_vertices] (an empty graph yields
/// one empty shard).  Deterministic; parallel within each shard.
[[nodiscard]] ShardedGraph partition_shards(const graph::CsrGraph& graph,
                                            int num_shards);

}  // namespace thrifty::shard
