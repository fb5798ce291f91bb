#include "shard/shard.hpp"

#include <algorithm>

#include "partition/edge_partitioner.hpp"
#include "support/parallel.hpp"
#include "support/uninit_vector.hpp"

namespace thrifty::shard {

using graph::CsrGraph;
using graph::EdgeOffset;
using graph::VertexId;

std::uint64_t ShardedGraph::total_cut_pairs() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards) total += s.cut_ids.size();
  return total;
}

namespace {

/// Builds one shard: the intra-range CSR on local ids and the cut CSR.
Shard build_shard(const CsrGraph& graph, VertexId begin, VertexId end) {
  Shard shard;
  shard.begin = begin;
  shard.end = end;
  const VertexId n_local = end - begin;

  // Pass 1: split each owned vertex's degree into intra and cut mass.
  support::UninitVector<EdgeOffset> intra_degree(
      static_cast<std::size_t>(n_local));
  support::UninitVector<EdgeOffset> cut_degree(
      static_cast<std::size_t>(n_local));
  support::parallel_for(n_local, [&](VertexId u) {
    EdgeOffset intra = 0;
    EdgeOffset cut = 0;
    for (const VertexId v : graph.neighbors(begin + u)) {
      if (v >= begin && v < end) {
        ++intra;
      } else {
        ++cut;
      }
    }
    intra_degree[u] = intra;
    cut_degree[u] = cut;
  });

  support::UninitVector<EdgeOffset> offsets(
      static_cast<std::size_t>(n_local) + 1);
  support::parallel_exclusive_scan(intra_degree.data(),
                                   intra_degree.size(), offsets.data());
  shard.cut_offsets.resize(static_cast<std::size_t>(n_local) + 1);
  support::parallel_exclusive_scan(cut_degree.data(), cut_degree.size(),
                                   shard.cut_offsets.data());

  // Pass 2: scatter.  Each owned vertex writes a disjoint slice of both
  // arrays, so no synchronisation is needed; adjacency order is
  // preserved, so local neighbour lists stay sorted (local renumbering
  // is order-preserving within the range).
  support::UninitVector<VertexId> neighbors(
      static_cast<std::size_t>(offsets[n_local]));
  shard.cut_ids.resize(
      static_cast<std::size_t>(shard.cut_offsets[n_local]));
  support::parallel_for(n_local, [&](VertexId u) {
    EdgeOffset intra_at = offsets[u];
    EdgeOffset cut_at = shard.cut_offsets[u];
    for (const VertexId v : graph.neighbors(begin + u)) {
      if (v >= begin && v < end) {
        neighbors[intra_at++] = v - begin;
      } else {
        shard.cut_ids[cut_at++] = v;
      }
    }
  });
  shard.local = CsrGraph(std::move(offsets), std::move(neighbors));
  return shard;
}

}  // namespace

ShardedGraph partition_shards(const CsrGraph& graph, int num_shards) {
  ShardedGraph sharded;
  sharded.num_vertices = graph.num_vertices();
  sharded.num_directed_edges = graph.num_directed_edges();
  const VertexId n = graph.num_vertices();
  num_shards = std::clamp(num_shards, 1,
                          std::max<int>(1, static_cast<int>(n)));

  if (n == 0) {
    Shard empty;
    empty.cut_offsets.assign(1, 0);
    sharded.shards.push_back(std::move(empty));
    return sharded;
  }

  const std::vector<partition::VertexRange> ranges =
      partition::edge_balanced_partitions(
          graph, static_cast<std::size_t>(num_shards));

  sharded.shards.reserve(ranges.size());
  for (const partition::VertexRange& range : ranges) {
    sharded.shards.push_back(build_shard(graph, range.begin, range.end));
  }
  return sharded;
}

}  // namespace thrifty::shard
