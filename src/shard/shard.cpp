#include "shard/shard.hpp"

#include <algorithm>
#include <numeric>

#include "partition/edge_partitioner.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "support/uninit_vector.hpp"

namespace thrifty::shard {

using graph::CsrGraph;
using graph::EdgeOffset;
using graph::VertexId;

std::uint64_t ShardedGraph::total_cut_pairs() const {
  std::uint64_t total = 0;
  for (const Shard& s : shards) total += s.cut_slots.size();
  return total;
}

std::vector<VertexId> publish_list(std::span<const EdgeOffset> cut_offsets) {
  std::vector<VertexId> publish;
  for (std::size_t u = 0; u + 1 < cut_offsets.size(); ++u) {
    if (cut_offsets[u + 1] > cut_offsets[u]) {
      publish.push_back(static_cast<VertexId>(u));
    }
  }
  return publish;
}

int ShardedGraph::shard_of(VertexId v) const {
  THRIFTY_EXPECTS(v < num_vertices);
  // Ranges are contiguous and ascending: the owner is the last shard
  // whose begin is <= v.
  int lo = 0;
  int hi = num_shards() - 1;
  while (lo < hi) {
    const int mid = (lo + hi + 1) / 2;
    if (shards[static_cast<std::size_t>(mid)].begin <= v) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

namespace {

/// Builds one shard: the intra-range CSR on local ids, the cut CSR, and
/// the publish list of owned boundary vertices.
Shard build_shard(const CsrGraph& graph, VertexId begin, VertexId end,
                  const std::vector<std::uint32_t>& slot_of) {
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
  shard.cut_slots.resize(
      static_cast<std::size_t>(shard.cut_offsets[n_local]));
  support::parallel_for(n_local, [&](VertexId u) {
    EdgeOffset intra_at = offsets[u];
    EdgeOffset cut_at = shard.cut_offsets[u];
    for (const VertexId v : graph.neighbors(begin + u)) {
      if (v >= begin && v < end) {
        neighbors[intra_at++] = v - begin;
      } else {
        shard.cut_slots[cut_at++] = slot_of[v];
      }
    }
  });
  shard.local = CsrGraph(std::move(offsets), std::move(neighbors));

  shard.publish = publish_list(shard.cut_offsets);
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

  // A vertex is boundary iff some neighbour lives outside its own
  // range.  Ranges are contiguous, so "outside" is one comparison pair.
  std::vector<std::uint8_t> is_boundary(n, 0);
  for (const partition::VertexRange& range : ranges) {
    support::parallel_for(range.size(), [&](VertexId i) {
      const VertexId v = range.begin + i;
      for (const VertexId u : graph.neighbors(v)) {
        if (u < range.begin || u >= range.end) {
          is_boundary[v] = 1;
          break;
        }
      }
    });
  }

  // Slots in ascending global-id order; slot_of is only meaningful for
  // boundary vertices.
  std::vector<std::uint32_t> slot_of(n, 0);
  std::uint32_t next_slot = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (is_boundary[v] != 0) {
      slot_of[v] = next_slot++;
      sharded.slot_vertex.push_back(v);
    }
  }

  sharded.shards.resize(ranges.size());
  std::uint32_t slot_begin = 0;
  for (std::size_t k = 0; k < ranges.size(); ++k) {
    Shard& shard = sharded.shards[k];
    shard = build_shard(graph, ranges[k].begin, ranges[k].end, slot_of);
    shard.slot_begin = slot_begin;
    slot_begin += static_cast<std::uint32_t>(shard.publish.size());
  }
  return sharded;
}

}  // namespace thrifty::shard
