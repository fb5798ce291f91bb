#include "graph/builder.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "support/uninit_vector.hpp"

namespace thrifty::graph {

namespace {

using support::UninitVector;

}  // namespace

BuildResult build_csr(const EdgeList& edges, VertexId num_vertices,
                      const BuildOptions& options) {
  const std::size_t m = edges.size();
  const int threads = support::threads_for(m);
  const auto blocks = static_cast<std::size_t>(threads);
  // Contiguous per-thread edge ranges: thread t owns [block_begin(t),
  // block_begin(t+1)).  Each thread counts and later scatters exactly its
  // own range, so all counter updates below are thread-private.
  const std::size_t block_size = (m + blocks - 1) / blocks;
  const auto block_begin = [&](std::size_t t) {
    return std::min(t * block_size, m);
  };

  // Pass 1: contention-free degree counting — a private histogram per
  // edge block (counts[t * n + v]) instead of shared atomic counters that
  // serialise on hub vertices of skewed graphs.  Worksharing over block
  // ids (not raw thread ids) keeps every block counted even if the
  // runtime delivers a smaller team than requested.
  UninitVector<EdgeOffset> counts(blocks * num_vertices);
#pragma omp parallel num_threads(threads)
  {
#pragma omp for schedule(static, 1)
    for (std::size_t t = 0; t < blocks; ++t) {
      EdgeOffset* local = counts.data() + t * num_vertices;
      std::fill(local, local + num_vertices, EdgeOffset{0});
      const std::size_t begin = block_begin(t);
      const std::size_t end = block_begin(t + 1);
      for (std::size_t i = begin; i < end; ++i) {
        const Edge e = edges[i];
        THRIFTY_EXPECTS(e.u < num_vertices && e.v < num_vertices);
        if (options.remove_self_loops && e.u == e.v) continue;
        ++local[e.u];
        ++local[e.v];
      }
    }
  }

  // 2-D reduction over threads into per-vertex totals, then a parallel
  // exclusive scan to produce the CSR offsets.
  UninitVector<EdgeOffset> degree_total(num_vertices);
  support::parallel_for(num_vertices, [&](VertexId v) {
    EdgeOffset total = 0;
    for (std::size_t t = 0; t < blocks; ++t) {
      total += counts[t * num_vertices + v];
    }
    degree_total[v] = total;
  });
  UninitVector<EdgeOffset> offsets(static_cast<std::size_t>(num_vertices) +
                                   1);
  support::parallel_exclusive_scan(degree_total.data(), num_vertices,
                                   offsets.data());
  UninitVector<VertexId> neighbors(offsets.back());

  // Turn the per-thread counts into per-(thread, vertex) write cursors:
  // thread t's first slot for vertex v sits after every lower-numbered
  // thread's entries for v.
  support::parallel_for(num_vertices, [&](VertexId v) {
    EdgeOffset running = offsets[v];
    for (std::size_t t = 0; t < blocks; ++t) {
      const EdgeOffset c = counts[t * num_vertices + v];
      counts[t * num_vertices + v] = running;
      running += c;
    }
  });

  // Pass 2: scatter.  Every (block, vertex) cursor is private to the
  // thread scattering that block — zero atomic read-modify-write
  // operations.
#pragma omp parallel num_threads(threads)
  {
#pragma omp for schedule(static, 1)
    for (std::size_t t = 0; t < blocks; ++t) {
      EdgeOffset* cursor = counts.data() + t * num_vertices;
      const std::size_t begin = block_begin(t);
      const std::size_t end = block_begin(t + 1);
      for (std::size_t i = begin; i < end; ++i) {
        const Edge e = edges[i];
        if (options.remove_self_loops && e.u == e.v) continue;
        neighbors[cursor[e.u]++] = e.v;
        neighbors[cursor[e.v]++] = e.u;
      }
    }
  }
  counts.clear();
  counts.shrink_to_fit();

  // Pass 3: sort adjacency lists; optionally deduplicate in place, tracking
  // the deduplicated degree per vertex.
  UninitVector<EdgeOffset> final_degree(num_vertices);
  support::parallel_for_dynamic(num_vertices, [&](VertexId v) {
    VertexId* first = neighbors.data() + offsets[v];
    VertexId* last = neighbors.data() + offsets[v + 1];
    std::sort(first, last);
    if (options.deduplicate_edges) {
      last = std::unique(first, last);
    }
    final_degree[v] = static_cast<EdgeOffset>(last - first);
  });

  // Pass 4: compact the neighbour array to the deduplicated degrees and,
  // when requested, drop zero-degree vertices and renumber.
  BuildResult result;
  const bool compact_vertices = options.remove_zero_degree_vertices;
  std::vector<VertexId> old_to_new;
  VertexId new_n = num_vertices;
  if (compact_vertices) {
    old_to_new.assign(num_vertices, BuildResult::kDroppedVertex);
    VertexId next = 0;
    for (VertexId v = 0; v < num_vertices; ++v) {
      if (final_degree[v] > 0) old_to_new[v] = next++;
    }
    new_n = next;
  }

  UninitVector<EdgeOffset> new_offsets(static_cast<std::size_t>(new_n) + 1);
  {
    EdgeOffset running = 0;
    VertexId out = 0;
    for (VertexId v = 0; v < num_vertices; ++v) {
      if (compact_vertices && final_degree[v] == 0) continue;
      new_offsets[out++] = running;
      running += final_degree[v];
    }
    THRIFTY_ASSERT(out == new_n);
    new_offsets[new_n] = running;
  }

  UninitVector<VertexId> new_neighbors(new_offsets.back());
  {
    // Gather per kept vertex; remap neighbour ids when compacting.
    UninitVector<EdgeOffset> src_start(new_n);
    UninitVector<VertexId> old_id(new_n);
    VertexId out = 0;
    for (VertexId v = 0; v < num_vertices; ++v) {
      if (compact_vertices && final_degree[v] == 0) continue;
      src_start[out] = offsets[v];
      old_id[out] = v;
      ++out;
    }
    support::parallel_for_dynamic(new_n, [&](VertexId nv) {
      const EdgeOffset count = new_offsets[nv + 1] - new_offsets[nv];
      const VertexId* src = neighbors.data() + src_start[nv];
      VertexId* dst = new_neighbors.data() + new_offsets[nv];
      for (EdgeOffset k = 0; k < count; ++k) {
        const VertexId nb = src[k];
        dst[k] = compact_vertices ? old_to_new[nb] : nb;
      }
    });
  }

  result.graph = CsrGraph(std::move(new_offsets), std::move(new_neighbors));
  result.old_to_new = std::move(old_to_new);
  return result;
}

BuildResult build_csr(const EdgeList& edges, const BuildOptions& options) {
  VertexId max_id = 0;
  bool any = false;
  for (const Edge& e : edges) {
    max_id = std::max({max_id, e.u, e.v});
    any = true;
  }
  return build_csr(edges, any ? max_id + 1 : 0, options);
}

}  // namespace thrifty::graph
