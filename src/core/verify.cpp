#include "core/verify.hpp"

#include <atomic>

#include "core/cc_common.hpp"
#include "core/union_find.hpp"
#include "support/parallel.hpp"

namespace thrifty::core {

using graph::Label;
using graph::VertexId;

bool edge_consistent(const graph::CsrGraph& graph,
                     std::span<const Label> labels) {
  if (labels.size() != graph.num_vertices()) return false;
  const VertexId n = graph.num_vertices();
  std::atomic<bool> consistent{true};
#pragma omp parallel for num_threads(support::threads_for( \
    n + graph.num_directed_edges())) schedule(dynamic, 1024)
  for (VertexId v = 0; v < n; ++v) {
    if (!consistent.load(std::memory_order_relaxed)) continue;
    const Label lv = labels[v];
    for (const VertexId u : graph.neighbors(v)) {
      if (labels[u] != lv) {
        consistent.store(false, std::memory_order_relaxed);
        break;
      }
    }
  }
  return consistent.load();
}

std::uint64_t true_component_count(const graph::CsrGraph& graph) {
  const VertexId n = graph.num_vertices();
  UnionFind dsu(n);
  for (VertexId v = 0; v < n; ++v) {
    for (const VertexId u : graph.neighbors(v)) {
      if (u > v) dsu.unite(v, u);
    }
  }
  return dsu.num_sets();
}

VerifyResult verify_labels(const graph::CsrGraph& graph,
                           std::span<const Label> labels) {
  VerifyResult result;
  if (labels.size() != graph.num_vertices()) {
    result.message = "label array size does not match vertex count";
    return result;
  }
  if (graph.num_vertices() == 0) {
    result.valid = true;
    result.message = "empty graph";
    return result;
  }
  if (!edge_consistent(graph, labels)) {
    result.message = "labels differ across an edge";
    return result;
  }
  const std::uint64_t truth = true_component_count(graph);
  const std::uint64_t labelled = count_components(labels);
  result.components = labelled;
  if (labelled != truth) {
    result.message = "distinct label count " + std::to_string(labelled) +
                     " != true component count " + std::to_string(truth);
    return result;
  }
  result.valid = true;
  result.message = "ok";
  return result;
}

}  // namespace thrifty::core
