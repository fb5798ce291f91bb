#include "cc_baselines/jayanti_tarjan.hpp"

#include <atomic>

#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

namespace thrifty::baselines {

using graph::Label;
using graph::VertexId;

namespace {

Label concurrent_find(core::LabelArray& parent, Label v) {
  // Path halving: relaxed CAS shortcuts are best-effort; parents only
  // ever move towards a root, so stale observations stay safe.
  while (true) {
    const Label p = core::load_label(parent[v]);
    const Label gp = core::load_label(parent[p]);
    if (p == gp) return p;
    std::atomic_ref<Label> ref(parent[v]);
    Label expected = p;
    ref.compare_exchange_weak(expected, gp, std::memory_order_relaxed);
    v = gp;
  }
}

/// Random linking priority; ties impossible because the vertex id is
/// mixed into the comparison key.
std::uint64_t priority(std::uint64_t seed, Label v) {
  return support::hash_mix(seed, v);
}

void unite(core::LabelArray& parent, Label u, Label v,
           std::uint64_t seed) {
  while (true) {
    const Label ru = concurrent_find(parent, u);
    const Label rv = concurrent_find(parent, v);
    if (ru == rv) return;
    // Attach the lower-priority root below the higher-priority one.
    const std::uint64_t pu = priority(seed, ru);
    const std::uint64_t pv = priority(seed, rv);
    const bool u_lower = (pu < pv) || (pu == pv && ru < rv);
    const Label lo = u_lower ? ru : rv;
    const Label hi = u_lower ? rv : ru;
    std::atomic_ref<Label> ref(parent[lo]);
    Label expected = lo;
    if (ref.compare_exchange_strong(expected, hi,
                                    std::memory_order_relaxed)) {
      return;
    }
    // Someone linked `lo` first; retry from the new roots.
  }
}

}  // namespace

core::CcResult jayanti_tarjan_cc(const graph::CsrGraph& graph,
                                 const core::CcOptions& options) {
  const VertexId n = graph.num_vertices();
  core::CcResult result;
  result.stats.algorithm = "jayanti_tarjan";
  result.labels = core::make_label_array(n);
  core::LabelArray& parent = result.labels;
  support::Timer timer;
  if (n == 0) return result;

  support::parallel_for(n, [&](VertexId v) { parent[v] = v; });

  // One pass over the edges; the u > v filter processes each undirected
  // edge exactly once, as the algorithm requires only a coordinate
  // representation.
#pragma omp parallel for num_threads(support::threads_for( \
    n + graph.num_directed_edges())) schedule(dynamic, 256)
  for (VertexId v = 0; v < n; ++v) {
    for (const VertexId u : graph.neighbors(v)) {
      if (u > v) unite(parent, v, u, options.seed);
    }
  }

  // Flatten so every vertex is labelled by its root.
  support::parallel_for(n, [&](VertexId v) {
    core::store_label(parent[v], concurrent_find(parent, v));
  });

  result.stats.total_ms = timer.elapsed_ms();
  result.stats.num_iterations = 1;
  return result;
}

}  // namespace thrifty::baselines
