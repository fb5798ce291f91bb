#include "cc_baselines/afforest.hpp"

#include <algorithm>

#include "cc_baselines/concurrent_hook.hpp"
#include "support/timer.hpp"

namespace thrifty::baselines {

using graph::EdgeOffset;
using graph::Label;
using graph::VertexId;

core::CcResult afforest_cc(const graph::CsrGraph& graph,
                           const core::CcOptions& options) {
  const VertexId n = graph.num_vertices();
  core::CcResult result;
  result.stats.algorithm = "afforest";
  result.labels = core::make_label_array(n);
  core::LabelArray& comp = result.labels;
  support::Timer timer;
  if (n == 0) return result;

  support::parallel_for(n, [&](VertexId v) { comp[v] = v; });

  // Phase 1: neighbour sampling — link each vertex with its first
  // `sample_rounds` neighbours only.
  const auto rounds = static_cast<EdgeOffset>(
      std::max(0, options.sample_rounds));
  for (EdgeOffset r = 0; r < rounds; ++r) {
    support::parallel_for_dynamic(n, [&](VertexId v) {
      const auto neighbors = graph.neighbors(v);
      if (neighbors.size() > r) hook::link(v, neighbors[r], comp);
    });
    hook::compress(comp, n);
  }

  // Phase 2: estimate the giant component from a vertex sample.  With a
  // zero sample budget there is no estimate — skip nothing and finish
  // every vertex (correct, just without the giant-skipping speedup).
  const std::optional<Label> giant = hook::sample_frequent_component(
      comp, n, options.component_sample_size, options.seed);

  // Phase 3: finish the unsampled edges of vertices outside the giant
  // component; members of the giant component are skipped entirely.
#pragma omp parallel for num_threads(support::threads_for( \
    n + graph.num_directed_edges())) schedule(dynamic, 256)
  for (VertexId v = 0; v < n; ++v) {
    if (giant && core::load_label(comp[v]) == *giant) continue;
    const auto neighbors = graph.neighbors(v);
    for (std::size_t i = rounds; i < neighbors.size(); ++i) {
      hook::link(v, neighbors[i], comp);
    }
  }
  hook::compress(comp, n);

  result.stats.total_ms = timer.elapsed_ms();
  result.stats.num_iterations = static_cast<int>(rounds) + 1;
  return result;
}

}  // namespace thrifty::baselines
