#include "cc_baselines/hybrid_cc.hpp"

#include <algorithm>
#include <utility>

#include "cc_baselines/concurrent_hook.hpp"
#include "core/thrifty.hpp"
#include "support/timer.hpp"

namespace thrifty::baselines {

using graph::EdgeOffset;
using graph::Label;
using graph::VertexId;

core::CcResult sampled_lp_cc(const graph::CsrGraph& graph,
                             const core::CcOptions& options) {
  const VertexId n = graph.num_vertices();
  core::CcResult result;
  result.stats.algorithm = "sampled_lp";
  result.labels = core::make_label_array(n);
  support::Timer timer;
  if (n == 0) return result;

  // Phase 1: k-out neighbour sampling into a concurrent union-find.
  core::LabelArray comp(n);
#pragma omp parallel for schedule(static)
  for (VertexId v = 0; v < n; ++v) comp[v] = v;
  const auto rounds =
      static_cast<EdgeOffset>(std::max(0, options.sample_rounds));
  for (EdgeOffset r = 0; r < rounds; ++r) {
#pragma omp parallel for schedule(dynamic, 1024)
    for (VertexId v = 0; v < n; ++v) {
      const auto neighbors = graph.neighbors(v);
      if (neighbors.size() > r) hook::link(v, neighbors[r], comp);
    }
    hook::compress(comp, n);
  }
  // With a zero sample budget there is no giant estimate: no component
  // receives the planted 0 and the LP finish simply converges without
  // the bottom-label early exit (slower, still correct).
  const std::optional<Label> giant = hook::sample_frequent_component(
      comp, n, options.component_sample_size, options.seed);

  // Seed labels: 0 across the estimated giant (region-wide Zero
  // Planting), root+1 elsewhere — distinct per phase-1 component, all
  // above the bottom.
#pragma omp parallel for schedule(static)
  for (VertexId v = 0; v < n; ++v) {
    const Label root = core::load_label(comp[v]);
    comp[v] = (giant && root == *giant) ? 0 : root + 1;
  }

  // Phase 2: Thrifty's loop finishes over the unsampled connectivity.
  core::CcResult finish =
      core::thrifty_propagate(graph, options, std::move(comp));
  result.labels = std::move(finish.labels);

  result.stats.total_ms = timer.elapsed_ms();
  result.stats.num_iterations =
      static_cast<int>(rounds) + finish.stats.num_iterations;
  result.stats.events = finish.stats.events;
  result.stats.instrumented = finish.stats.instrumented;
  return result;
}

}  // namespace thrifty::baselines
