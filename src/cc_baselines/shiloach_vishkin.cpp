#include "cc_baselines/shiloach_vishkin.hpp"

#include <atomic>

#include "cc_baselines/concurrent_hook.hpp"
#include "instrument/run_stats.hpp"
#include "support/timer.hpp"

namespace thrifty::baselines {

using graph::Label;
using graph::VertexId;

core::CcResult shiloach_vishkin_cc(const graph::CsrGraph& graph,
                                   const core::CcOptions& options) {
  (void)options;
  const VertexId n = graph.num_vertices();
  core::CcResult result;
  result.stats.algorithm = "shiloach_vishkin";
  result.labels = core::make_label_array(n);
  core::LabelArray& comp = result.labels;
  support::Timer timer;
  if (n == 0) return result;

  support::parallel_for(n, [&](VertexId v) { comp[v] = v; });

  int iterations = 0;
  bool change = true;
  while (change) {
    change = false;
    ++iterations;
    std::atomic<bool> hooked{false};
    // Hook: for every edge (v, u) with comp[u] < comp[v], attach the root
    // of comp[v] (when comp[v] is currently a root) to comp[u].
#pragma omp parallel for num_threads(support::threads_for( \
    n + graph.num_directed_edges())) schedule(dynamic, 256)
    for (VertexId v = 0; v < n; ++v) {
      for (const VertexId u : graph.neighbors(v)) {
        const Label comp_v = core::load_label(comp[v]);
        const Label comp_u = core::load_label(comp[u]);
        // Hook only roots, so the parent forest keeps height O(log n)
        // together with shortcutting.
        if (comp_u < comp_v &&
            comp_v == core::load_label(comp[comp_v])) {
          core::store_label(comp[comp_v], comp_u);
          hooked.store(true, std::memory_order_relaxed);
        }
      }
    }
    // Shortcut: grandparent-jump sweeps until every vertex points at a
    // root (hook::flatten).
    hook::flatten(comp, n);
    change = hooked.load();
  }

  result.stats.total_ms = timer.elapsed_ms();
  result.stats.num_iterations = iterations;
  return result;
}

}  // namespace thrifty::baselines
