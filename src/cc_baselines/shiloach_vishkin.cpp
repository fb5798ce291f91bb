#include "cc_baselines/shiloach_vishkin.hpp"

#include <atomic>

#include "instrument/run_stats.hpp"
#include "support/parallel.hpp"
#include "support/simd.hpp"
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

#pragma omp parallel for schedule(static)
  for (VertexId v = 0; v < n; ++v) comp[v] = v;

  int iterations = 0;
  bool change = true;
  while (change) {
    change = false;
    ++iterations;
    std::atomic<bool> hooked{false};
    // Hook: for every edge (v, u) with comp[u] < comp[v], attach the root
    // of comp[v] (when comp[v] is currently a root) to comp[u].
#pragma omp parallel for schedule(dynamic, 256)
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
    // root.  Each thread flattens a contiguous slice to its local fixed
    // point; the outer loop repeats until a barrier round in which no
    // slice changed, which proves the global fixed point (a neighbouring
    // slice can lower a parent after this slice's own sweep stabilises).
    std::atomic<bool> flattening{true};
    while (flattening.load(std::memory_order_relaxed)) {
      flattening.store(false, std::memory_order_relaxed);
      support::parallel_region([&](int t, int threads) {
        const auto [begin, end] = support::thread_slice(n, t, threads);
        if (support::simd::flatten_u32(comp.data(), begin, end)) {
          flattening.store(true, std::memory_order_relaxed);
        }
      });
    }
    change = hooked.load();
  }

  result.stats.total_ms = timer.elapsed_ms();
  result.stats.num_iterations = iterations;
  return result;
}

}  // namespace thrifty::baselines
