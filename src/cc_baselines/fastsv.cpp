#include "cc_baselines/fastsv.hpp"

#include <atomic>

#include "support/parallel.hpp"
#include "support/simd.hpp"
#include "support/timer.hpp"

namespace thrifty::baselines {

using graph::Label;
using graph::VertexId;

core::CcResult fastsv_cc(const graph::CsrGraph& graph,
                         const core::CcOptions& options) {
  (void)options;
  const VertexId n = graph.num_vertices();
  core::CcResult result;
  result.stats.algorithm = "fastsv";
  result.labels = core::make_label_array(n);
  core::LabelArray& f = result.labels;
  support::Timer timer;
  if (n == 0) return result;

#pragma omp parallel for schedule(static)
  for (VertexId v = 0; v < n; ++v) f[v] = v;

  // All updates are atomic mins over a well-founded order, so every race
  // is benign and every round strictly decreases some entry until the
  // fixed point.
  auto grandparent = [&](VertexId v) {
    return core::load_label(f[core::load_label(f[v])]);
  };

  // Flattens the whole parent forest through the grandparent-shortcut
  // kernel.  Each thread sweeps a contiguous slice to its local fixed
  // point; a barrier round in which no slice changed proves the global
  // fixed point (a neighbouring slice can lower a parent after this
  // slice's own sweep stabilises, so one pass is not enough).  Returns
  // whether any entry moved, i.e. the forest was not already a set of
  // stars — a property of the input state, independent of the thread
  // count.
  auto flatten_forest = [&]() {
    bool any = false;
    std::atomic<bool> again{true};
    while (again.load(std::memory_order_relaxed)) {
      again.store(false, std::memory_order_relaxed);
      support::parallel_region([&](int t, int threads) {
        const auto [begin, end] = support::thread_slice(n, t, threads);
        if (support::simd::flatten_u32(f.data(), begin, end)) {
          again.store(true, std::memory_order_relaxed);
        }
      });
      any = any || again.load(std::memory_order_relaxed);
    }
    return any;
  };

  int iterations = 0;
  bool change = true;
  while (change) {
    ++iterations;
    std::atomic<bool> changed{false};
#pragma omp parallel for schedule(dynamic, 256)
    for (VertexId u = 0; u < n; ++u) {
      for (const VertexId v : graph.neighbors(u)) {
        const Label gv = grandparent(v);
        // Stochastic hooking: pull v's grandparent under u's parent.
        const Label fu = core::load_label(f[u]);
        if (core::atomic_min(f[fu], gv)) {
          changed.store(true, std::memory_order_relaxed);
        }
        // Aggressive hooking: pull it under u itself.
        if (core::atomic_min(f[u], gv)) {
          changed.store(true, std::memory_order_relaxed);
        }
      }
    }
    // Shortcutting: flatten to a set of stars in one go rather than a
    // single grandparent hop per round — fewer rounds, and the dense
    // sweep runs on the vectorized kernel.
    if (flatten_forest()) {
      changed.store(true, std::memory_order_relaxed);
    }
    change = changed.load();
  }

  // Final flatten: after convergence the forest is already a set of
  // stars (the last round's flatten_forest() reported no change), but
  // re-running it keeps the postcondition independent of scheduling.
  flatten_forest();

  result.stats.total_ms = timer.elapsed_ms();
  result.stats.num_iterations = iterations;
  return result;
}

}  // namespace thrifty::baselines
