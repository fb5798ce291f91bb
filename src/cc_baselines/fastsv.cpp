#include "cc_baselines/fastsv.hpp"

#include <atomic>

#include "cc_baselines/concurrent_hook.hpp"
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
    // single grandparent hop per round, which takes fewer rounds.  A
    // flatten that moves an entry counts as a change: the forest was not
    // yet a set of stars.
    if (hook::flatten(f, n)) {
      changed.store(true, std::memory_order_relaxed);
    }
    change = changed.load();
  }

  // Final flatten: after convergence the forest is already a set of
  // stars (the last round's flatten reported no change), but re-running
  // it keeps the postcondition independent of scheduling.
  hook::flatten(f, n);

  result.stats.total_ms = timer.elapsed_ms();
  result.stats.num_iterations = iterations;
  return result;
}

}  // namespace thrifty::baselines
