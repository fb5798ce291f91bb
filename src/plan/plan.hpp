// Adaptive execution planning for the "adaptive" registry entry.
//
// Following Sutton et al.'s adaptive CC engine and ConnectIt's
// sampling-then-finish decomposition, the strategy (pull sweeps,
// frontier push, an async drain, union-find finishing) is a
// *per-iteration* decision: the AdaptivePlanner observes the graph's
// structure (degree skew, density) once and the frontier trajectory
// every iteration, and names the StepKind the executor (plan/solve.hpp)
// runs next.
#pragma once

#include <cstdint>

#include "frontier/density.hpp"
#include "graph/csr_graph.hpp"

namespace thrifty::plan {

/// What the executor runs for one iteration.
enum class StepKind {
  /// Full Jacobi pull sweep (gather-min over every vertex).
  kPull,
  /// Pull sweep that additionally materialises the changed-vertex
  /// frontier, enabling push iterations afterwards.
  kPullFrontier,
  /// Frontier push: propagate each frontier vertex's captured label to
  /// its neighbours with atomic-min.
  kPush,
  /// Union-find finish: hook every edge into a forest seeded from the
  /// current labels, compress, done (terminal, exact).
  kFinish,
  /// Barrier-free async drain (core/async_cc.hpp): edge-balanced
  /// partitions propagate through the shared label array with CAS-min
  /// publishes and per-partition dirty flags until global quiescence
  /// (terminal, exact — the min fixed point is schedule-independent).
  kAsync,
};

/// Sampled giant-component coverage at which the planner cuts over to
/// the union-find finish.
inline constexpr double kFinishCutover = 0.75;

/// What the planner can see when deciding iteration `iteration`.  All
/// fields are deterministic functions of (graph, options, previous
/// steps) — the executor's Jacobi/captured-label discipline keeps them
/// independent of thread count and schedule.
struct Observation {
  int iteration = 0;
  /// Vertices whose label changed in the previous iteration (every
  /// vertex before the first).
  std::uint64_t active_vertices = 0;
  /// Combined degree of those vertices.
  std::uint64_t active_edges = 0;
  /// Frontier density (|F.V| + |F.E|) / |E| those counts imply.
  double density = 0.0;
  /// Fraction of a seeded label sample covered by the most frequent
  /// label — the ConnectIt giant-component estimate.  Negative when the
  /// executor did not sample this iteration.
  double giant_fraction = -1.0;
  /// Whether a materialised frontier from the previous iteration exists
  /// (a push step is only executable when it does).
  bool have_frontier = false;
};

/// Structure profile sampled once at solve start (seeded, O(samples)).
struct GraphProfile {
  graph::VertexId num_vertices = 0;
  graph::EdgeOffset num_directed_edges = 0;
  double average_degree = 0.0;
  /// Largest degree seen: the vertex sample, anchored by the exact
  /// maximum-degree scan (a sample alone almost surely misses a single
  /// dominant hub).
  graph::EdgeOffset max_sampled_degree = 0;
  /// max_sampled_degree / max(average_degree, 1) — the skew signal that
  /// gates the async drain.
  double skew = 0.0;

  [[nodiscard]] static GraphProfile sample(const graph::CsrGraph& graph,
                                           std::uint64_t seed,
                                           std::uint32_t samples = 1024);
};

/// Knobs of the adaptive planner.
struct PlanOptions {
  /// Push/pull switch point on frontier density.
  double density_threshold = frontier::kThriftyThreshold;
  /// Sampled degree skew at or above which the planner never routes a
  /// mid-density iteration to the async drain.
  double async_max_skew = 8.0;
};

/// Density-threshold direction switching, a mid-density barrier-free
/// async drain on moderate-skew profiles, and a sampled giant-component
/// cutover to the finish.  next() is called once per iteration while the
/// solve has not converged and is deterministic in (profile, options,
/// observation).
class AdaptivePlanner {
 public:
  AdaptivePlanner(const GraphProfile& profile, const PlanOptions& options);
  [[nodiscard]] StepKind next(const Observation& observation) const;

 private:
  GraphProfile profile_;
  PlanOptions options_;
};

}  // namespace thrifty::plan
