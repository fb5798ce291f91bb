#include "plan/plan.hpp"

#include <algorithm>

#include "support/random.hpp"

namespace thrifty::plan {

GraphProfile GraphProfile::sample(const graph::CsrGraph& graph,
                                  std::uint64_t seed,
                                  std::uint32_t samples) {
  GraphProfile profile;
  profile.num_vertices = graph.num_vertices();
  profile.num_directed_edges = graph.num_directed_edges();
  if (profile.num_vertices == 0) return profile;
  profile.average_degree =
      static_cast<double>(profile.num_directed_edges) /
      static_cast<double>(profile.num_vertices);
  // With few enough vertices, scan exactly instead of sampling.
  if (profile.num_vertices <= samples) {
    for (graph::VertexId v = 0; v < profile.num_vertices; ++v) {
      profile.max_sampled_degree =
          std::max(profile.max_sampled_degree, graph.degree(v));
    }
  } else {
    support::Xoshiro256StarStar rng(seed);
    for (std::uint32_t i = 0; i < samples; ++i) {
      const auto v = static_cast<graph::VertexId>(
          rng.next_below(profile.num_vertices));
      profile.max_sampled_degree =
          std::max(profile.max_sampled_degree, graph.degree(v));
    }
    // A vertex sample almost surely misses a *single* dominant hub —
    // the defining shape this profile exists to detect — so anchor the
    // estimate with the exact maximum-degree sweep the paper already
    // prescribes (Algorithm 2, Lines 5-8; an O(n) parallel scan).
    if (profile.num_directed_edges > 0) {
      profile.max_sampled_degree =
          std::max(profile.max_sampled_degree,
                   graph.degree(graph.max_degree_vertex()));
    }
  }
  profile.skew = static_cast<double>(profile.max_sampled_degree) /
                 std::max(profile.average_degree, 1.0);
  return profile;
}

AdaptivePlanner::AdaptivePlanner(const GraphProfile& profile,
                                 const PlanOptions& options)
    : profile_(profile), options_(options) {}

StepKind AdaptivePlanner::next(const Observation& observation) const {
  // Sampling-then-finish: once the sampled giant component covers the
  // cutover fraction, one union-find pass over the remaining edges beats
  // any number of further sweeps.  giant_fraction is negative until the
  // executor has a sweep's worth of labels to sample, so the cutover
  // can never fire before iteration 1.
  if (observation.giant_fraction >= kFinishCutover) return StepKind::kFinish;

  // Direction optimisation on the Thrifty density rule: sparse frontiers
  // push, dense ones pull.  The first iteration has no trajectory yet —
  // a full pull that also materialises the frontier bootstraps both the
  // labels and the density signal.
  if (observation.iteration == 0) return StepKind::kPullFrontier;
  if (frontier::is_sparse(observation.density, options_.density_threshold)) {
    return observation.have_frontier ? StepKind::kPush
                                     : StepKind::kPullFrontier;
  }
  const bool mid_density =
      observation.density < 4.0 * options_.density_threshold;
  // Mid-density + moderate skew: the frontier still carries real mass
  // but no single hub dominates, so per-partition work is balanced
  // and the remaining propagation drains faster barrier-free than
  // through further synchronous sweeps (each of which pays a global
  // barrier per label hop).  Hub-dominated profiles keep the
  // synchronous path: one hub would pin the partition that owns it
  // while the others idle.  A skew below 1 only occurs in
  // degenerate or synthetic profiles, where the signal says nothing.
  if (mid_density && profile_.skew >= 1.0 &&
      profile_.skew < options_.async_max_skew) {
    return StepKind::kAsync;
  }
  // Dense phase: plain pulls are cheapest, but keep the frontier
  // materialised while the trajectory is near the switch point so a
  // push is executable the moment the frontier thins out.
  return mid_density ? StepKind::kPullFrontier : StepKind::kPull;
}

}  // namespace thrifty::plan
