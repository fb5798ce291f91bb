// Deterministic plan-driven connected-components executor.
//
// solve_adaptive runs label propagation one step at a time, asking the
// AdaptivePlanner (plan/plan.hpp) what to do before every iteration and
// recording each executed step's direction in the result's RunStats.
// The executor is built so that the *bytes* of the final label array
// depend only on the graph:
//
//   * labels start at identity, so the unique fixed point is the
//     canonical min-id labelling — every step sequence that converges
//     produces the same bytes;
//   * pull sweeps are Jacobi (two-array): new[v] = min(old[v],
//     min old[N(v)]) through the SIMD gather kernel, whose variants are
//     bit-identical, so neither thread count nor instruction set leaks;
//   * push sweeps propagate labels *captured at frontier build time*:
//     atomic-min over a fixed value set is commutative, so the
//     post-iteration labels and changed-vertex set are schedule-
//     independent; the next frontier re-reads final labels after the
//     barrier (two-phase capture) and is packed in ascending vertex
//     order;
//   * the union-find finish converges to the unique min-root forest.
//
// The executor owns convergence: a zero-change full sweep or an empty
// push frontier is a fixed point regardless of what the planner would
// pick next.
#pragma once

#include "core/cc_common.hpp"

namespace thrifty::plan {

/// Registry entry point (the "adaptive" algorithm): the density
/// threshold, seed and sample size come from CcOptions, the kernel
/// ceiling from run_config().simd.
[[nodiscard]] core::CcResult solve_adaptive(const graph::CsrGraph& graph,
                                            const core::CcOptions& options);

}  // namespace thrifty::plan
