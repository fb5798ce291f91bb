// Thrifty Label Propagation — Algorithm 2 of the paper, the primary
// contribution: direction-optimising label propagation specialised for
// skewed-degree graphs through four techniques:
//
//   1. Unified Labels Array (§IV-A) — one label array; updates propagate
//      within the iteration that computes them.
//   2. Zero Convergence (§IV-B) — label 0 is the global minimum, so any
//      vertex holding it has converged: skip it, and cut neighbour scans
//      short the moment a 0 is seen.
//   3. Zero Planting (§IV-C) — initial labels are v+1, and label 0 is
//      planted on the maximum-degree vertex, which almost surely lies in
//      (and is central to) the giant component.
//   4. Initial Push (§IV-D) — iteration 0 pushes the zero label from the
//      planted hub to its neighbours only, instead of a full pull pass.
//
// Implementation details follow §IV-E: 1% push/pull threshold, count-only
// pull frontiers with a detailed Pull-Frontier iteration just before
// switching to push, and per-thread push worklists with non-atomic
// byte-array duplicate suppression and work stealing.
//
// The iteration loop exists once.  `thrifty_cc_variant` plants, runs the
// optional Initial Push and enters it; `thrifty_propagate` enters it from
// caller-supplied labels (the Sampled+LP hybrid's finish).
#pragma once

#include <string>

#include "core/cc_common.hpp"

namespace thrifty::core {

[[nodiscard]] CcResult thrifty_cc(const graph::CsrGraph& graph,
                                  const CcOptions& options = {});

/// Where Zero Planting places the zero label.  kMaxDegree is the paper's
/// heuristic; the alternatives exist for the per-technique ablation study
/// (a random site models the "uniformly at random" baseline of §IV-B, a
/// fixed first-vertex site models structure-oblivious planting).
enum class PlantSite { kMaxDegree, kRandom, kFirstVertex };

/// Per-technique toggles for ablation experiments.  Defaults reproduce
/// full Thrifty; switching a flag off removes exactly one §IV technique
/// while keeping the rest of the machinery identical.
struct ThriftyVariant {
  PlantSite plant_site = PlantSite::kMaxDegree;
  /// Off: iteration 0 is skipped and the run starts with pull iterations
  /// over all vertices (DO-LP-style eager bootstrap).
  bool initial_push = true;
  /// Off: no converged-vertex skipping and no early scan exit.
  bool zero_convergence = true;

  [[nodiscard]] std::string describe() const;
};

/// Thrifty with selected techniques disabled — the ablation entry point.
/// `thrifty_cc(g, o)` is exactly `thrifty_cc_variant(g, o, {})`.
[[nodiscard]] CcResult thrifty_cc_variant(const graph::CsrGraph& graph,
                                          const CcOptions& options,
                                          const ThriftyVariant& variant);

/// Thrifty's loop from caller-supplied labels, one per vertex: no planting
/// and no Initial Push, so iteration 0 is a full pull (the
/// `initial_push = false` path), followed by Zero-Convergence pulls,
/// Pull-Frontier and worklist pushes.  Every vertex ends at the minimum
/// initial label of its component; label 0, if present, is the bottom
/// Zero Convergence keys on.
/// `options.instrument` is honoured as in `thrifty_cc_variant`.
[[nodiscard]] CcResult thrifty_propagate(const graph::CsrGraph& graph,
                                         const CcOptions& options,
                                         LabelArray initial);

}  // namespace thrifty::core
