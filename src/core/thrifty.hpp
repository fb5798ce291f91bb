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
// Implementation details follow §IV-E: 1% push/pull threshold, a
// detailed Pull-Frontier built by every pull until its change list turns
// dense (so a sparse result goes straight to push), and per-thread push
// worklists with non-atomic byte-array duplicate suppression and work
// stealing.
//
// On top of the paper's four techniques, this repository adds one
// pointer jump per pull vertex (the shortcut step of log-step label
// propagation and of Afforest): after Zero Planting a label x > 0 names
// vertex x - 1, which lies in the same component and holds a label
// <= x, so a pull also takes that vertex's label.  The fixed point is
// unchanged, and label 0 never jumps.  It lets the minimum cross a
// high-diameter graph in a few sweeps; `ThriftyVariant::pointer_jump`
// switches it off to run the paper's exact loop (Table V).
//
// The iteration loop exists once, behind `thrifty_cc_variant`: it
// plants, runs the optional Initial Push and enters the loop, each step
// as its `ThriftyVariant` selects.
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
  /// Off: pulls take the neighbour minimum only, the paper's exact loop
  /// (this repository's addition, not a §IV technique).
  bool pointer_jump = true;

  [[nodiscard]] std::string describe() const;
};

/// Thrifty with selected techniques disabled — the ablation entry point.
/// `thrifty_cc(g, o)` is exactly `thrifty_cc_variant(g, o, {})`.
[[nodiscard]] CcResult thrifty_cc_variant(const graph::CsrGraph& graph,
                                          const CcOptions& options,
                                          const ThriftyVariant& variant);

}  // namespace thrifty::core
