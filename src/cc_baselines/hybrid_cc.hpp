// ConnectIt-style hybrid (the paper's related work [24] combines
// sampling strategies with finish strategies): Afforest's k-out neighbour
// sampling seeds a union-find, the most frequent sampled component is
// taken as the giant, and the remaining connectivity is *finished with
// Thrifty's own loop* (`core::thrifty_propagate`) — the giant's vertices
// get the zero label (Zero Planting from an entire seeded region rather
// than a single hub), every other phase-1 component gets a distinct
// label, and the direction-optimised pull/push iterations with Zero
// Convergence close the gap over the unsampled edges.
//
// This realises the ConnectIt idea the paper could not evaluate ("its
// code repository was under modification and could not be compiled"),
// with label propagation as the finish strategy.
#pragma once

#include "core/cc_common.hpp"

namespace thrifty::baselines {

[[nodiscard]] core::CcResult sampled_lp_cc(
    const graph::CsrGraph& graph, const core::CcOptions& options = {});

}  // namespace thrifty::baselines
