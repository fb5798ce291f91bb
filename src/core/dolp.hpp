// Direction-Optimizing Label Propagation — Algorithm 1 of the paper, the
// state-of-the-art label propagation baseline Thrifty is built from.  Two
// label arrays (old/new) synchronised at the end of every iteration, two
// frontiers, and push/pull selection on frontier density.
//
// `dolp_unified_cc` is the §V-D ablation variant: Algorithm 1 with only
// the Unified Labels Array optimisation applied (a single label array, no
// end-of-iteration synchronisation), isolating that technique's
// contribution from Zero Planting / Zero Convergence / Initial Push.
#pragma once

#include "core/cc_common.hpp"

namespace thrifty::core {

/// Algorithm 1 (faithful: old/new label arrays, full synchronisation).
[[nodiscard]] CcResult dolp_cc(const graph::CsrGraph& graph,
                               const CcOptions& options = {});

/// Algorithm 1 + Unified Labels Array only (ablation variant of §V-D).
[[nodiscard]] CcResult dolp_unified_cc(const graph::CsrGraph& graph,
                                       const CcOptions& options = {});

}  // namespace thrifty::core
