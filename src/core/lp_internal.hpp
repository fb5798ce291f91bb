// Internals shared by the label-propagation implementations (DO-LP,
// DO-LP+Unified, Thrifty): instrumented-convergence counting and
// per-iteration event snapshots.  Not part of the public API.
#pragma once

#include <cstdint>
#include <span>

#include "core/cc_common.hpp"
#include "graph/types.hpp"
#include "instrument/counters.hpp"

namespace thrifty::core::detail {

/// Number of vertices whose current label already equals its final label.
/// Used only in instrumented runs to fill IterationRecord::converged_
/// vertices (Figures 3, 7, 8).
[[nodiscard]] inline std::uint64_t count_converged(
    std::span<const graph::Label> current,
    std::span<const graph::Label> final_labels) {
  return count_equal_labels(current, final_labels);
}

/// Difference of edges_processed between two counter snapshots.
[[nodiscard]] inline std::uint64_t edges_delta(
    const instrument::EventCounters& before,
    const instrument::EventCounters& after) {
  return after.edges_processed - before.edges_processed;
}

}  // namespace thrifty::core::detail
