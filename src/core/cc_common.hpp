// Shared types and helpers for every connected-components algorithm in
// this library: options, results, the atomic-min primitive of label
// propagation, and label-partition utilities used by tests and benches.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "frontier/density.hpp"
#include "graph/csr_graph.hpp"
#include "graph/types.hpp"
#include "instrument/run_stats.hpp"
#include "support/uninit_vector.hpp"

namespace thrifty::core {

/// One label per vertex; uninitialised on allocation so the first touch
/// happens in the algorithm's parallel initialisation loop.
using LabelArray = support::UninitVector<graph::Label>;

/// Allocates the per-vertex label array uninitialised.  Its pages
/// fault in inside the caller's parallel init loop, on the node of the
/// thread that will traverse them (first touch).
[[nodiscard]] inline LabelArray make_label_array(std::uint64_t n) {
  return LabelArray(static_cast<std::size_t>(n));
}

struct CcOptions {
  /// Push/pull direction threshold on frontier density.  1% is the value
  /// the paper identifies as best for Thrifty (§IV-E); DO-LP-family
  /// systems traditionally use 5%.
  double density_threshold = frontier::kThriftyThreshold;
  /// When true, collect software event counters and per-iteration
  /// convergence curves (slower; never use for timing comparisons).
  bool instrument = false;
  /// Seed for randomised algorithms (Jayanti–Tarjan priorities, Afforest
  /// sampling).
  std::uint64_t seed = 1;
  /// Partitions per thread for work-stealing schedules (§V-A uses 32).
  int partitions_per_thread = 32;
  /// Afforest: neighbour-sampling rounds (GAP default 2).
  int sample_rounds = 2;
  /// Afforest: vertices sampled when estimating the largest intermediate
  /// component.
  std::uint32_t component_sample_size = 1024;
};

struct CcResult {
  LabelArray labels;
  instrument::RunStats stats;

  [[nodiscard]] std::span<const graph::Label> label_span() const {
    return {labels.data(), labels.size()};
  }
};

/// Signature every CC algorithm in the library implements.
using CcFunction = CcResult (*)(const graph::CsrGraph&, const CcOptions&);

/// atomic_min of Algorithm 1/2: installs `value` into `*target` iff it is
/// smaller, via CAS; returns true when the store happened.  Relaxed
/// ordering suffices — label propagation is a monotone fixed-point
/// computation whose result does not depend on observation order.
inline bool atomic_min(graph::Label& target, graph::Label value) {
  std::atomic_ref<graph::Label> ref(target);
  graph::Label current = ref.load(std::memory_order_relaxed);
  while (value < current) {
    if (ref.compare_exchange_weak(current, value,
                                  std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

/// Relaxed atomic load/store helpers for the Unified Labels Array, whose
/// whole point is that concurrent same-iteration reads of in-flight
/// updates are welcome.
inline graph::Label load_label(const graph::Label& slot) {
  return std::atomic_ref<const graph::Label>(slot).load(
      std::memory_order_relaxed);
}
inline void store_label(graph::Label& slot, graph::Label value) {
  std::atomic_ref<graph::Label>(slot).store(value,
                                            std::memory_order_relaxed);
}

/// Parallel label-array copy (the DO-LP synchronisation sweep), routed
/// through the SIMD kernel layer.  `src` and `dst` must not overlap.
void copy_labels(std::span<const graph::Label> src,
                 std::span<graph::Label> dst);

/// Parallel count of positions where the two labellings agree — the
/// convergence sweep behind the instrumented per-iteration curves.
/// Routed through the SIMD kernel layer; bit-identical at every level.
[[nodiscard]] std::uint64_t count_equal_labels(
    std::span<const graph::Label> a, std::span<const graph::Label> b);

/// Number of distinct labels (= components, when labels are a valid CC
/// labelling).
[[nodiscard]] std::uint64_t count_components(
    std::span<const graph::Label> labels);

/// Canonicalises a labelling: every vertex receives the smallest vertex
/// id in its label class.  Two labellings describe the same partition iff
/// their canonical forms are equal.
[[nodiscard]] std::vector<graph::Label> canonical_labels(
    std::span<const graph::Label> labels);

/// True when `a` and `b` induce the same partition of vertices.
[[nodiscard]] bool same_partition(std::span<const graph::Label> a,
                                  std::span<const graph::Label> b);

/// Size of the largest label class and one of its labels.
struct LargestComponent {
  graph::Label label = 0;
  std::uint64_t size = 0;
};
[[nodiscard]] LargestComponent largest_component(
    std::span<const graph::Label> labels);

/// Remaps labels to dense ids 0..k-1 in order of first appearance —
/// the form downstream consumers (clustering, partitioning) usually
/// want.  The partition is unchanged.
[[nodiscard]] std::vector<graph::Label> compact_labels(
    std::span<const graph::Label> labels);

/// Sizes of all label classes, sorted descending.
[[nodiscard]] std::vector<std::uint64_t> component_sizes(
    std::span<const graph::Label> labels);

/// Full component census: every label class with its size, sorted by
/// size descending (ties broken by smaller label).  The labelled variant
/// of component_sizes, for consumers that must answer "which component"
/// as well as "how large" (the serving layer's top-k listing).
[[nodiscard]] std::vector<LargestComponent> component_census(
    std::span<const graph::Label> labels);

}  // namespace thrifty::core
