// Central registry of every CC algorithm in the library, so tests sweep
// all of them uniformly and benchmarks address them by the names used in
// the paper's tables.
#pragma once

#include <span>
#include <string_view>

#include "core/cc_common.hpp"

namespace thrifty::baselines {

struct AlgorithmEntry {
  /// Registry key (e.g. "thrifty").
  std::string_view name;
  /// Display name matching the paper's tables (e.g. "Thrifty").
  std::string_view display_name;
  core::CcFunction function;
  /// Whether the algorithm is a label-propagation variant (as opposed to
  /// disjoint-set or flood-filling).
  bool is_label_propagation;
  /// Default density threshold the algorithm's original system uses (only
  /// meaningful for direction-optimising label propagation).
  double default_threshold;
};

/// All algorithms, in the column order of Table IV: SV, BFS-CC, DO-LP,
/// JT, Afforest, Thrifty — plus the extras (dolp_unified, adaptive,
/// async, reference) after them.
[[nodiscard]] std::span<const AlgorithmEntry> all_algorithms();

/// The six algorithms of Table IV only.
[[nodiscard]] std::span<const AlgorithmEntry> paper_algorithms();

/// Lookup by registry key; returns nullptr when unknown.
[[nodiscard]] const AlgorithmEntry* find_algorithm(std::string_view name);

/// The options run_algorithm actually uses: label-propagation entries
/// with a preferred density threshold (DO-LP-family 5%, Thrifty 1%) have
/// it applied; for every other entry `options` passes through untouched.
[[nodiscard]] core::CcOptions effective_options(const AlgorithmEntry& entry,
                                                core::CcOptions options);

/// Runs an entry under effective_options(entry, options).  To sweep
/// thresholds (Table VII), call the algorithm's function directly
/// instead.
[[nodiscard]] core::CcResult run_algorithm(const AlgorithmEntry& entry,
                                           const graph::CsrGraph& graph,
                                           core::CcOptions options = {});

}  // namespace thrifty::baselines
