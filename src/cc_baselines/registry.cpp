#include "cc_baselines/registry.hpp"

#include <array>

#include "cc_baselines/afforest.hpp"
#include "cc_baselines/bfs_cc.hpp"
#include "cc_baselines/jayanti_tarjan.hpp"
#include "cc_baselines/reference_cc.hpp"
#include "cc_baselines/shiloach_vishkin.hpp"
#include "core/async_cc.hpp"
#include "core/dolp.hpp"
#include "core/thrifty.hpp"
#include "frontier/density.hpp"
#include "plan/solve.hpp"

namespace thrifty::baselines {

namespace {

constexpr std::array<AlgorithmEntry, 10> kAlgorithms = {{
    {"sv", "SV", &shiloach_vishkin_cc, false, 0.0},
    {"bfs_cc", "BFS-CC", &bfs_cc, false, 0.0},
    {"dolp", "DO-LP", &core::dolp_cc, true, frontier::kLigraThreshold},
    {"jt", "JT", &jayanti_tarjan_cc, false, 0.0},
    {"afforest", "Afforest", &afforest_cc, false, 0.0},
    {"thrifty", "Thrifty", &core::thrifty_cc, true,
     frontier::kThriftyThreshold},
    {"dolp_unified", "DO-LP+Unified", &core::dolp_unified_cc, true,
     frontier::kLigraThreshold},
    {"adaptive", "Adaptive", &plan::solve_adaptive, true,
     frontier::kThriftyThreshold},
    {"async", "Async", &core::async_cc, true, frontier::kThriftyThreshold},
    {"reference", "Reference", &reference_cc, false, 0.0},
}};

}  // namespace

std::span<const AlgorithmEntry> all_algorithms() { return kAlgorithms; }

std::span<const AlgorithmEntry> paper_algorithms() {
  return std::span<const AlgorithmEntry>(kAlgorithms.data(), 6);
}

const AlgorithmEntry* find_algorithm(std::string_view name) {
  for (const AlgorithmEntry& entry : kAlgorithms) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

core::CcOptions effective_options(const AlgorithmEntry& entry,
                                  core::CcOptions options) {
  if (entry.is_label_propagation && entry.default_threshold > 0.0) {
    options.density_threshold = entry.default_threshold;
  }
  return options;
}

core::CcResult run_algorithm(const AlgorithmEntry& entry,
                             const graph::CsrGraph& graph,
                             core::CcOptions options) {
  return entry.function(graph, effective_options(entry, options));
}

}  // namespace thrifty::baselines
