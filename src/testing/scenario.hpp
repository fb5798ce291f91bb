// Seeded, labeled graph scenarios for the metamorphic crosscheck harness.
//
// A scenario is an edge list plus an explicit vertex count, produced
// deterministically from a `<family>:<seed>` spec by composing the
// src/gen/ generators with the combinators of gen/combine.hpp (disjoint
// union, satellite attacher, vertex-id permutation).  The named families
// pin shapes that historically shake out concurrency bugs in CC codes
// (a single dominant hub, thousands of tiny components, permuted ids, a
// thin bridge between dense cores, a high-diameter grid cut into many
// components); the `random` family samples free
// compositions of every generator in the library.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/types.hpp"

namespace thrifty::testing {

struct Scenario {
  /// Replayable spec, `<family>:<seed>` — scenario_from_spec(spec)
  /// reproduces this scenario exactly.
  std::string spec;
  /// Human-readable composition, e.g. "rmat+er+satellites+permute".
  std::string name;
  std::uint64_t seed = 0;
  /// Explicit vertex count (scenarios may contain isolated vertices).
  graph::VertexId num_vertices = 0;
  graph::EdgeList edges;
};

/// A star whose hub owns almost every edge — the defining skew shape.
[[nodiscard]] Scenario make_hub_star(std::uint64_t seed);

/// No giant component at all: only tiny random-tree satellites (the
/// ClueWeb09 regime of 5.6 M components, scaled down).
[[nodiscard]] Scenario make_all_satellites(std::uint64_t seed);

/// R-MAT with vertex ids destroyed by an explicit random permutation, so
/// the minimum label of the giant component starts on the fringe.
[[nodiscard]] Scenario make_permuted_rmat(std::uint64_t seed);

/// Two cliques joined by a thin path bridge: dense cores whose labels
/// must cross a low-bandwidth cut to agree.
[[nodiscard]] Scenario make_two_clique_bridge(std::uint64_t seed);

/// A 64-256 per side grid with 2-15 % of its edges removed, so it splits
/// into many components, its ids permuted with probability 1/2: high
/// diameter, where a pull that pointer-jumps into another component
/// would show.
[[nodiscard]] Scenario make_cut_grid(std::uint64_t seed);

/// Free composition: 1-3 parts drawn from every generator family,
/// disjoint-unioned, with optional satellites and id permutation.
[[nodiscard]] Scenario make_random(std::uint64_t seed);

/// Families accepted by scenario_from_spec, in a stable order.
[[nodiscard]] std::vector<std::string> scenario_families();

/// Parses `<family>:<seed>` and builds the scenario.  Throws
/// std::runtime_error on an unknown family or unparsable seed.
[[nodiscard]] Scenario scenario_from_spec(const std::string& spec);

/// CSR build that preserves scenario vertex ids: no zero-degree
/// compaction, explicit vertex count.  Oracles rely on this to map
/// per-vertex labels through permutations exactly.
[[nodiscard]] graph::CsrGraph build_scenario_graph(const Scenario& scenario);

}  // namespace thrifty::testing
