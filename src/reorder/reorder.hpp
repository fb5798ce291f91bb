// Structure-aware vertex reordering — a first-class subsystem, not a
// pre-processing script.  The paper's introduction cites CC consumers
// doing "locality optimizing graph relabeling", and §III-C supplies the
// lens: in label propagation the initial label *is* the vertex id, so
// renumbering a skewed-degree graph is exactly a structure-aware initial
// label assignment.  Denser neighbour-id locality additionally means
// fewer cache misses per pull-sweep gather, which compounds with the
// SIMD min-gather kernels (support/simd.hpp).
//
// Three families of orders, all OpenMP-parallel and deterministic in the
// graph (independent of thread count):
//   * degree orders — SAPCo-style counting sort on degree (LaganLighter's
//     alg1_sapco_sort): per-thread-block histograms and private write
//     cursors, zero atomic read-modify-write operations;
//   * hub-cluster order — hubs first in descending degree, then each
//     hub's neighbourhood clustered contiguously behind it (the iHTL
//     layout), fringe vertices with no hub neighbour appended by a
//     parallel pass;
//   * window-local degree order — degree-descending within fixed id
//     windows, preserving global placement while densifying each cache
//     working set.
// Validation, composition and result map-back live in relabel.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/types.hpp"

namespace thrifty::reorder {

/// A permutation: `perm[old_id] == new_id`.  Always a bijection on
/// [0, num_vertices).
using Permutation = std::vector<graph::VertexId>;

/// The orders the subsystem can generate, as selected by the CLI flags
/// (`--reorder=`) and the crosscheck perturbation matrix.  kNone is the
/// identity (no reordering).
enum class OrderKind : std::uint8_t {
  kNone = 0,
  kDegree,           ///< descending degree: hubs get the smallest ids
  kDegreeAscending,  ///< adversarial counterpart: hubs last
  kHubCluster,       ///< hubs first, neighbourhoods clustered behind them
  kWindow,           ///< degree-descending within fixed id windows
  kBfs,              ///< BFS visit order from the maximum-degree vertex
  kRandom,           ///< seeded uniform shuffle (destroys locality)
};

[[nodiscard]] const char* to_string(OrderKind kind);
/// Parses "none" | "degree" | "degree-asc" | "hub-cluster" | "window" |
/// "bfs" | "random"; nullopt otherwise.
[[nodiscard]] std::optional<OrderKind> parse_order_kind(
    std::string_view text);
/// All kinds in a stable order (sweep order of benches and tests).
[[nodiscard]] std::vector<OrderKind> all_order_kinds();

/// Identity permutation.
[[nodiscard]] Permutation identity_order(graph::VertexId n);

/// Descending-degree order: the highest-degree vertex becomes id 0.
/// Ties broken by old id (stable), keeping the result deterministic.
/// Parallel counting sort keyed on degree — no comparison sort, no
/// atomics.
[[nodiscard]] Permutation degree_descending_order(
    const graph::CsrGraph& graph);

/// Ascending-degree order (the adversarial counterpart: hubs get the
/// largest ids, fringe vertices the smallest labels).
[[nodiscard]] Permutation degree_ascending_order(
    const graph::CsrGraph& graph);

struct HubClusterParams {
  /// Degree at and above which a vertex counts as a hub; 0 selects the
  /// automatic threshold max(16, 4 * mean degree).
  graph::EdgeOffset hub_degree_threshold = 0;
};

/// Hub-cluster order: hubs occupy [0, H) in descending degree; every
/// non-hub vertex adjacent to at least one hub is placed in the cluster
/// of its smallest-rank hub neighbour, clusters laid out contiguously in
/// hub-rank order; fringe vertices (no hub neighbour) are appended last.
/// Within a cluster (and the fringe) old-id order is preserved.
[[nodiscard]] Permutation hub_cluster_order(
    const graph::CsrGraph& graph, const HubClusterParams& params = {});

/// The automatic hub threshold hub_cluster_order uses for `params = {}`.
[[nodiscard]] graph::EdgeOffset hub_cluster_auto_threshold(
    const graph::CsrGraph& graph);

/// Window-local degree order: vertex ids are re-ranked by descending
/// degree *within* fixed windows of `window` consecutive ids, so global
/// placement survives while every window densifies its hot entries.
/// Windows are independent, hence embarrassingly parallel.
[[nodiscard]] Permutation window_local_degree_order(
    const graph::CsrGraph& graph, graph::VertexId window = 1024);

/// BFS visit order from the maximum-degree vertex (hub-centred locality
/// order); vertices unreachable from the hub are appended in old-id
/// order.
[[nodiscard]] Permutation bfs_order(const graph::CsrGraph& graph);

/// Uniformly random permutation (seeded).
[[nodiscard]] Permutation random_order(graph::VertexId n,
                                       std::uint64_t seed);

/// Dispatches to the order named by `kind` (identity for kNone).  `seed`
/// only affects kRandom.
[[nodiscard]] Permutation make_order(const graph::CsrGraph& graph,
                                     OrderKind kind,
                                     std::uint64_t seed = 1);

/// Rebuilds the graph under a permutation: new vertex `perm[v]` has the
/// relabelled adjacency of old vertex `v`, lists sorted ascending.
/// Parallel counting-sort rebuild: because new-id sources are scattered
/// in ascending order through per-(thread, destination) cursors, every
/// adjacency list materialises already sorted — no per-vertex sort pass.
/// Offsets and neighbour arrays are uninitialised allocations whose
/// first touch is the parallel scan and scatter that fill them.
[[nodiscard]] graph::CsrGraph apply_permutation(
    const graph::CsrGraph& graph, const Permutation& perm);

/// Inverse permutation: `inverse(p)[p[v]] == v`.  Parallel.
[[nodiscard]] Permutation inverse_permutation(const Permutation& perm);

/// Validates that `perm` is a bijection on [0, n).  For the structured
/// report (first violation site, duplicate pairs) use
/// relabel.hpp's validate_relabel.
[[nodiscard]] bool is_permutation(const Permutation& perm);

}  // namespace thrifty::reorder
