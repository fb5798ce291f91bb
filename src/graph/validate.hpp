// CSR invariant checker — the trust boundary between graph ingest and the
// label-propagation kernels.
//
// `CsrGraph`'s constructor enforces its invariants with contract checks
// that abort on violation, which is right for programmer errors but wrong
// for untrusted bytes arriving from disk or the network.  The functions
// here verify the same invariants (and more) over *raw* offset/neighbour
// arrays, before a `CsrGraph` is ever constructed, and report what they
// found as data instead of a bool: the first violation site for
// diagnosis, per-class violation counts for fuzzing statistics, and
// advisory structure flags (sortedness, duplicates, self loops) that the
// builder pipeline normally guarantees but external snapshots may not.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "graph/csr_graph.hpp"
#include "graph/types.hpp"

namespace thrifty::graph {

/// Violation classes, ordered by severity of what they break downstream.
enum class CsrViolation : std::uint8_t {
  kNone = 0,
  /// offsets array is empty (a valid empty graph still has offsets = {0}).
  kEmptyOffsets,
  /// offsets[0] != 0.
  kFirstOffsetNonZero,
  /// offsets[n] != neighbors.size() — the arrays disagree about |E|.
  kLastOffsetMismatch,
  /// offsets[v] > offsets[v + 1] for some v.
  kNonMonotoneOffsets,
  /// a neighbour id >= n — an out-of-bounds read in every kernel.
  kNeighborOutOfRange,
  /// edge (u, v) present without its reverse (v, u) — breaks the
  /// undirected-CSR contract push and pull traversals both rely on.
  kMissingReverseEdge,
  /// Strict-mode-only classes (violations only when the corresponding
  /// ValidateOptions flag is set; advisory counts otherwise).
  kUnsortedAdjacency,
  kDuplicateEdge,
  kSelfLoop,
};

[[nodiscard]] const char* to_string(CsrViolation v);

struct ValidateOptions {
  /// Verify every edge is present in both directions.  O(m log d) via
  /// binary search on sorted adjacency lists (linear scan on unsorted
  /// ones); skippable for intentionally directed CSR inputs.
  bool check_symmetry = true;
  /// Treat unsorted adjacency lists / duplicate edges / self loops as
  /// violations rather than advisory structure flags.  The default
  /// builder pipeline produces sorted, deduplicated, loop-free graphs,
  /// but all three are representable and the kernels tolerate them.
  bool require_sorted = false;
  bool require_deduplicated = false;
  bool forbid_self_loops = false;
  /// Neighbour ids must be below this; unset, below the vertex count.
  /// Set for a CSR whose ids index another space (a shard's cut CSR,
  /// whose ids are boundary slots).
  std::optional<std::uint64_t> id_limit;
};

/// What the checker found.  `ok()` is the gate; everything else is
/// diagnosis.  "First" means smallest (vertex, edge-index) site so the
/// report is deterministic regardless of thread count.
struct ValidationReport {
  CsrViolation first_violation = CsrViolation::kNone;
  /// Vertex whose adjacency range (or offset pair) exhibits the first
  /// violation; undefined when first_violation is kNone or kEmptyOffsets.
  VertexId first_vertex = 0;
  /// Index into the neighbour array of the first violating entry, when
  /// the violation is per-edge (out-of-range / missing reverse).
  EdgeOffset first_edge_index = 0;

  // Per-class counts over the whole graph (not just the first site).
  std::uint64_t non_monotone_offsets = 0;
  std::uint64_t out_of_range_neighbors = 0;
  std::uint64_t missing_reverse_edges = 0;

  // Advisory structure (violations only under the strict options).
  std::uint64_t unsorted_adjacencies = 0;  ///< lists not ascending
  std::uint64_t duplicate_edges = 0;       ///< equal adjacent entries
  std::uint64_t self_loops = 0;

  bool symmetry_checked = false;

  [[nodiscard]] bool ok() const {
    return first_violation == CsrViolation::kNone;
  }

  /// One-line human summary ("valid CSR: n=.. m=.. sorted dedup" or
  /// "invalid CSR: neighbor out of range at v=.., e=.. (+3 more)").
  [[nodiscard]] std::string to_string() const;
};

/// Validates raw CSR arrays (`offsets.size() == n + 1`).  Safe on
/// arbitrary input: never indexes out of bounds, never aborts.
/// OpenMP-parallel over vertices.
[[nodiscard]] ValidationReport validate_csr(
    std::span<const EdgeOffset> offsets, std::span<const VertexId> neighbors,
    const ValidateOptions& options = {});

/// Validates an already-constructed graph (e.g. after deserialisation or
/// a transformation that claims to preserve the invariants).
[[nodiscard]] ValidationReport validate_csr(
    const CsrGraph& graph, const ValidateOptions& options = {});

}  // namespace thrifty::graph
