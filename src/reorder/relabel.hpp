// Relabel-array validation and result map-back — the trust boundary of
// the reordering subsystem, in the style of the CSR invariant checker
// (graph/validate.hpp).
//
// A relabel array claims to be a bijection on [0, n).  Arrays built by
// reorder.cpp are bijections by construction, but arrays arriving from a
// sidecar file (graph_convert --reorder emits them for reuse) are
// untrusted bytes: the checker verifies the claim over raw input and
// reports what it found as data — the first violation site for
// diagnosis, the colliding pair for duplicates, per-class counts — never
// aborting and never indexing out of bounds.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "reorder/reorder.hpp"

namespace thrifty::reorder {

/// Violation classes, ordered by severity of what they break downstream.
enum class RelabelViolation : std::uint8_t {
  kNone = 0,
  /// The array has the wrong length for the vertex count it claims to
  /// relabel — nothing else is checkable.
  kSizeMismatch,
  /// An entry maps outside [0, n) — an out-of-bounds write in
  /// apply_permutation's scatter.
  kOutOfRange,
  /// Two old ids map to the same new id — a silently dropped vertex and
  /// a duplicated adjacency after relabeling.
  kDuplicate,
};

[[nodiscard]] const char* to_string(RelabelViolation v);

/// What the checker found.  `ok()` is the gate; everything else is
/// diagnosis.  "First" means smallest old id exhibiting the violation,
/// so the report is deterministic regardless of thread count.
struct RelabelReport {
  RelabelViolation first_violation = RelabelViolation::kNone;
  /// Old id of the first violating entry; for kDuplicate this is the
  /// *second* member of the colliding pair (the smallest re-hit).
  graph::VertexId first_index = 0;
  /// The violating entry's value.
  graph::VertexId first_value = 0;
  /// For kDuplicate: the smallest old id that also maps to first_value.
  graph::VertexId duplicate_of = 0;
  /// The vertex count the array was validated against, and the length it
  /// actually has (they differ exactly for kSizeMismatch).
  graph::VertexId expected_n = 0;
  std::uint64_t actual_size = 0;

  // Per-class counts over the whole array (not just the first site).
  std::uint64_t out_of_range = 0;
  /// Entries beyond the first mapping to an already-claimed target.
  std::uint64_t duplicates = 0;
  /// Targets in [0, n) no entry maps to (the holes duplicates leave).
  std::uint64_t missing_targets = 0;

  [[nodiscard]] bool ok() const {
    return first_violation == RelabelViolation::kNone;
  }

  /// One-line human summary ("valid relabel array: n=.." or "invalid
  /// relabel array: duplicate at old=.., new=.. (collides with old=..,
  /// +2 more)").
  [[nodiscard]] std::string to_string() const;
};

/// Validates that `perm` is a bijection on [0, n).  Safe on arbitrary
/// input: never indexes out of bounds, never aborts.  OpenMP-parallel;
/// the reported sites are deterministic.
[[nodiscard]] RelabelReport validate_relabel(
    std::span<const graph::VertexId> perm, graph::VertexId n);

/// Maps per-vertex labels computed on a reordered graph back to the
/// original id space: result[v] is old vertex v's label, with label
/// *values* that are new-space vertex ids (every LP-family labelling)
/// translated back to the original id of that representative; values
/// outside [0, n) — Thrifty reserves labels beyond the id space for its
/// plant sites — pass through unchanged.  The resulting labelling
/// partitions exactly like the reordered run's and is edge-consistent
/// on the original graph.
[[nodiscard]] std::vector<graph::Label> map_labels_back(
    std::span<const graph::Label> reordered_labels,
    std::span<const graph::VertexId> perm);

/// Sidecar permutation file (graph_convert --reorder writes one next to
/// the reordered snapshot so expensive orders are computed once):
///
///   # thrifty permutation v1
///   n <N>
///   <perm[0]>
///   ...
///   <perm[N-1]>
///
/// Throws std::runtime_error on I/O failure; read_permutation_file also
/// validates the parsed array and throws with the RelabelReport summary
/// when it is not a bijection.
void write_permutation_file(const std::string& path,
                            std::span<const graph::VertexId> perm);
[[nodiscard]] Permutation read_permutation_file(const std::string& path);

}  // namespace thrifty::reorder
