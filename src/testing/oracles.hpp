// Metamorphic correctness oracles over the CC algorithm registry.
//
// Four properties, in the ConnectIt tradition of differential testing
// hundreds of variant/sampling combinations against one oracle:
//   1. cross-algorithm agreement — every registry algorithm must produce
//      the same partition (labels compared as partitions, never as raw
//      values) as the sequential union-find reference;
//   2. schedule robustness — property 1 must hold at every point of a
//      perturbation matrix over thread counts and density thresholds,
//      plus a few points each for SIMD level, vertex order, execution
//      plan and shard count (RunSetup);
//   3. permutation invariance — relabelling vertex ids and mapping the
//      result back must yield the identical partition;
//   4. edge-addition monotonicity — adding edges may only merge
//      components: the new partition coarsens the old one.
//
// Fault injection corrupts one algorithm's labels post-run so the
// harness, the minimizer and the repro pipeline can be tested end to end
// against a known bug.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cc_baselines/registry.hpp"
#include "core/cc_common.hpp"
#include "graph/csr_graph.hpp"
#include "reorder/reorder.hpp"
#include "support/simd.hpp"
#include "testing/scenario.hpp"

namespace thrifty::testing {

/// One point of the schedule-perturbation matrix.  Applied via
/// support::RunConfigOverride + support::ThreadCountGuard, replacing the
/// scattered setenv calls perturbation sweeps previously required.
struct RunSetup {
  /// OpenMP width; 0 keeps the current width.
  int threads = 0;
  /// Forced density threshold; unset runs each entry at its registry
  /// default (via baselines::effective_options).
  std::optional<double> density_threshold;
  /// Seed forwarded to randomised algorithms (JT priorities, Afforest
  /// sampling).
  std::uint64_t algorithm_seed = 1;
  /// Kernel instruction-set ceiling (support/simd.hpp).  SIMD variants
  /// are bit-identical to scalar by contract, so the matrix sweeps the
  /// level like any other knob; kAuto uses the widest supported level.
  support::SimdLevel simd = support::SimdLevel::kAuto;
  /// Vertex reordering applied before the run (reorder/reorder.hpp);
  /// labels are mapped back to original ids afterwards, so reordering
  /// must never change the partition.  kNone runs on the graph as-is.
  reorder::OrderKind reorder = reorder::OrderKind::kNone;
  /// Execution-plan spec for the adaptive solver (plan/plan.hpp):
  /// "auto", or an adversarial "fixed:<spec>" the sanitizing executor
  /// must survive.  Only the "adaptive" registry entry reads it.
  std::string plan = "auto";
  /// Shard count for the sharded-solve oracle (src/shard/): points with
  /// shards > 1 additionally run the sharded solver on a K-way
  /// decomposition and hold its partition to the reference.  1 (the
  /// legacy default) skips the sharded leg.
  int shards = 1;

  [[nodiscard]] std::string describe() const;
};

/// The full perturbation matrix: threads × threshold, plus a few points
/// for each other knob (SIMD level, reorder, plan, shard count).
[[nodiscard]] std::vector<RunSetup> perturbation_matrix();

/// One deterministic sample of the matrix, varying with `seed`.
[[nodiscard]] RunSetup sampled_perturbation(std::uint64_t seed);

/// Deliberate post-run label corruptions, for testing the harness itself.
enum class FaultKind {
  kNone,
  /// Detaches one vertex of the largest component into a fresh label
  /// class (an under-propagation bug).
  kSplitComponent,
  /// Relabels one whole component onto another's label (an
  /// over-propagation / lost-update bug).
  kMergeComponents,
};

[[nodiscard]] const char* to_string(FaultKind kind);
/// Parses "none" | "split" | "merge"; returns nullopt otherwise.
[[nodiscard]] std::optional<FaultKind> parse_fault_kind(
    const std::string& text);

struct Fault {
  FaultKind kind = FaultKind::kNone;
  /// Registry key of the algorithm whose output is corrupted.
  std::string algorithm;
};

/// Applies the corruption in place.  Deterministic; a no-op when the
/// labelling has no class the corruption can act on (kSplitComponent
/// needs a class of ≥2 vertices, kMergeComponents needs ≥2 classes).
void apply_fault(FaultKind kind, std::span<graph::Label> labels);

/// A single oracle violation.
struct OracleFailure {
  /// Which property broke: "cross_algorithm" | "permutation" |
  /// "monotonicity".
  std::string oracle;
  /// Registry key of the implicated algorithm.
  std::string algorithm;
  std::string detail;
};

/// Canonical partition of the graph per the sequential union-find oracle.
[[nodiscard]] std::vector<graph::Label> reference_partition(
    const graph::CsrGraph& graph);

/// Runs one registry entry under `setup` (thread guard + RunConfig
/// override installed for the duration), applying `fault` if it targets
/// this entry.
[[nodiscard]] core::CcResult run_under(const baselines::AlgorithmEntry& entry,
                                       const graph::CsrGraph& graph,
                                       const RunSetup& setup,
                                       const Fault& fault = {});

/// Oracle 1+2: every registry algorithm agrees with `reference` under
/// `setup`.  `reference` must be reference_partition(graph).
[[nodiscard]] std::optional<OracleFailure> check_all_algorithms(
    const graph::CsrGraph& graph, std::span<const graph::Label> reference,
    const RunSetup& setup, const Fault& fault = {});

/// Oracle 3: permute the scenario's vertex ids, re-run every algorithm,
/// map labels back through the permutation, compare partitions.
[[nodiscard]] std::optional<OracleFailure> check_permutation_invariance(
    const Scenario& scenario, std::span<const graph::Label> reference,
    const RunSetup& setup, std::uint64_t permutation_seed);

/// Oracle 4: add a few random edges; the augmented partition (computed
/// by a seed-rotated registry algorithm) must coarsen `reference` and
/// cannot gain components.
[[nodiscard]] std::optional<OracleFailure> check_edge_addition_monotonicity(
    const Scenario& scenario, std::span<const graph::Label> reference,
    const RunSetup& setup, std::uint64_t extra_edge_seed);

/// Oracle 5 (serving layer): replays the edge set through a
/// serve::ConnectivityService — static Thrifty solve on half the edges,
/// the rest ingested in batches via the concurrent union-find hooks —
/// checking that every batch only coarsens the published partition,
/// that the fully-ingested partition equals `reference` (which must be
/// reference_partition over all the edges), and that a forced full
/// recompaction reproduces it exactly.  Deterministic in (edges,
/// setup.algorithm_seed); setup.reorder is ignored (the service has no
/// reorder dimension).
[[nodiscard]] std::optional<OracleFailure> check_service_ingest(
    const graph::EdgeList& edges, graph::VertexId num_vertices,
    std::span<const graph::Label> reference, const RunSetup& setup);

/// Oracle 6 (sharded solver): decomposes the graph into
/// max(setup.shards, 2) contiguous shards (src/shard/), runs the
/// sharded boundary-exchange solve under the schedule point, and holds
/// the resulting partition to `reference`.  The failure's algorithm
/// name is "sharded" (not a registry entry; minimization and replay
/// route through a fresh sharded solve).
[[nodiscard]] std::optional<OracleFailure> check_sharded_solve(
    const graph::CsrGraph& graph, std::span<const graph::Label> reference,
    const RunSetup& setup);

// The derived edge lists the permutation and monotonicity oracles run
// on, exposed so a failure can be re-materialised into a replayable
// repro: a violation of either oracle implies the implicated algorithm
// also disagrees with the union-find reference on the derived edges.
[[nodiscard]] graph::EdgeList permuted_scenario_edges(
    const Scenario& scenario, std::uint64_t permutation_seed);
[[nodiscard]] graph::EdgeList augmented_scenario_edges(
    const Scenario& scenario, std::uint64_t extra_edge_seed);
/// The registry entry the monotonicity oracle rotates to for this seed.
[[nodiscard]] const baselines::AlgorithmEntry& monotonicity_entry(
    std::uint64_t extra_edge_seed);

}  // namespace thrifty::testing
