// Out-of-core sharded connected components.
//
// The solve runs shard-by-shard over the decomposition of shard.hpp:
//
//   Round 0   Every shard is solved *locally* with core::thrifty_cc,
//             the paper's unified-label solver (Zero Planting at the
//             shard's max-degree vertex, Zero Convergence, density
//             driven push/pull).  The local labelling is
//             canonicalised, so each owned vertex ends up labelled
//             with the global id of the smallest vertex in its
//             *shard-local* component, and every owned boundary
//             vertex publishes that label into its slot of the global
//             boundary-label table.
//
//   Round r   For every shard in turn: pull the boundary table into
//             the owned labels along the shard's cut CSR (a parallel
//             pull with simd::min_gather_u32, the kernel of the sweeps
//             below; owned labels already 0 are skipped, Zero
//             Convergence).  The pull reads every slot's *current*
//             label, so a slot an earlier shard republished in this
//             round is seen at once — a Gauss–Seidel pass across
//             shards.  A shard whose pull improves nothing is skipped
//             without touching its CSR, which is what saves I/O in the
//             streaming path.  Otherwise run in-place Gauss–Seidel pull
//             sweeps (simd::min_gather_u32 over the intra-CSR, same
//             kernel and same relaxed-atomic label discipline as
//             core/thrifty.cpp) until the shard reaches a local fixed
//             point, then re-publish improved boundary labels.  The
//             solve terminates when a round changes no slot.
//
// Convergence: labels only ever decrease, every label is the id of a
// vertex in the same component (true initially, preserved by merges
// and sweeps), and the label set is finite — so the process reaches a
// fixed point.  At a fixed point no intra edge and no cut edge joins
// differently-labelled vertices (cut edges appear in both endpoint
// shards because the graph is symmetric), hence labels are constant
// per component; the component's minimum vertex keeps its own id
// throughout, so that constant is the minimum id — exactly the
// canonical labelling the union-find reference produces.
//
// The streaming variant loads shard CSRs through the windowed mmap
// residency policy: cut CSRs stay in RAM for the whole solve, intra-CSRs
// are mapped on demand with MADV_WILLNEED prefetch of the next shard
// once the current one is mapped, and before a load that would push the
// resident window past the memory budget the oldest shards are evicted
// FIFO — MADV_DONTNEED then munmap — so the window never exceeds it.
#pragma once

#include <cstdint>

#include "core/cc_common.hpp"
#include "shard/manifest.hpp"
#include "shard/shard.hpp"

namespace thrifty::shard {

struct ShardedCcOptions {
  /// Options for the round-0 core::thrifty_cc shard-local solves.
  core::CcOptions cc;
  /// Residency budget in bytes for the streaming (manifest) variant:
  /// the resident shard-CSR window is kept at or below this, evicting
  /// FIFO behind the sweep.  0 = unlimited (shards stay mapped once
  /// loaded).  Clamped up to the largest single shard — the sweep must
  /// be able to hold the shard it is working on.
  std::uint64_t memory_budget_bytes = 0;
  /// Streaming variant: mmap shard CSRs (with prefetch/release hints)
  /// rather than stream-reading them into heap copies.
  bool use_mmap = true;
};

struct ShardedCcStats {
  /// Rounds executed, counting the round-0 local solves.
  int rounds = 0;
  /// Shard-CSR loads (first loads plus reloads after eviction).
  std::uint64_t shard_loads = 0;
  /// Shard CSRs evicted by the residency policy.
  std::uint64_t evictions = 0;
  /// Largest resident shard-CSR window, in bytes.
  std::uint64_t peak_window_bytes = 0;
  /// Shard visits whose boundary pull improved nothing, skipped without
  /// touching the shard's CSR.
  std::uint64_t shards_skipped = 0;
  /// Boundary-slot label updates across all rounds.
  std::uint64_t boundary_updates = 0;
  /// Time in shard-local work (round-0 solves + later pull sweeps).
  double sweep_ms = 0.0;
  /// Time in the boundary exchange (boundary pulls + publishes).
  double exchange_ms = 0.0;
};

struct ShardedCcResult {
  /// Canonical global labelling: labels[v] = min vertex id in v's
  /// component (identical to canonical_labels of any correct solve).
  core::LabelArray labels;
  ShardedCcStats stats;

  [[nodiscard]] std::span<const graph::Label> label_span() const {
    return {labels.data(), labels.size()};
  }
};

/// In-memory sharded solve over an already-materialised decomposition.
/// The crosscheck oracle path: no files, no residency policy (the
/// budget option is ignored).
[[nodiscard]] ShardedCcResult sharded_cc(const ShardedGraph& sharded,
                                         const ShardedCcOptions& options = {});

/// Streaming sharded solve over a persisted sharded snapshot: shard
/// CSRs are windowed through the mmap residency policy described
/// above.  Throws IoError on malformed payload files.
[[nodiscard]] ShardedCcResult sharded_cc(const ShardManifest& manifest,
                                         const ShardedCcOptions& options = {});

}  // namespace thrifty::shard
