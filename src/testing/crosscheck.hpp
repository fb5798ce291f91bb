// The crosscheck driver: sweeps seeded scenarios through every oracle,
// minimizes failures and emits replayable repro files.  Shared between
// tools/cc_crosscheck and the test suite so both exercise the exact
// same pipeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "testing/oracles.hpp"
#include "testing/repro.hpp"
#include "testing/scenario.hpp"

namespace thrifty::testing {

struct CrosscheckOptions {
  /// Random scenarios generated from base_seed, base_seed+1, ...
  int num_scenarios = 200;
  std::uint64_t base_seed = 1;
  /// Explicit scenario specs (e.g. the committed corpus) run first.
  std::vector<std::string> corpus_specs;

  /// Schedule perturbation: none (default config only), sampled (one
  /// seeded point of the matrix per scenario, the sweep default), or the
  /// full matrix per scenario (corpus replays).
  enum class Perturb { kNone, kSampled, kFull };
  Perturb perturb = Perturb::kSampled;

  bool permutation_oracle = true;
  bool monotonicity_oracle = true;
  /// Serving-layer oracle: half the edges solved statically, half
  /// ingested through the concurrent hooks, partitions checked for
  /// batch coarsening and post-recompaction agreement with the
  /// union-find reference (check_service_ingest).
  bool service_oracle = true;
  /// Sharded-solver oracle: every scenario additionally runs the
  /// sharded boundary-exchange solve (check_sharded_solve) at a
  /// seed-rotated shard count (2, 3 or 7), plus at every matrix point
  /// carrying its own shards value.
  bool sharded_oracle = true;

  /// Round-trip every scenario graph through a binary snapshot and the
  /// zero-copy mmap loader before running the oracles, so the whole
  /// registry executes against mapped (read-only, page-cache-backed)
  /// CSR arrays.  No-op where mmap is unsupported.
  bool mmap_roundtrip = false;

  /// Force a vertex reordering onto every setup the sweep runs (the
  /// --reorder smoke leg): each algorithm then solves the reordered
  /// graph and maps labels back before comparison, exercising the full
  /// reorder → solve → map_labels_back pipeline under every oracle.
  /// kNone leaves the matrix's own reorder points in charge.
  reorder::OrderKind forced_reorder = reorder::OrderKind::kNone;

  /// Force a shard count onto every setup the sweep runs (the --shards
  /// smoke leg): the sharded oracle then checks every scenario at this
  /// K under every schedule point.  0 leaves the matrix's own shard
  /// points and the seed-rotated leg in charge.
  int forced_shards = 0;

  /// Shrink failing scenarios with the delta-debugging minimizer.
  bool minimize = true;
  int max_minimize_evaluations = 4000;
  /// Directory to write repro files into ("" keeps them in memory only).
  std::string repro_dir;
  /// Stop the sweep after this many failures.
  int max_failures = 8;

  /// Deliberate corruption, for testing the harness itself.
  Fault fault;
};

struct FailureReport {
  Repro repro;
  /// Path the repro was written to; empty when repro_dir was unset.
  std::string repro_path;
};

struct CrosscheckSummary {
  int scenarios = 0;
  /// Individual algorithm executions across all oracles and setups.
  std::uint64_t algorithm_runs = 0;
  std::vector<FailureReport> failures;

  [[nodiscard]] bool clean() const { return failures.empty(); }
};

/// Runs the sweep.  Deterministic in (options, registry contents).
[[nodiscard]] CrosscheckSummary run_crosscheck(
    const CrosscheckOptions& options);

/// Re-runs the algorithm recorded in `repro` under its recorded setup
/// and fault; returns true when the discrepancy still reproduces.
[[nodiscard]] bool replay_repro(const Repro& repro);

}  // namespace thrifty::testing
