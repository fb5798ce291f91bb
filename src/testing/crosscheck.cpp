#include "testing/crosscheck.hpp"

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/binary_io.hpp"
#include "io/mmap_io.hpp"
#include "support/random.hpp"
#include "testing/minimize.hpp"

namespace thrifty::testing {

using graph::CsrGraph;
using graph::EdgeList;
using graph::Label;
using graph::VertexId;

namespace {

// Per-oracle salts deriving independent seed streams from one scenario
// seed.
constexpr std::uint64_t kAlgorithmSeedSalt = 0xc05cull;
constexpr std::uint64_t kPermutationSalt = 0x9e24ull;
constexpr std::uint64_t kExtraEdgeSalt = 0xadd1ull;
constexpr std::uint64_t kShardSalt = 0x54a4dull;

RunSetup default_setup(std::uint64_t scenario_seed) {
  RunSetup setup;
  setup.algorithm_seed =
      support::hash_mix(scenario_seed, kAlgorithmSeedSalt);
  return setup;
}

CsrGraph graph_from_edges(const EdgeList& edges, VertexId num_vertices) {
  Scenario shim;
  shim.num_vertices = num_vertices;
  shim.edges = edges;
  return build_scenario_graph(shim);
}

/// Whether the implicated algorithm still disagrees with a fresh
/// union-find reference on this candidate graph, under the recorded
/// setup and fault.  Every oracle violation implies such a disagreement
/// on its derived edge list (permutation and monotonicity failures
/// included, since the reference is exact on any graph), so this single
/// predicate drives both minimization and replay.
bool still_fails(const baselines::AlgorithmEntry& entry,
                 const RunSetup& setup, const Fault& fault,
                 const EdgeList& edges, VertexId num_vertices) {
  const CsrGraph graph = graph_from_edges(edges, num_vertices);
  const std::vector<Label> reference = reference_partition(graph);
  const core::CcResult result = run_under(entry, graph, setup, fault);
  return !core::same_partition(result.label_span(), reference);
}

/// Service-oracle analogue of still_fails: "service" is not a registry
/// algorithm, so its failures minimize and replay through a fresh
/// check_service_ingest run against a recomputed reference.
bool service_still_fails(const RunSetup& setup, const EdgeList& edges,
                         VertexId num_vertices) {
  const CsrGraph graph = graph_from_edges(edges, num_vertices);
  const std::vector<Label> reference = reference_partition(graph);
  return check_service_ingest(edges, num_vertices, reference, setup)
      .has_value();
}

/// Sharded-oracle analogue: a "sharded" failure minimizes and replays
/// through a fresh decomposition + sharded solve at the recorded shard
/// count (carried in setup.shards).
bool sharded_still_fails(const RunSetup& setup, const EdgeList& edges,
                         VertexId num_vertices) {
  const CsrGraph graph = graph_from_edges(edges, num_vertices);
  const std::vector<Label> reference = reference_partition(graph);
  return check_sharded_solve(graph, reference, setup).has_value();
}

}  // namespace

CrosscheckSummary run_crosscheck(const CrosscheckOptions& options) {
  CrosscheckSummary summary;
  const std::size_t registry_size = baselines::all_algorithms().size();
  if (!options.repro_dir.empty()) {
    std::filesystem::create_directories(options.repro_dir);
  }

  const auto record = [&](const Scenario& scenario, const RunSetup& setup,
                          const OracleFailure& failure, EdgeList edges,
                          VertexId num_vertices) {
    Repro repro;
    repro.scenario_spec = scenario.spec;
    repro.oracle = failure.oracle;
    repro.algorithm = failure.algorithm;
    repro.detail = failure.detail;
    repro.setup = setup;
    repro.fault = (options.fault.kind != FaultKind::kNone &&
                   options.fault.algorithm == failure.algorithm)
                      ? options.fault.kind
                      : FaultKind::kNone;
    repro.num_vertices = num_vertices;
    repro.edges = std::move(edges);

    const baselines::AlgorithmEntry* entry =
        baselines::find_algorithm(failure.algorithm);
    const bool is_service = failure.algorithm == "service";
    const bool is_sharded = failure.algorithm == "sharded";
    if (options.minimize && (entry != nullptr || is_service || is_sharded)) {
      const Fault fault{repro.fault, failure.algorithm};
      const FailurePredicate fails = [&](const EdgeList& candidate,
                                         VertexId candidate_vertices) {
        if (is_service) {
          return service_still_fails(setup, candidate, candidate_vertices);
        }
        if (is_sharded) {
          return sharded_still_fails(setup, candidate, candidate_vertices);
        }
        return still_fails(*entry, setup, fault, candidate,
                           candidate_vertices);
      };
      // Guard against a failure that does not reproduce through the
      // reference predicate (a non-deterministic bug the sweep caught on
      // a luckier schedule); keep the full witness in that case.
      if (fails(repro.edges, repro.num_vertices)) {
        MinimizeResult minimized =
            minimize_failure(repro.edges, repro.num_vertices, fails,
                             options.max_minimize_evaluations);
        repro.edges = std::move(minimized.edges);
        repro.num_vertices = minimized.num_vertices;
      }
    }

    FailureReport report;
    report.repro = std::move(repro);
    if (!options.repro_dir.empty()) {
      std::ostringstream name;
      name << "crosscheck_" << report.repro.oracle << "_"
           << report.repro.algorithm << "_" << summary.failures.size()
           << ".repro";
      const std::filesystem::path path =
          std::filesystem::path(options.repro_dir) / name.str();
      write_repro_file(path.string(), report.repro);
      report.repro_path = path.string();
    }
    summary.failures.push_back(std::move(report));
  };

  // Scratch snapshot for --mmap-roundtrip, unique per process so
  // parallel test invocations sharing a temp directory cannot collide.
  std::filesystem::path roundtrip_path;
  if (options.mmap_roundtrip && io::mmap_supported()) {
    std::ostringstream name;
    name << "cc_crosscheck_roundtrip_" << std::hex
         << reinterpret_cast<std::uintptr_t>(&summary) << ".bin";
    roundtrip_path = std::filesystem::temp_directory_path() / name.str();
  }

  const auto process = [&](const Scenario& scenario) {
    CsrGraph graph = build_scenario_graph(scenario);
    if (!roundtrip_path.empty()) {
      // The mapped graph must be indistinguishable from the built one;
      // every oracle below then runs on mmap-backed CSR arrays.
      io::write_csr_file(roundtrip_path.string(), graph);
      graph = io::read_csr_mmap(roundtrip_path.string());
    }
    const std::vector<Label> reference = reference_partition(graph);

    std::vector<RunSetup> setups;
    setups.push_back(default_setup(scenario.seed));
    if (options.perturb == CrosscheckOptions::Perturb::kSampled) {
      setups.push_back(sampled_perturbation(scenario.seed));
    } else if (options.perturb == CrosscheckOptions::Perturb::kFull) {
      for (RunSetup setup : perturbation_matrix()) {
        setup.algorithm_seed = setups.front().algorithm_seed;
        setups.push_back(std::move(setup));
      }
    }
    if (options.forced_reorder != reorder::OrderKind::kNone) {
      for (RunSetup& setup : setups) {
        setup.reorder = options.forced_reorder;
      }
    }
    if (options.forced_shards > 0) {
      for (RunSetup& setup : setups) {
        setup.shards = options.forced_shards;
      }
    }

    for (const RunSetup& setup : setups) {
      summary.algorithm_runs += registry_size;
      if (const auto failure =
              check_all_algorithms(graph, reference, setup, options.fault)) {
        record(scenario, setup, *failure, scenario.edges,
               scenario.num_vertices);
        return;  // one repro per scenario; move to the next seed
      }
      if (options.sharded_oracle && setup.shards > 1) {
        summary.algorithm_runs += 1;
        if (const auto failure =
                check_sharded_solve(graph, reference, setup)) {
          record(scenario, setup, *failure, scenario.edges,
                 scenario.num_vertices);
          return;
        }
      }
    }

    const RunSetup& base = setups.front();
    if (options.permutation_oracle) {
      const std::uint64_t permutation_seed =
          support::hash_mix(scenario.seed, kPermutationSalt);
      summary.algorithm_runs += registry_size;
      if (const auto failure = check_permutation_invariance(
              scenario, reference, base, permutation_seed)) {
        record(scenario, base, *failure,
               permuted_scenario_edges(scenario, permutation_seed),
               scenario.num_vertices);
        return;
      }
    }
    if (options.monotonicity_oracle) {
      const std::uint64_t extra_edge_seed =
          support::hash_mix(scenario.seed, kExtraEdgeSalt);
      summary.algorithm_runs += 1;
      if (const auto failure = check_edge_addition_monotonicity(
              scenario, reference, base, extra_edge_seed)) {
        record(scenario, base, *failure,
               augmented_scenario_edges(scenario, extra_edge_seed),
               scenario.num_vertices);
        return;
      }
    }
    if (options.service_oracle) {
      summary.algorithm_runs += 1;
      if (const auto failure = check_service_ingest(
              scenario.edges, scenario.num_vertices, reference, base)) {
        record(scenario, base, *failure, scenario.edges,
               scenario.num_vertices);
        return;
      }
    }
    if (options.sharded_oracle && options.forced_shards == 0) {
      // Dedicated sharded leg at a seed-rotated shard count, so every
      // scenario exercises the boundary exchange even when its sampled
      // matrix point kept the legacy shards=1.  Skipped under --shards,
      // which already forced K onto every setup above.
      static constexpr int kRotation[] = {2, 3, 7};
      RunSetup sharded = base;
      sharded.shards = kRotation[support::hash_mix(scenario.seed,
                                                   kShardSalt) %
                                 3];
      summary.algorithm_runs += 1;
      if (const auto failure =
              check_sharded_solve(graph, reference, sharded)) {
        record(scenario, sharded, *failure, scenario.edges,
               scenario.num_vertices);
        return;
      }
    }
  };

  for (const std::string& spec : options.corpus_specs) {
    if (static_cast<int>(summary.failures.size()) >= options.max_failures) {
      break;
    }
    ++summary.scenarios;
    process(scenario_from_spec(spec));
  }
  for (int i = 0; i < options.num_scenarios; ++i) {
    if (static_cast<int>(summary.failures.size()) >= options.max_failures) {
      break;
    }
    ++summary.scenarios;
    process(make_random(options.base_seed + static_cast<std::uint64_t>(i)));
  }
  if (!roundtrip_path.empty()) {
    std::error_code ec;
    std::filesystem::remove(roundtrip_path, ec);
  }
  return summary;
}

bool replay_repro(const Repro& repro) {
  if (repro.algorithm == "service") {
    return service_still_fails(repro.setup, repro.edges, repro.num_vertices);
  }
  if (repro.algorithm == "sharded") {
    return sharded_still_fails(repro.setup, repro.edges, repro.num_vertices);
  }
  const baselines::AlgorithmEntry* entry =
      baselines::find_algorithm(repro.algorithm);
  if (entry == nullptr) {
    throw std::runtime_error("repro names unknown algorithm '" +
                             repro.algorithm + "'");
  }
  const Fault fault{repro.fault, repro.algorithm};
  return still_fails(*entry, repro.setup, fault, repro.edges,
                     repro.num_vertices);
}

}  // namespace thrifty::testing
