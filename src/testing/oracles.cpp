#include "testing/oracles.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "core/union_find.hpp"
#include "frontier/density.hpp"
#include "gen/combine.hpp"
#include "graph/builder.hpp"
#include "reorder/relabel.hpp"
#include "serve/service.hpp"
#include "shard/shard.hpp"
#include "shard/solver.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/run_config.hpp"

namespace thrifty::testing {

using graph::CsrGraph;
using graph::Label;
using graph::VertexId;

std::string RunSetup::describe() const {
  std::ostringstream out;
  out << "threads=" << (threads > 0 ? std::to_string(threads) : "default")
      << " threshold="
      << (density_threshold ? std::to_string(*density_threshold)
                            : "default")
      << " algo_seed=" << algorithm_seed;
  if (simd != support::SimdLevel::kAuto) {
    out << " simd=" << support::to_string(simd);
  }
  if (reorder != reorder::OrderKind::kNone) {
    out << " reorder=" << reorder::to_string(reorder);
  }
  if (plan != "auto") {
    out << " plan=" << plan;
  }
  if (shards != 1) {
    out << " shards=" << shards;
  }
  return out.str();
}

std::vector<RunSetup> perturbation_matrix() {
  std::vector<RunSetup> matrix;
  // Thrifty's 1%, DO-LP's 5%, and an extreme that forces push almost
  // always.  nullopt keeps each entry's registry default.
  const std::optional<double> thresholds[] = {std::nullopt, 0.01, 0.5};
  for (const int threads : {1, 2, 4}) {
    for (const auto& threshold : thresholds) {
      RunSetup setup;
      setup.threads = threads;
      setup.density_threshold = threshold;
      matrix.push_back(setup);
    }
  }
  // Kernel level is orthogonal to the schedule axes: every SIMD variant
  // is bit-identical to scalar by contract, so two forced-scalar points
  // (serial and parallel) suffice to cross-check the default kAuto runs
  // above against the portable path.
  for (const int threads : {1, 4}) {
    RunSetup setup;
    setup.threads = threads;
    setup.simd = support::SimdLevel::kScalar;
    matrix.push_back(setup);
  }
  // Reordering is a pure relabelling: solving the reordered graph and
  // mapping labels back must reproduce the original partition at every
  // schedule.  One structured order (hubs first), one clustered order,
  // and one adversarial shuffle cover the three order families without
  // sweeping the full cross product.
  {
    RunSetup setup;
    setup.threads = 4;
    setup.reorder = reorder::OrderKind::kDegree;
    matrix.push_back(setup);
    setup = RunSetup{};
    setup.threads = 2;
    setup.reorder = reorder::OrderKind::kHubCluster;
    matrix.push_back(setup);
    setup = RunSetup{};
    setup.threads = 4;
    setup.reorder = reorder::OrderKind::kRandom;
    matrix.push_back(setup);
  }
  // Plan dimension: adversarial fixed plans the adaptive executor's
  // sanitizer must turn into correct (if slow) runs — push-only with no
  // frontier, pull-only on sparse phases, and a premature union-find
  // finish.  The default points above already cover plan=auto.
  {
    RunSetup setup;
    setup.threads = 4;
    setup.plan = "fixed:push";
    matrix.push_back(setup);
    setup = RunSetup{};
    setup.threads = 2;
    setup.plan = "fixed:pull";
    matrix.push_back(setup);
    setup = RunSetup{};
    setup.threads = 4;
    setup.plan = "fixed:pullf,push,finish";
    matrix.push_back(setup);
    // The barrier-free async drain, steal-heavy (4 threads, where the
    // quiescence protocol has real hand-offs to get wrong) and serial
    // (degenerate single-worker termination).  Repro files carry the
    // spec through the existing plan key — older files without it
    // replay under the "auto" default, never under async.
    setup = RunSetup{};
    setup.threads = 4;
    setup.plan = "fixed:async";
    matrix.push_back(setup);
    setup = RunSetup{};
    setup.threads = 1;
    setup.plan = "fixed:async";
    matrix.push_back(setup);
  }
  // Shard-count dimension: points with shards > 1 additionally run the
  // sharded boundary-exchange solver (check_sharded_solve) on a K-way
  // decomposition.  2 (minimal exchange), 3 (odd, uneven ranges) and 7
  // (more shards than most scenario components, so nearly every edge is
  // a cut edge) cover the decomposition extremes; shard counts above
  // the vertex count clamp inside the partitioner.
  {
    RunSetup setup;
    setup.threads = 4;
    setup.shards = 2;
    matrix.push_back(setup);
    setup = RunSetup{};
    setup.threads = 2;
    setup.shards = 3;
    matrix.push_back(setup);
    setup = RunSetup{};
    setup.threads = 1;
    setup.shards = 7;
    matrix.push_back(setup);
  }
  return matrix;
}

RunSetup sampled_perturbation(std::uint64_t seed) {
  const std::vector<RunSetup> matrix = perturbation_matrix();
  RunSetup setup =
      matrix[support::hash_mix(seed, 0x9e37ull) % matrix.size()];
  setup.algorithm_seed = support::hash_mix(seed, 0xa19ull);
  return setup;
}

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSplitComponent:
      return "split";
    case FaultKind::kMergeComponents:
      return "merge";
    case FaultKind::kNone:
      break;
  }
  return "none";
}

std::optional<FaultKind> parse_fault_kind(const std::string& text) {
  if (text == "none") return FaultKind::kNone;
  if (text == "split") return FaultKind::kSplitComponent;
  if (text == "merge") return FaultKind::kMergeComponents;
  return std::nullopt;
}

void apply_fault(FaultKind kind, std::span<Label> labels) {
  if (kind == FaultKind::kNone || labels.empty()) return;
  const std::vector<Label> canon = core::canonical_labels(labels);
  if (kind == FaultKind::kSplitComponent) {
    // Detach the highest-id member of the largest class.  Requires a
    // class of at least two vertices — i.e. at least one edge — so the
    // corruption changes the partition rather than relabelling a
    // singleton.
    const core::LargestComponent largest = core::largest_component(canon);
    if (largest.size < 2) return;
    Label fresh = 0;
    for (const Label l : labels) fresh = std::max(fresh, l);
    for (std::size_t v = labels.size(); v-- > 0;) {
      if (canon[v] == largest.label) {
        labels[v] = fresh + 1;
        return;
      }
    }
  }
  if (kind == FaultKind::kMergeComponents) {
    // Relabel the class with the second-smallest canonical label onto
    // the class with the smallest.  Edge-consistent by construction, so
    // only the partition comparison (or the component count) catches it.
    Label first = std::numeric_limits<Label>::max();
    Label second = std::numeric_limits<Label>::max();
    for (std::size_t v = 0; v < canon.size(); ++v) {
      const Label l = canon[v];
      if (static_cast<std::size_t>(l) != v) continue;  // not a class min
      if (l < first) {
        second = first;
        first = l;
      } else if (l < second) {
        second = l;
      }
    }
    if (second == std::numeric_limits<Label>::max()) return;
    for (std::size_t v = 0; v < canon.size(); ++v) {
      if (canon[v] == second) labels[v] = first;
    }
  }
}

std::vector<Label> reference_partition(const CsrGraph& graph) {
  const VertexId n = graph.num_vertices();
  core::UnionFind dsu(n);
  for (VertexId v = 0; v < n; ++v) {
    for (const VertexId u : graph.neighbors(v)) {
      if (u > v) dsu.unite(v, u);
    }
  }
  std::vector<Label> labels(n);
  for (VertexId v = 0; v < n; ++v) {
    labels[v] = dsu.find(v);
  }
  return core::canonical_labels(labels);
}

core::CcResult run_under(const baselines::AlgorithmEntry& entry,
                         const CsrGraph& graph, const RunSetup& setup,
                         const Fault& fault) {
  // Snapshot the FULL effective configuration — every knob an algorithm
  // might read must come from the setup, not the ambient process config,
  // or a repro file replayed under a different environment diverges from
  // the failing run.
  support::RunConfig config = support::run_config();
  config.simd = setup.simd;
  config.plan = setup.plan;
  const support::RunConfigOverride config_scope(config);
  const support::ThreadCountGuard thread_scope(
      setup.threads > 0 ? setup.threads : support::num_threads());

  // The reorder leg mirrors the thrifty_cc --reorder pipeline: solve the
  // relabelled graph, then translate labels back so every downstream
  // comparison happens in original-id space.
  reorder::Permutation perm;
  const CsrGraph* run_graph = &graph;
  CsrGraph reordered;
  if (setup.reorder != reorder::OrderKind::kNone) {
    perm = reorder::make_order(graph, setup.reorder, setup.algorithm_seed);
    reordered = reorder::apply_permutation(graph, perm);
    run_graph = &reordered;
  }

  core::CcOptions options;
  options.seed = setup.algorithm_seed;
  core::CcResult result;
  if (setup.density_threshold) {
    options.density_threshold = *setup.density_threshold;
    result = entry.function(*run_graph, options);
  } else {
    result = baselines::run_algorithm(entry, *run_graph, options);
  }
  if (!perm.empty()) {
    const std::vector<Label> mapped =
        reorder::map_labels_back(result.label_span(), perm);
    std::copy(mapped.begin(), mapped.end(), result.labels.data());
  }
  if (fault.kind != FaultKind::kNone && fault.algorithm == entry.name) {
    apply_fault(fault.kind, {result.labels.data(), result.labels.size()});
  }
  return result;
}

namespace {

std::optional<OracleFailure> disagreement(const std::string& oracle,
                                          const baselines::AlgorithmEntry& e,
                                          const std::string& detail) {
  OracleFailure failure;
  failure.oracle = oracle;
  failure.algorithm = std::string(e.name);
  failure.detail = detail;
  return failure;
}

}  // namespace

std::optional<OracleFailure> check_all_algorithms(
    const CsrGraph& graph, std::span<const Label> reference,
    const RunSetup& setup, const Fault& fault) {
  for (const baselines::AlgorithmEntry& entry :
       baselines::all_algorithms()) {
    const core::CcResult result = run_under(entry, graph, setup, fault);
    if (!core::same_partition(result.label_span(), reference)) {
      std::ostringstream detail;
      detail << "partition differs from union-find reference ("
             << core::count_components(result.label_span()) << " vs "
             << core::count_components(reference) << " components) under "
             << setup.describe();
      return disagreement("cross_algorithm", entry, detail.str());
    }
  }
  return std::nullopt;
}

graph::EdgeList permuted_scenario_edges(const Scenario& scenario,
                                        std::uint64_t permutation_seed) {
  const std::vector<VertexId> perm =
      gen::random_permutation(scenario.num_vertices, permutation_seed);
  graph::EdgeList edges = scenario.edges;
  gen::apply_permutation(edges, perm);
  return edges;
}

graph::EdgeList augmented_scenario_edges(const Scenario& scenario,
                                         std::uint64_t extra_edge_seed) {
  graph::EdgeList edges = scenario.edges;
  const VertexId n = scenario.num_vertices;
  if (n < 2) return edges;
  support::Xoshiro256StarStar rng(
      support::hash_mix(extra_edge_seed, 0xadded6e5ull));
  const std::uint64_t extra = 1 + rng.next_below(6);
  for (std::uint64_t i = 0; i < extra; ++i) {
    edges.push_back({static_cast<VertexId>(rng.next_below(n)),
                     static_cast<VertexId>(rng.next_below(n))});
  }
  return edges;
}

const baselines::AlgorithmEntry& monotonicity_entry(
    std::uint64_t extra_edge_seed) {
  // Rotate the algorithm under test with the seed so the whole registry
  // is exercised across a sweep without paying for every entry per
  // scenario.
  const auto algorithms = baselines::all_algorithms();
  return algorithms[support::hash_mix(extra_edge_seed, 0x107ull) %
                    algorithms.size()];
}

std::optional<OracleFailure> check_permutation_invariance(
    const Scenario& scenario, std::span<const Label> reference,
    const RunSetup& setup, std::uint64_t permutation_seed) {
  const VertexId n = scenario.num_vertices;
  const std::vector<VertexId> perm =
      gen::random_permutation(n, permutation_seed);
  Scenario permuted = scenario;
  permuted.edges = permuted_scenario_edges(scenario, permutation_seed);
  const CsrGraph permuted_graph = build_scenario_graph(permuted);

  std::vector<Label> mapped(n);
  for (const baselines::AlgorithmEntry& entry :
       baselines::all_algorithms()) {
    const core::CcResult result =
        run_under(entry, permuted_graph, setup, {});
    const auto labels = result.label_span();
    for (VertexId v = 0; v < n; ++v) {
      mapped[v] = labels[perm[v]];
    }
    if (!core::same_partition(mapped, reference)) {
      return disagreement(
          "permutation", entry,
          "partition not invariant under vertex-id permutation (seed " +
              std::to_string(permutation_seed) + ") under " +
              setup.describe());
    }
  }
  return std::nullopt;
}

std::optional<OracleFailure> check_edge_addition_monotonicity(
    const Scenario& scenario, std::span<const Label> reference,
    const RunSetup& setup, std::uint64_t extra_edge_seed) {
  const VertexId n = scenario.num_vertices;
  if (n < 2) return std::nullopt;
  Scenario augmented = scenario;
  augmented.edges = augmented_scenario_edges(scenario, extra_edge_seed);
  const CsrGraph augmented_graph = build_scenario_graph(augmented);

  const baselines::AlgorithmEntry& entry =
      monotonicity_entry(extra_edge_seed);
  const core::CcResult result =
      run_under(entry, augmented_graph, setup, {});
  const auto labels = result.label_span();

  if (core::count_components(labels) > core::count_components(reference)) {
    return disagreement("monotonicity", entry,
                        "adding edges increased the component count under " +
                            setup.describe());
  }
  // Coarsening: all members of each original class share an augmented
  // label.  `witness[c]` is the augmented label of class c's first member.
  constexpr Label kUnset = std::numeric_limits<Label>::max();
  std::vector<Label> witness(n, kUnset);
  for (VertexId v = 0; v < n; ++v) {
    const Label original_class = reference[v];
    if (witness[original_class] == kUnset) {
      witness[original_class] = labels[v];
    } else if (witness[original_class] != labels[v]) {
      return disagreement(
          "monotonicity", entry,
          "vertex " + std::to_string(v) +
              " split away from its component after edge addition under " +
              setup.describe());
    }
  }
  return std::nullopt;
}

std::optional<OracleFailure> check_sharded_solve(
    const CsrGraph& graph, std::span<const Label> reference,
    const RunSetup& setup) {
  // Same full-configuration snapshot as run_under: the round-0 local
  // solves and the exchange sweeps all run under the perturbed width
  // and kernel level.
  support::RunConfig config = support::run_config();
  config.simd = setup.simd;
  const support::RunConfigOverride config_scope(config);
  const support::ThreadCountGuard thread_scope(
      setup.threads > 0 ? setup.threads : support::num_threads());

  const int num_shards = std::max(setup.shards, 2);
  const shard::ShardedGraph sharded =
      shard::partition_shards(graph, num_shards);
  shard::ShardedCcOptions options;
  options.cc.seed = setup.algorithm_seed;
  if (setup.density_threshold) {
    options.cc.density_threshold = *setup.density_threshold;
  }
  const shard::ShardedCcResult result = shard::sharded_cc(sharded, options);
  if (!core::same_partition(result.label_span(), reference)) {
    OracleFailure failure;
    failure.oracle = "sharded";
    failure.algorithm = "sharded";
    std::ostringstream detail;
    detail << "sharded partition (K=" << sharded.num_shards()
           << ") differs from union-find reference ("
           << core::count_components(result.label_span()) << " vs "
           << core::count_components(reference) << " components) under "
           << setup.describe();
    failure.detail = detail.str();
    return failure;
  }
  return std::nullopt;
}

std::optional<OracleFailure> check_service_ingest(
    const graph::EdgeList& edges, VertexId num_vertices,
    std::span<const Label> reference, const RunSetup& setup) {
  // Apply the schedule point exactly as run_under does for registry
  // algorithms; the service's internal solves and hook sweeps then run
  // under the perturbed width and kernel level.
  support::RunConfig config = support::run_config();
  config.simd = setup.simd;
  config.plan = setup.plan;
  const support::RunConfigOverride config_scope(config);
  const support::ThreadCountGuard thread_scope(
      setup.threads > 0 ? setup.threads : support::num_threads());

  const auto fail = [&](std::string detail) {
    OracleFailure failure;
    failure.oracle = "service";
    failure.algorithm = "service";
    failure.detail = std::move(detail) + " under " + setup.describe();
    return failure;
  };

  // Deterministic Fisher–Yates split: first half solved statically, the
  // rest ingested in (up to) three hook batches.
  graph::EdgeList shuffled = edges;
  support::Xoshiro256StarStar rng(
      support::hash_mix(setup.algorithm_seed, 0x5e71ull));
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
  }
  const std::size_t static_count = shuffled.size() / 2;

  Scenario static_shim;
  static_shim.num_vertices = num_vertices;
  static_shim.edges.assign(
      shuffled.begin(),
      shuffled.begin() + static_cast<std::ptrdiff_t>(static_count));

  serve::ServeOptions options;
  options.auto_recompact = false;  // the forced recompact below decides
  options.cc.seed = setup.algorithm_seed;
  if (setup.density_threshold) {
    options.cc.density_threshold = *setup.density_threshold;
  }
  serve::ConnectivityService service(build_scenario_graph(static_shim),
                                     options);

  serve::SnapshotPtr previous = service.snapshot();
  const std::size_t remaining = shuffled.size() - static_count;
  const std::size_t batch = std::max<std::size_t>(1, (remaining + 2) / 3);
  for (std::size_t begin = static_count; begin < shuffled.size();
       begin += batch) {
    const std::size_t count = std::min(batch, shuffled.size() - begin);
    (void)service.ingest_batch(
        std::span<const graph::Edge>(shuffled).subspan(begin, count));
    const serve::SnapshotPtr now = service.snapshot();
    // Ingest may only merge: all members of each pre-batch class must
    // share a post-batch label (labels are canonical, so class ids
    // index directly).
    constexpr Label kUnset = std::numeric_limits<Label>::max();
    std::vector<Label> witness(num_vertices, kUnset);
    const auto old_labels = previous->labels();
    const auto new_labels = now->labels();
    for (VertexId v = 0; v < num_vertices; ++v) {
      const Label cls = old_labels[v];
      if (witness[cls] == kUnset) {
        witness[cls] = new_labels[v];
      } else if (witness[cls] != new_labels[v]) {
        return fail("ingest batch split vertex " + std::to_string(v) +
                    " away from its component");
      }
    }
    previous = now;
  }

  if (!core::same_partition(service.snapshot()->labels(), reference)) {
    return fail(
        "fully-ingested service partition differs from union-find "
        "reference");
  }
  (void)service.recompact();
  if (!core::same_partition(service.snapshot()->labels(), reference)) {
    return fail(
        "post-recompaction partition differs from union-find reference");
  }
  return std::nullopt;
}

}  // namespace thrifty::testing
