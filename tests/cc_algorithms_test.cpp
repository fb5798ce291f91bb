// The central correctness sweep: every CC algorithm in the registry runs
// on every graph family and must reproduce the exact connectivity
// partition of the sequential union-find oracle — at several thread
// widths and under both density thresholds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cc_baselines/registry.hpp"
#include "core/cc_common.hpp"
#include "core/verify.hpp"
#include "gen/barabasi_albert.hpp"
#include "gen/combine.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "gen/small_world.hpp"
#include "graph/builder.hpp"
#include "support/parallel.hpp"

namespace thrifty {
namespace {

using baselines::AlgorithmEntry;
using graph::CsrGraph;
using graph::EdgeList;
using graph::VertexId;

struct GraphCase {
  std::string name;
  CsrGraph graph;
};

/// The graph-family zoo the sweep runs over.  Deliberately covers: empty,
/// singleton-edge, high diameter (paths, grids), hubs (stars), dense
/// (cliques), skewed with giant component (R-MAT, BA), uniform (ER, small
/// world), many components (satellites), and adversarial label layouts
/// (permuted ids so the minimum label starts on the fringe).
std::vector<GraphCase> make_graph_cases() {
  std::vector<GraphCase> cases;
  auto add = [&cases](std::string name, EdgeList edges, VertexId n) {
    cases.push_back(
        {std::move(name), graph::build_csr(edges, n).graph});
  };

  add("single_edge", {{0, 1}}, 2);
  add("triangle", gen::clique_edges(3), 3);
  add("path_64", gen::path_edges(64), 64);
  add("path_4096", gen::path_edges(4096), 4096);
  add("cycle_1000", gen::cycle_edges(1000), 1000);
  add("star_1000", gen::star_edges(1000), 1000);
  add("star_center_hi", gen::star_edges(1000, 999), 1000);
  add("clique_64", gen::clique_edges(64), 64);

  {
    gen::GridParams params;
    params.width = 48;
    params.height = 48;
    add("grid_48x48", gen::grid_edges(params), 48 * 48);
  }
  {
    gen::GridParams params;
    params.width = 64;
    params.height = 64;
    params.removal_fraction = 0.25;
    params.seed = 3;
    add("grid_shattered", gen::grid_edges(params), 64 * 64);
  }
  {
    gen::RmatParams params;
    params.scale = 12;
    params.edge_factor = 8;
    add("rmat_12", gen::rmat_edges(params), 1u << 12);
  }
  {
    gen::RmatParams params;
    params.scale = 12;
    params.edge_factor = 2;  // sparse: many natural components
    params.seed = 5;
    add("rmat_sparse", gen::rmat_edges(params), 1u << 12);
  }
  {
    gen::BarabasiAlbertParams params;
    params.num_vertices = 4096;
    params.edges_per_vertex = 4;
    add("ba_4096", gen::barabasi_albert_edges(params), 4096);
  }
  {
    gen::ErdosRenyiParams params;
    params.num_vertices = 4096;
    params.num_edges = 16384;
    add("er_4096", gen::erdos_renyi_edges(params), 4096);
  }
  {
    gen::SmallWorldParams params;
    params.num_vertices = 4096;
    params.k = 3;
    add("small_world", gen::small_world_edges(params), 4096);
  }
  {
    // Giant + many satellites, permuted so component structure has no
    // correlation with vertex ids.
    gen::BarabasiAlbertParams params;
    params.num_vertices = 4096;
    params.edges_per_vertex = 3;
    EdgeList edges = gen::barabasi_albert_edges(params);
    VertexId n = gen::append_satellite_components(edges, 4096, 200, 3, 9);
    gen::permute_vertex_ids(edges, n, 10);
    add("giant_plus_satellites", std::move(edges), n);
  }
  {
    // Two medium components of equal size: no giant at all.
    const std::vector<EdgeList> parts{gen::clique_edges(300),
                                      gen::clique_edges(300)};
    const std::vector<VertexId> sizes{300, 300};
    add("two_equal_cliques", gen::disjoint_union(parts, sizes), 600);
  }
  {
    // Long path grafted to a hub: forces many sparse push iterations.
    EdgeList edges = gen::star_edges(512);
    for (VertexId i = 0; i < 2000; ++i) {
      edges.push_back({512 + i, i == 0 ? 1 : 512 + i - 1});
    }
    add("star_with_tail", std::move(edges), 2512);
  }
  {
    add("figure2", gen::figure2_example_edges(), 6);
  }
  return cases;
}

// Regions size their teams by the elements they touch (n + m for a
// sweep, support::threads_for), so the _t2/_t4 sweeps run real teams only
// on zoo graphs at or above the serial cutoff.
TEST(CcGraphZoo, SomeGraphsCrossTheSerialCutoff) {
  std::size_t crossing = 0;
  for (const GraphCase& gc : make_graph_cases()) {
    if (gc.graph.num_vertices() + gc.graph.num_directed_edges() >=
        support::kSerialCutoff) {
      ++crossing;
    }
  }
  EXPECT_GE(crossing, 1u);
}

class CcAlgorithmSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(CcAlgorithmSweep, MatchesOracleOnEveryGraphFamily) {
  const auto& [algo_name, threads] = GetParam();
  const AlgorithmEntry* entry = baselines::find_algorithm(algo_name);
  ASSERT_NE(entry, nullptr);
  support::ThreadCountGuard guard(threads);
  for (const GraphCase& gc : make_graph_cases()) {
    const core::CcResult result =
        baselines::run_algorithm(*entry, gc.graph);
    const core::VerifyResult verdict =
        core::verify_labels(gc.graph, result.label_span());
    EXPECT_TRUE(verdict.valid)
        << algo_name << " on " << gc.name << ": " << verdict.message;
  }
}

std::vector<std::string> algorithm_names() {
  std::vector<std::string> names;
  for (const AlgorithmEntry& entry : baselines::all_algorithms()) {
    names.emplace_back(entry.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, CcAlgorithmSweep,
    ::testing::Combine(::testing::ValuesIn(algorithm_names()),
                       ::testing::Values(1, 2, 4)),
    [](const auto& param_info) {
      return std::get<0>(param_info.param) + "_t" +
             std::to_string(std::get<1>(param_info.param));
    });

class CcSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CcSeedSweep, RandomisedAlgorithmsCorrectAcrossSeeds) {
  const std::uint64_t seed = GetParam();
  gen::RmatParams params;
  params.scale = 11;
  params.edge_factor = 8;  // n + m above support::kSerialCutoff
  params.seed = seed;
  const CsrGraph g =
      graph::build_csr(gen::rmat_edges(params), 1u << 11).graph;
  core::CcOptions options;
  options.seed = seed;
  for (const char* name : {"jt", "afforest", "thrifty"}) {
    const AlgorithmEntry* entry = baselines::find_algorithm(name);
    ASSERT_NE(entry, nullptr);
    const core::CcResult result =
        baselines::run_algorithm(*entry, g, options);
    EXPECT_TRUE(core::verify_labels(g, result.label_span()).valid)
        << name << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CcSeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

TEST(CcAgreement, AllAlgorithmsAgreePairwise) {
  gen::RmatParams params;
  params.scale = 12;
  params.edge_factor = 6;
  const CsrGraph g = graph::build_csr(gen::rmat_edges(params)).graph;
  const auto algorithms = baselines::all_algorithms();
  const core::CcResult first =
      baselines::run_algorithm(algorithms.front(), g);
  const auto canonical_first = core::canonical_labels(first.label_span());
  for (const AlgorithmEntry& entry : algorithms.subspan(1)) {
    const core::CcResult other = baselines::run_algorithm(entry, g);
    EXPECT_EQ(canonical_first, core::canonical_labels(other.label_span()))
        << entry.name << " disagrees with " << algorithms.front().name;
  }
}

TEST(CcRegistry, LookupAndOrder) {
  EXPECT_EQ(baselines::paper_algorithms().size(), 6u);
  EXPECT_EQ(baselines::paper_algorithms().front().name, "sv");
  EXPECT_EQ(baselines::paper_algorithms().back().name, "thrifty");
  EXPECT_NE(baselines::find_algorithm("thrifty"), nullptr);
  EXPECT_EQ(baselines::find_algorithm("nonexistent"), nullptr);
}

TEST(CcEmptyGraph, AllAlgorithmsHandleIt) {
  const CsrGraph g;
  for (const AlgorithmEntry& entry : baselines::all_algorithms()) {
    const core::CcResult result = baselines::run_algorithm(entry, g);
    EXPECT_TRUE(result.labels.empty()) << entry.name;
  }
}

}  // namespace
}  // namespace thrifty
