// Cross-cutting behaviours not pinned down by the per-module suites:
// Thrifty direction scheduling, registry threshold policy, and assorted
// edge cases.
#include <gtest/gtest.h>

#include <sstream>

#include "cc_baselines/registry.hpp"
#include "core/thrifty.hpp"
#include "core/verify.hpp"
#include "gen/combine.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "instrument/csv_export.hpp"
#include "reorder/reorder.hpp"

namespace thrifty {
namespace {

using graph::CsrGraph;
using graph::EdgeList;
using graph::VertexId;

CsrGraph star_with_tail() {
  // The tail descends in vertex id away from the star (attachment at the
  // highest tail id), so an ascending asynchronous sweep cannot collapse
  // it in one pass — the frontier must go sparse and push.
  EdgeList edges = gen::star_edges(4096);
  const VertexId tail_len = 1024;
  edges.push_back({1, 4096 + tail_len - 1});
  for (VertexId i = 0; i + 1 < tail_len; ++i) {
    edges.push_back({4096 + i, 4096 + i + 1});
  }
  return graph::build_csr(edges, 4096 + tail_len).graph;
}

TEST(ThriftyScheduling, PushIterationsAppearOnSparseTails) {
  const CsrGraph g = star_with_tail();
  core::CcOptions options;
  options.instrument = true;
  options.density_threshold = 0.05;
  const auto result = core::thrifty_cc(g, options);
  bool saw_push = false;
  bool saw_pull_frontier = false;
  for (const auto& it : result.stats.iterations) {
    saw_push |= it.direction == instrument::Direction::kPush;
    saw_pull_frontier |=
        it.direction == instrument::Direction::kPullFrontier;
  }
  EXPECT_TRUE(saw_push);
  EXPECT_TRUE(saw_pull_frontier);
}

TEST(ThriftyScheduling, ZeroThresholdMeansNoPush) {
  const CsrGraph g = star_with_tail();
  core::CcOptions options;
  options.instrument = true;
  options.density_threshold = 0.0;
  const auto result = core::thrifty_cc(g, options);
  for (const auto& it : result.stats.iterations) {
    EXPECT_NE(it.direction, instrument::Direction::kPush);
  }
  // Still exact.
  EXPECT_EQ(core::count_components(result.label_span()), 1u);
}

TEST(RegistryPolicy, RunAlgorithmAppliesOwnThreshold) {
  // DO-LP's registry entry pins the 5% Ligra threshold even when the
  // caller passes something else; non-LP entries ignore thresholds.
  gen::RmatParams params;
  params.scale = 10;
  params.edge_factor = 6;
  const CsrGraph g = graph::build_csr(gen::rmat_edges(params)).graph;
  core::CcOptions options;
  options.instrument = true;
  options.density_threshold = 0.9;  // absurd value, must be overridden
  const auto* dolp = baselines::find_algorithm("dolp");
  const auto result = baselines::run_algorithm(*dolp, g, options);
  EXPECT_TRUE(core::verify_labels(g, result.label_span()).valid);
  // With the absurd 90% threshold, nearly every iteration would be a
  // push; with the pinned 5% the first iterations must be pulls.
  ASSERT_FALSE(result.stats.iterations.empty());
  EXPECT_EQ(result.stats.iterations.front().direction,
            instrument::Direction::kPull);
}

TEST(ReorderEdgeCases, BfsOrderCoversDisconnectedGraphs) {
  const std::vector<EdgeList> parts{gen::star_edges(50),
                                    gen::path_edges(20)};
  const std::vector<VertexId> sizes{50, 20};
  const CsrGraph g =
      graph::build_csr(gen::disjoint_union(parts, sizes), 70).graph;
  const auto perm = reorder::bfs_order(g);
  EXPECT_TRUE(reorder::is_permutation(perm));
  // Root (star hub) gets id 0; the unreachable path gets the tail ids.
  EXPECT_EQ(perm[0], 0u);
}

TEST(BuilderEdgeCases, TrailingIsolatedVerticesDropped) {
  const auto result = graph::build_csr({{0, 1}}, 100);
  EXPECT_EQ(result.graph.num_vertices(), 2u);
  EXPECT_EQ(result.old_to_new.size(), 100u);
  EXPECT_EQ(result.old_to_new[99], graph::BuildResult::kDroppedVertex);
}

TEST(BuilderEdgeCases, SelfLoopOnlyGraphKeepsNothingByDefault) {
  const auto result = graph::build_csr({{3, 3}, {7, 7}}, 10);
  EXPECT_EQ(result.graph.num_vertices(), 0u);
}

TEST(CsvExport, MultiRunIterationsShareOneHeader) {
  gen::RmatParams params;
  params.scale = 9;
  params.edge_factor = 4;
  const CsrGraph g = graph::build_csr(gen::rmat_edges(params)).graph;
  core::CcOptions options;
  options.instrument = true;
  std::vector<instrument::RunStats> runs;
  const auto* dolp = baselines::find_algorithm("dolp");
  const auto* thrifty_entry = baselines::find_algorithm("thrifty");
  runs.push_back(baselines::run_algorithm(*dolp, g, options).stats);
  runs.push_back(
      baselines::run_algorithm(*thrifty_entry, g, options).stats);
  std::ostringstream out;
  instrument::write_iterations_csv(out, runs);
  const std::string csv = out.str();
  EXPECT_EQ(csv.find("algorithm,iteration"), 0u);
  // Exactly one header.
  EXPECT_EQ(csv.find("algorithm,iteration", 1), std::string::npos);
  EXPECT_NE(csv.find("dolp,"), std::string::npos);
  EXPECT_NE(csv.find("thrifty,"), std::string::npos);
}

TEST(VerifierMessages, ExplainFailureModes) {
  const CsrGraph g = graph::build_csr({{0, 1}, {2, 3}}, 4).graph;
  const auto merged =
      core::verify_labels(g, std::vector<graph::Label>{7, 7, 7, 7});
  EXPECT_NE(merged.message.find("true component count"),
            std::string::npos);
  const auto inconsistent =
      core::verify_labels(g, std::vector<graph::Label>{0, 1, 2, 2});
  EXPECT_NE(inconsistent.message.find("differ across an edge"),
            std::string::npos);
}

}  // namespace
}  // namespace thrifty
