// Behavioural tests of the Thrifty algorithm itself: each of the four
// optimisations must be observable in the run statistics, exactly as
// §V-C of the paper measures them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "core/dolp.hpp"
#include "core/thrifty.hpp"
#include "core/verify.hpp"
#include "gen/barabasi_albert.hpp"
#include "gen/combine.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "instrument/run_stats.hpp"
#include "support/parallel.hpp"

namespace thrifty::core {
namespace {

using graph::CsrGraph;
using graph::Label;
using graph::VertexId;
using instrument::Direction;

CsrGraph skewed_graph(int scale = 13, int edge_factor = 16) {
  gen::RmatParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  return graph::build_csr(gen::rmat_edges(params)).graph;
}

CcOptions instrumented() {
  CcOptions options;
  options.instrument = true;
  return options;
}

TEST(Thrifty, ZeroPlantingGiantComponentConvergesToZero) {
  const CsrGraph g = skewed_graph();
  const CcResult result = thrifty_cc(g);
  ASSERT_TRUE(verify_labels(g, result.label_span()).valid);
  // The giant component carries label 0 (planted at the hub).
  const LargestComponent giant = largest_component(result.label_span());
  EXPECT_EQ(giant.label, 0u);
  EXPECT_EQ(result.labels[g.max_degree_vertex()], 0u);
}

TEST(Thrifty, FirstIterationIsInitialPush) {
  const CsrGraph g = skewed_graph();
  const CcResult result = thrifty_cc(g, instrumented());
  ASSERT_FALSE(result.stats.iterations.empty());
  const auto& first = result.stats.iterations.front();
  EXPECT_EQ(first.direction, Direction::kInitialPush);
  EXPECT_EQ(first.index, 0);
  EXPECT_EQ(first.active_vertices, 1u);
  // The initial push processes exactly the hub's edges — a tiny fraction
  // of the graph (Table VI's point).
  EXPECT_EQ(first.edges_processed, g.degree(g.max_degree_vertex()));
  EXPECT_LT(first.edges_processed, g.num_directed_edges() / 10);
}

TEST(Thrifty, InitialPushConvertsAllHubNeighbors) {
  const CsrGraph g = skewed_graph();
  const CcResult result = thrifty_cc(g, instrumented());
  const auto& first = result.stats.iterations.front();
  // Every neighbour of the hub had label > 0, so every one changed.
  EXPECT_EQ(first.label_changes, g.degree(g.max_degree_vertex()));
}

TEST(Thrifty, MajorityConvergesAfterFirstPullIteration) {
  // §V-C3: Zero Planting makes ~88% of vertices converge after the first
  // pull iteration on skewed graphs.  Our synthetic stand-ins should show
  // the same overwhelming first-pull convergence.
  const CsrGraph g = skewed_graph(14, 16);
  const CcResult result = thrifty_cc(g, instrumented());
  ASSERT_GE(result.stats.iterations.size(), 2u);
  const auto& first_pull = result.stats.iterations[1];
  ASSERT_EQ(first_pull.direction, Direction::kPull);
  const double converged_share =
      static_cast<double>(first_pull.converged_vertices) /
      static_cast<double>(g.num_vertices());
  EXPECT_GT(converged_share, 0.60);
}

TEST(Thrifty, ZeroConvergenceSkipsAndEarlyExits) {
  const CsrGraph g = skewed_graph();
  const CcResult result = thrifty_cc(g, instrumented());
  EXPECT_GT(result.stats.events.skipped_converged, 0u);
  EXPECT_GT(result.stats.events.early_exits, 0u);
}

TEST(Thrifty, ProcessesSmallFractionOfEdges) {
  // §V-C2 headline: Thrifty processes a few percent of the edges while
  // DO-LP processes each edge several times.
  const CsrGraph g = skewed_graph(14, 16);
  const CcResult thrifty = thrifty_cc(g, instrumented());
  CcOptions dolp_options = instrumented();
  dolp_options.density_threshold = 0.05;
  const CcResult dolp = dolp_cc(g, dolp_options);
  const double thrifty_fraction =
      thrifty.stats.edges_processed_fraction(g.num_directed_edges());
  const double dolp_fraction =
      dolp.stats.edges_processed_fraction(g.num_directed_edges());
  EXPECT_LT(thrifty_fraction, 0.35);
  EXPECT_GT(dolp_fraction, 2.0);  // several full passes
  EXPECT_LT(thrifty_fraction, dolp_fraction / 10.0);
}

TEST(Thrifty, FewerIterationsThanDolp) {
  // Table V: Thrifty's ratio is < 1 on every dataset.
  for (const int scale : {12, 13}) {
    const CsrGraph g = skewed_graph(scale, 12);
    const CcResult thrifty = thrifty_cc(g);
    CcOptions dolp_options;
    dolp_options.density_threshold = 0.05;
    const CcResult dolp = dolp_cc(g, dolp_options);
    EXPECT_LE(thrifty.stats.num_iterations, dolp.stats.num_iterations)
        << "scale " << scale;
  }
}

TEST(Thrifty, PullFrontierRunsBeforeFirstPush) {
  // §IV-E: when switching to push traversal, a Pull-Frontier iteration
  // materialises the detailed frontier first.
  const CsrGraph g = skewed_graph();
  const CcResult result = thrifty_cc(g, instrumented());
  bool seen_pull_frontier = false;
  for (const auto& it : result.stats.iterations) {
    if (it.direction == Direction::kPush) {
      EXPECT_TRUE(seen_pull_frontier)
          << "push iteration " << it.index << " before any Pull-Frontier";
    }
    if (it.direction == Direction::kPullFrontier) {
      seen_pull_frontier = true;
    }
  }
}

TEST(Thrifty, DensityRecordedPerIteration) {
  const CsrGraph g = skewed_graph();
  const CcResult result = thrifty_cc(g, instrumented());
  for (const auto& it : result.stats.iterations) {
    EXPECT_GE(it.density, 0.0) << "iteration " << it.index;
  }
  // Iteration indices are consecutive from 0.
  for (std::size_t i = 0; i < result.stats.iterations.size(); ++i) {
    EXPECT_EQ(result.stats.iterations[i].index, static_cast<int>(i));
  }
}

TEST(Thrifty, CorrectOnDisconnectedGraphWithIsolatedHub) {
  // The zero label lands in one clique; the other components must still
  // converge to their own distinct labels.
  const std::vector<graph::EdgeList> parts{
      gen::star_edges(100), gen::clique_edges(40), gen::path_edges(50)};
  const std::vector<VertexId> sizes{100, 40, 50};
  auto edges = gen::disjoint_union(parts, sizes);
  const CsrGraph g = graph::build_csr(edges, 190).graph;
  const CcResult result = thrifty_cc(g);
  const VerifyResult verdict = verify_labels(g, result.label_span());
  EXPECT_TRUE(verdict.valid) << verdict.message;
  EXPECT_EQ(verdict.components, 3u);
  // The star's hub has the maximum degree, so the star converges to 0.
  EXPECT_EQ(result.labels[0], 0u);
}

TEST(Thrifty, NonGiantComponentsGetMinVertexPlusOneLabels) {
  // Components not containing the planted zero converge to the smallest
  // initial label among them, i.e. (min vertex id) + 1.
  const std::vector<graph::EdgeList> parts{gen::clique_edges(50),
                                           gen::clique_edges(10)};
  const std::vector<VertexId> sizes{50, 10};
  const auto edges = gen::disjoint_union(parts, sizes);
  const CsrGraph g = graph::build_csr(edges, 60).graph;
  const CcResult result = thrifty_cc(g);
  // Hub is in the 50-clique -> label 0; the 10-clique starts at vertex 50
  // whose initial label is 51.
  EXPECT_EQ(result.labels[0], 0u);
  EXPECT_EQ(result.labels[55], 51u);
}

TEST(Thrifty, ThresholdSweepAllCorrect) {
  const CsrGraph g = skewed_graph(12, 8);
  for (const double threshold : {0.001, 0.01, 0.05, 0.5}) {
    CcOptions options;
    options.density_threshold = threshold;
    const CcResult result = thrifty_cc(g, options);
    EXPECT_TRUE(verify_labels(g, result.label_span()).valid)
        << "threshold " << threshold;
  }
}

TEST(Thrifty, HigherThresholdNeverIncreasesPushIterations) {
  // With threshold 0.5 nearly every iteration is "sparse"-eligible; with
  // threshold ~0 no iteration is.  Sanity-check the direction machinery.
  const CsrGraph g = skewed_graph(12, 8);
  CcOptions pull_only;
  pull_only.instrument = true;
  pull_only.density_threshold = 1e-12;
  const CcResult all_pull = thrifty_cc(g, pull_only);
  for (const auto& it : all_pull.stats.iterations) {
    EXPECT_NE(it.direction, Direction::kPush);
  }
}

TEST(Thrifty, InstrumentedAndPlainRunsAgree) {
  const CsrGraph g = skewed_graph(12, 8);
  const CcResult plain = thrifty_cc(g);
  const CcResult traced = thrifty_cc(g, instrumented());
  EXPECT_TRUE(
      same_partition(plain.label_span(), traced.label_span()));
  EXPECT_TRUE(traced.stats.instrumented);
  EXPECT_FALSE(plain.stats.instrumented);
  EXPECT_EQ(plain.stats.events.edges_processed, 0u);
  EXPECT_GT(traced.stats.events.edges_processed, 0u);
}

TEST(Thrifty, ConvergedVerticesMonotonePerIteration) {
  const CsrGraph g = skewed_graph(12, 12);
  const CcResult result = thrifty_cc(g, instrumented());
  std::uint64_t previous = 0;
  for (const auto& it : result.stats.iterations) {
    EXPECT_GE(it.converged_vertices, previous);
    previous = it.converged_vertices;
  }
  EXPECT_EQ(previous, g.num_vertices());  // all converged at the end
}

TEST(Thrifty, SingleVertexAndSingleEdge) {
  {
    graph::BuildOptions keep;
    keep.remove_zero_degree_vertices = false;
    const CsrGraph g = graph::build_csr({}, 1, keep).graph;
    const CcResult result = thrifty_cc(g);
    EXPECT_EQ(result.labels.size(), 1u);
  }
  {
    const CsrGraph g = graph::build_csr({{0, 1}}, 2).graph;
    const CcResult result = thrifty_cc(g);
    EXPECT_EQ(result.labels[0], result.labels[1]);
  }
}

TEST(Thrifty, LabelsAreZeroOrVertexPlusOneValues) {
  // Thrifty never invents labels: every final label is 0 or some v+1.
  const CsrGraph g = skewed_graph(11, 4);
  const CcResult result = thrifty_cc(g);
  for (const Label l : result.label_span()) {
    EXPECT_LE(l, g.num_vertices());
  }
}

// Hub-shaped graphs at 1, 2 and 4 threads: push iterations consume the
// frontier through the paper's per-thread worklists with work stealing,
// so the thread count changes only which thread visits which vertex.
TEST(ThriftyStar, StarGraphCorrectAcrossThreadCounts) {
  const CsrGraph star = graph::build_csr(gen::star_edges(4096, 9)).graph;
  for (const int threads : {1, 2, 4}) {
    support::ThreadCountGuard guard(threads);
    const CcResult result = thrifty_cc(star);
    ASSERT_TRUE(verify_labels(star, result.label_span()).valid)
        << "threads=" << threads;
    EXPECT_EQ(largest_component(result.label_span()).size,
              star.num_vertices());
  }
}

TEST(ThriftyStar, SkewedLabelsIdenticalAcrossThreadCounts) {
  const CsrGraph g = skewed_graph(12, 8);
  CcResult serial;
  {
    support::ThreadCountGuard guard(1);
    serial = thrifty_cc(g);
  }
  ASSERT_TRUE(verify_labels(g, serial.label_span()).valid);
  for (const int threads : {2, 4}) {
    support::ThreadCountGuard guard(threads);
    const CcResult parallel = thrifty_cc(g);
    ASSERT_TRUE(verify_labels(g, parallel.label_span()).valid);
    // Labels are identical, not merely partition-equivalent: the planted
    // zero and the v+k fallback labels are order-independent minima.
    EXPECT_EQ(parallel.labels.size(), serial.labels.size());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(parallel.labels[v], serial.labels[v])
          << "vertex " << v << " threads=" << threads;
    }
  }
}

TEST(ThriftyStar, DisconnectedHubsStayInTheirComponents) {
  // Two stars that must not merge, plus a path.
  const std::vector<graph::EdgeList> parts{gen::star_edges(512),
                                           gen::star_edges(512),
                                           gen::path_edges(64)};
  const std::vector<VertexId> sizes{512, 512, 64};
  const CsrGraph g =
      graph::build_csr(gen::disjoint_union(parts, sizes), 1088).graph;
  for (const int threads : {1, 2, 4}) {
    support::ThreadCountGuard guard(threads);
    const CcResult result = thrifty_cc(g);
    ASSERT_TRUE(verify_labels(g, result.label_span()).valid);
    EXPECT_EQ(component_sizes(result.labels),
              (std::vector<std::uint64_t>{512, 512, 64}));
  }
}

}  // namespace
}  // namespace thrifty::core
