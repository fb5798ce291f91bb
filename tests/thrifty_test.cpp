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
#include "frontier/density.hpp"
#include "gen/barabasi_albert.hpp"
#include "gen/combine.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "instrument/run_stats.hpp"
#include "partition/edge_partitioner.hpp"
#include "shard/shard.hpp"
#include "shard/solver.hpp"
#include "support/parallel.hpp"
#include "testing/oracles.hpp"
#include "testing/scenario.hpp"

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

/// Road-like input: high diameter, no hub (the planted vertex has degree
/// at most 4), several components.
CsrGraph road_like_grid() {
  gen::GridParams params;
  params.width = 512;
  params.height = 512;
  params.removal_fraction = 0.02;
  return graph::build_csr(gen::grid_edges(params)).graph;
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
  // n + m above support::kSerialCutoff: 2 and 4 threads run real teams.
  const CsrGraph star = graph::build_csr(gen::star_edges(8192, 9)).graph;
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
    // zero and the v+1 fallback labels are order-independent minima.
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

// High-diameter input.  The Initial Push leaves at most 4 active vertices,
// so the forced first full pull changes nearly every label.  Every pull
// records its changes, and each must stop enqueueing once its frontier
// is no longer sparse (§IV-E): the next iteration is a pull either way.
TEST(ThriftyGrid, DensePullFrontierStopsEnqueueingAtThreshold) {
  const CsrGraph g = road_like_grid();
  const CcOptions options = instrumented();
  std::vector<Label> serial;
  for (const int threads : {1, 2, 4}) {
    support::ThreadCountGuard guard(threads);
    const CcResult result = thrifty_cc(g, options);
    ASSERT_TRUE(verify_labels(g, result.label_span()).valid)
        << "threads=" << threads;
    ASSERT_GE(result.stats.iterations.size(), 2u);
    EXPECT_EQ(result.stats.iterations[1].direction, Direction::kPull)
        << "threads=" << threads;
    // Each thread may finish the partition it was sweeping when the
    // frontier turned dense.
    VertexId largest_partition = 0;
    for (const auto& range : partition::edge_balanced_partitions(
             g, static_cast<std::size_t>(options.partitions_per_thread) *
                    static_cast<std::size_t>(threads))) {
      largest_partition = std::max(largest_partition, range.size());
    }
    const double bound_per_pull =
        options.density_threshold *
            static_cast<double>(g.num_directed_edges()) +
        static_cast<double>(threads) * static_cast<double>(largest_partition);
    const auto dense_pulls = std::count_if(
        result.stats.iterations.begin(), result.stats.iterations.end(),
        [](const auto& it) { return it.direction == Direction::kPull; });
    EXPECT_LE(static_cast<double>(result.stats.events.frontier_pushes),
              static_cast<double>(dense_pulls) * bound_per_pull)
        << "threads=" << threads;
    const std::vector<Label> canonical =
        canonical_labels(result.label_span());
    if (serial.empty()) {
      serial = canonical;
    } else {
      EXPECT_EQ(canonical, serial) << "threads=" << threads;
    }
  }
}

// Later pulls run owner-only, so label 0 crosses each thread's block in
// one sweep: 4 threads need at most twice the serial iterations.
TEST(ThriftyGrid, FourThreadsAtMostDoubleSerialIterations) {
  const CsrGraph g = road_like_grid();
  int serial_iterations = 0;
  {
    support::ThreadCountGuard guard(1);
    serial_iterations = thrifty_cc(g).stats.num_iterations;
  }
  support::ThreadCountGuard guard(4);
  const CcResult parallel = thrifty_cc(g);
  ASSERT_TRUE(verify_labels(g, parallel.label_span()).valid);
  EXPECT_LE(parallel.stats.num_iterations, 2 * serial_iterations)
      << "serial " << serial_iterations;
}

// Every pull records its changes, so once the first full pull is done a
// sparse frontier is always complete and runs as push: no iteration whose
// density is below the threshold is a pull.
TEST(ThriftyScheduling, SparseFrontierAfterFirstFullPullRunsAsPush) {
  const std::vector<std::pair<const char*, CsrGraph>> graphs{
      {"skewed", skewed_graph()}, {"grid", road_like_grid()}};
  for (const auto& [name, g] : graphs) {
    for (const int threads : {1, 2, 4}) {
      support::ThreadCountGuard guard(threads);
      for (const bool instrument : {false, true}) {
        CcOptions options;
        options.instrument = instrument;
        const CcResult result = thrifty_cc(g, options);
        ASSERT_TRUE(verify_labels(g, result.label_span()).valid);
        bool full_pull_done = false;
        for (const auto& it : result.stats.iterations) {
          if (full_pull_done &&
              frontier::is_sparse(it.density, options.density_threshold)) {
            EXPECT_EQ(it.direction, Direction::kPush)
                << name << " threads=" << threads << " iteration "
                << it.index << " density " << it.density;
          }
          full_pull_done |= it.direction == Direction::kPull ||
                            it.direction == Direction::kPullFrontier;
        }
      }
    }
  }
}

// Path 4-0-2-6-1-5-3 at 1 thread.  The plant site is vertex 0 (degree 2,
// lowest id) and the Initial Push gives 0 to vertices 4 and 2.  In the
// second pull vertex 3's only neighbour, 5, still holds label 2; label 2
// names vertex 1, which took 0 earlier in the same sweep, so the jump
// hands 3 the 0 one pull before the paper-exact loop has it.
TEST(ThriftyJump, SavesOnePullOnAHandBuiltPath) {
  const CsrGraph g =
      graph::build_csr(
          graph::EdgeList{{4, 0}, {0, 2}, {2, 6}, {6, 1}, {1, 5}, {5, 3}}, 7)
          .graph;
  support::ThreadCountGuard guard(1);
  for (const bool instrument : {false, true}) {
    CcOptions options;
    options.instrument = instrument;
    const CcResult jump = thrifty_cc(g, options);
    const CcResult exact =
        thrifty_cc_variant(g, options, {.pointer_jump = false});
    EXPECT_EQ(jump.stats.num_iterations, 4) << "instrument=" << instrument;
    EXPECT_EQ(exact.stats.num_iterations, 5) << "instrument=" << instrument;
    EXPECT_EQ(std::vector<Label>(jump.labels.begin(), jump.labels.end()),
              std::vector<Label>(7, 0));
    EXPECT_EQ(std::vector<Label>(exact.labels.begin(), exact.labels.end()),
              std::vector<Label>(7, 0));
  }
}

/// Labels of the paper-exact loop at 1 thread; every other thread count
/// and the default (jumping) loop must reproduce them byte for byte.  The
/// thread count is the outer loop, so the team is resized three times.
void expect_labels_identical_with_and_without_jump(
    const std::vector<std::pair<std::string, const CsrGraph*>>& graphs) {
  std::vector<std::vector<Label>> expected;
  {
    support::ThreadCountGuard guard(1);
    for (const auto& [name, g] : graphs) {
      const CcResult exact =
          thrifty_cc_variant(*g, {}, {.pointer_jump = false});
      EXPECT_TRUE(verify_labels(*g, exact.label_span()).valid) << name;
      expected.emplace_back(exact.labels.begin(), exact.labels.end());
    }
  }
  for (const int threads : {1, 2, 4}) {
    support::ThreadCountGuard guard(threads);
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      for (const bool jump : {false, true}) {
        const CcResult result =
            thrifty_cc_variant(*graphs[i].second, {}, {.pointer_jump = jump});
        EXPECT_TRUE(std::equal(result.labels.begin(), result.labels.end(),
                               expected[i].begin(), expected[i].end()))
            << graphs[i].first << " threads=" << threads << " jump=" << jump;
      }
    }
  }
}

TEST(ThriftyJump, LabelsIdenticalWithAndWithoutJumpAcrossThreadCounts) {
  const CsrGraph grid = road_like_grid();
  const CsrGraph rmat16 = skewed_graph(16, 8);
  // A cut grid, an R-MAT, a path and a star, 500 isolated vertices, and
  // every id permuted.
  gen::GridParams cut;
  cut.width = 96;
  cut.height = 80;
  cut.removal_fraction = 0.1;
  gen::RmatParams rmat;
  rmat.scale = 10;
  rmat.edge_factor = 4;
  const std::vector<graph::EdgeList> parts{
      gen::grid_edges(cut), gen::rmat_edges(rmat), gen::path_edges(700),
      gen::star_edges(300)};
  const std::vector<VertexId> sizes{96 * 80, 1u << 10, 700, 300};
  graph::EdgeList edges = gen::disjoint_union(parts, sizes);
  const VertexId n = 96 * 80 + (1u << 10) + 700 + 300 + 500;
  gen::permute_vertex_ids(edges, n, 11);
  graph::BuildOptions keep_ids;
  keep_ids.remove_zero_degree_vertices = false;
  const CsrGraph mixed = graph::build_csr(edges, n, keep_ids).graph;
  ASSERT_EQ(mixed.num_vertices(), n);
  expect_labels_identical_with_and_without_jump(
      {{"grid", &grid}, {"rmat16", &rmat16}, {"disjoint union", &mixed}});
}

// Round 0 of a sharded solve runs Thrifty on each shard's intra-shard CSR
// over local ids, so the jump must stay inside the shard.  The cut grid's
// ids are permuted, so every shard holds many small components.
TEST(ThriftyJump, ShardLocalSolvesStayInsideTheirShard) {
  const CsrGraph g =
      testing::build_scenario_graph(testing::make_cut_grid(9));
  const std::vector<Label> reference = testing::reference_partition(g);
  std::vector<std::pair<std::string, const CsrGraph*>> shards;
  std::vector<shard::ShardedGraph> sharded;
  for (const int k : {2, 3, 7}) {
    sharded.push_back(shard::partition_shards(g, k));
    EXPECT_TRUE(same_partition(
        shard::sharded_cc(sharded.back()).label_span(), reference))
        << "k=" << k;
  }
  for (const shard::ShardedGraph& s : sharded) {
    for (std::size_t i = 0; i < s.shards.size(); ++i) {
      shards.emplace_back("k=" + std::to_string(s.num_shards()) +
                              " shard " + std::to_string(i),
                          &s.shards[i].local);
    }
  }
  expect_labels_identical_with_and_without_jump(shards);
}

}  // namespace
}  // namespace thrifty::core
