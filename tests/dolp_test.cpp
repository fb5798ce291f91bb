// Behavioural tests of the DO-LP baseline (Algorithm 1) and its
// Unified-Labels ablation variant: direction switching, wavefront
// slowness on high-diameter graphs, and the §V-D relationship between
// the three algorithms.
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/dolp.hpp"
#include "core/thrifty.hpp"
#include "core/verify.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "instrument/run_stats.hpp"
#include "support/parallel.hpp"

namespace thrifty::core {
namespace {

using graph::CsrGraph;
using graph::VertexId;
using instrument::Direction;

CsrGraph skewed_graph(int scale = 13, int edge_factor = 12) {
  gen::RmatParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  return graph::build_csr(gen::rmat_edges(params)).graph;
}

TEST(Dolp, FirstIterationIsAlwaysPull) {
  CcOptions options;
  options.instrument = true;
  const CcResult result = dolp_cc(skewed_graph(), options);
  ASSERT_FALSE(result.stats.iterations.empty());
  EXPECT_EQ(result.stats.iterations.front().direction, Direction::kPull);
  // Initial frontier is the full graph: density (|V|+|E|)/|E| > 1.
  EXPECT_GT(result.stats.iterations.front().density, 1.0);
}

TEST(Dolp, IterationCountEqualsEccentricityPlusTwoOnPath) {
  // On a path with the smallest label at one end, synchronous LP needs
  // (diameter) propagation iterations plus one fixed-point check.
  const VertexId n = 50;
  const CsrGraph g = graph::build_csr(gen::path_edges(n)).graph;
  CcOptions options;
  options.density_threshold = 0.0;  // force pull-only (synchronous)
  const CcResult result = dolp_cc(g, options);
  EXPECT_EQ(result.stats.num_iterations, static_cast<int>(n - 1) + 1);
}

TEST(Dolp, UnifiedNeverNeedsMoreIterations) {
  // §V-C1: the Unified Labels Array accelerates propagation, cutting
  // iterations (by 39% on average in the paper).
  for (const int scale : {11, 12, 13}) {
    const CsrGraph g = skewed_graph(scale, 8);
    CcOptions options;
    options.density_threshold = 0.05;
    const CcResult two_array = dolp_cc(g, options);
    const CcResult unified = dolp_unified_cc(g, options);
    EXPECT_LE(unified.stats.num_iterations, two_array.stats.num_iterations)
        << "scale " << scale;
  }
}

TEST(Dolp, UnifiedCutsIterationsMassivelyOnPaths) {
  // On a path processed in ascending order, in-iteration propagation
  // sweeps the whole chain in one pass: iterations collapse from O(n) to
  // O(1).  This is the §III-A "repeated wavefronts" pathology and its
  // §IV-A fix in the sharpest form.
  const VertexId n = 2000;
  const CsrGraph g = graph::build_csr(gen::path_edges(n)).graph;
  CcOptions options;
  options.density_threshold = 0.0;  // pull-only for both
  const CcResult two_array = dolp_cc(g, options);
  const CcResult unified = dolp_unified_cc(g, options);
  EXPECT_GE(two_array.stats.num_iterations, static_cast<int>(n - 1));
  EXPECT_LE(unified.stats.num_iterations,
            two_array.stats.num_iterations / 10);
}

TEST(Dolp, SwitchesToPushOnSparseFrontiers) {
  // A star with a long tail: after the star saturates, only the tail's
  // wavefront remains active -> sparse push iterations.
  graph::EdgeList edges = gen::star_edges(4096);
  for (VertexId i = 0; i < 512; ++i) {
    edges.push_back({4096 + i, i == 0 ? 1 : 4096 + i - 1});
  }
  const CsrGraph g = graph::build_csr(edges, 4608).graph;
  CcOptions options;
  options.instrument = true;
  options.density_threshold = 0.05;
  const CcResult result = dolp_cc(g, options);
  bool saw_push = false;
  for (const auto& it : result.stats.iterations) {
    saw_push = saw_push || it.direction == Direction::kPush;
  }
  EXPECT_TRUE(saw_push);
  EXPECT_TRUE(verify_labels(g, result.label_span()).valid);
}

TEST(Dolp, ProcessesEveryEdgeSeveralTimes) {
  // §V-C2: DO-LP processes each edge multiple times (7.7x average in the
  // paper) because pull iterations scan all edges.
  CcOptions options;
  options.instrument = true;
  options.density_threshold = 0.05;
  const CsrGraph g = skewed_graph(12, 8);
  const CcResult result = dolp_cc(g, options);
  EXPECT_GT(result.stats.edges_processed_fraction(g.num_directed_edges()),
            2.0);
}

TEST(Dolp, ActivePercentHighWhileConvergedPercentHigh) {
  // Figure 3's observation: mid-run, many vertices are simultaneously
  // active and many have already converged — the "preaching to the
  // converged" overlap Thrifty removes.
  CcOptions options;
  options.instrument = true;
  options.density_threshold = 0.05;
  const CsrGraph g = skewed_graph(13, 12);
  const CcResult result = dolp_cc(g, options);
  bool overlap = false;
  const auto n = static_cast<double>(g.num_vertices());
  for (const auto& it : result.stats.iterations) {
    const double active = static_cast<double>(it.active_vertices) / n;
    const double converged =
        static_cast<double>(it.converged_vertices) / n;
    if (active > 0.3 && converged > 0.3) overlap = true;
  }
  EXPECT_TRUE(overlap);
}

TEST(Dolp, UnifiedAgreesWithTwoArrayPartition) {
  const CsrGraph g = skewed_graph(12, 6);
  const CcResult a = dolp_cc(g);
  const CcResult b = dolp_unified_cc(g);
  EXPECT_TRUE(same_partition(a.label_span(), b.label_span()));
}

TEST(Dolp, FinalLabelIsMinVertexIdOfComponent) {
  // DO-LP's labels are vertex ids, converging to the component minimum.
  const CsrGraph g = graph::build_csr(gen::clique_edges(32)).graph;
  const CcResult result = dolp_cc(g);
  for (const graph::Label l : result.label_span()) EXPECT_EQ(l, 0u);
}

TEST(Dolp, TimeIsRecordedPerIteration) {
  CcOptions options;
  options.instrument = true;
  const CcResult result = dolp_cc(skewed_graph(11, 6), options);
  double sum = 0.0;
  for (const auto& it : result.stats.iterations) {
    EXPECT_GE(it.time_ms, 0.0);
    sum += it.time_ms;
  }
  EXPECT_LE(sum, result.stats.total_ms + 1.0);
}

TEST(DolpStar, SkewedPartitionStableAcrossThreadCounts) {
  // Push iterations on a skewed graph must give the exact component
  // partition at every width, with and without the unified array.
  const CsrGraph g = skewed_graph(12, 8);
  const CcResult reference = dolp_cc(g);
  ASSERT_TRUE(verify_labels(g, reference.label_span()).valid);
  for (const int threads : {1, 2, 4}) {
    support::ThreadCountGuard guard(threads);
    for (const auto* which : {"dolp", "unified"}) {
      const CcResult result = which[0] == 'd'
                                  ? dolp_cc(g)
                                  : dolp_unified_cc(g);
      ASSERT_TRUE(verify_labels(g, result.label_span()).valid)
          << which << " threads=" << threads;
      EXPECT_TRUE(same_partition(result.labels, reference.labels))
          << which << " threads=" << threads;
    }
  }
}

TEST(DolpStar, StarPushIterationKeepsEveryLeaf) {
  const CsrGraph star =
      graph::build_csr(gen::star_edges(4096, 2048)).graph;
  for (const int threads : {1, 2, 4}) {
    support::ThreadCountGuard guard(threads);
    const CcResult result = dolp_cc(star);
    ASSERT_TRUE(verify_labels(star, result.label_span()).valid);
    EXPECT_EQ(largest_component(result.label_span()).size,
              star.num_vertices());
  }
}

}  // namespace
}  // namespace thrifty::core
