// Focused tests for the extension baselines: FastSV, the ConnectIt-style
// sampled+LP hybrid, and the SBM generator they are exercised on.
// (Exact-partition correctness across the whole graph zoo is covered by
// the registry sweep in cc_algorithms_test.cpp.)
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cc_baselines/concurrent_hook.hpp"
#include "cc_baselines/fastsv.hpp"
#include "cc_baselines/hybrid_cc.hpp"
#include "cc_baselines/reference_cc.hpp"
#include "core/cc_common.hpp"
#include "core/verify.hpp"
#include "gen/combine.hpp"
#include "gen/rmat.hpp"
#include "gen/sbm.hpp"
#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "graph/degree_stats.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"

namespace thrifty::baselines {
namespace {

using graph::CsrGraph;
using graph::VertexId;

CsrGraph skewed_graph(int scale = 12, int edge_factor = 8) {
  gen::RmatParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  return graph::build_csr(gen::rmat_edges(params)).graph;
}

TEST(Sbm, CommunityLayoutIsContiguousBlocks) {
  gen::SbmParams params;
  params.num_vertices = 100;
  params.communities = 4;
  EXPECT_EQ(gen::sbm_community_of(params, 0), 0u);
  EXPECT_EQ(gen::sbm_community_of(params, 24), 0u);
  EXPECT_EQ(gen::sbm_community_of(params, 25), 1u);
  EXPECT_EQ(gen::sbm_community_of(params, 99), 3u);
}

TEST(Sbm, ZeroInterDegreeYieldsOneComponentPerCommunity) {
  gen::SbmParams params;
  params.num_vertices = 4000;
  params.communities = 8;
  params.intra_degree = 12.0;  // far above the connectivity threshold
  params.inter_degree = 0.0;
  const auto built =
      graph::build_csr(gen::sbm_edges(params), params.num_vertices);
  // A few isolated vertices may be dropped; the surviving graph must
  // split into exactly 8 components (each block is dense enough to be
  // internally connected with overwhelming probability).
  EXPECT_EQ(core::true_component_count(built.graph), 8u);
}

TEST(Sbm, InterEdgesMergeCommunities) {
  gen::SbmParams params;
  params.num_vertices = 4000;
  params.communities = 8;
  params.intra_degree = 12.0;
  params.inter_degree = 2.0;
  const auto built =
      graph::build_csr(gen::sbm_edges(params), params.num_vertices);
  EXPECT_EQ(core::true_component_count(built.graph), 1u);
}

TEST(Sbm, DeterministicAndNotPowerLaw) {
  gen::SbmParams params;
  params.num_vertices = 1 << 13;
  params.communities = 16;
  EXPECT_EQ(gen::sbm_edges(params), gen::sbm_edges(params));
  const auto g =
      graph::build_csr(gen::sbm_edges(params), params.num_vertices).graph;
  EXPECT_FALSE(graph::looks_power_law(g));
}

TEST(FastSv, MatchesReferenceOnSbmComponents) {
  gen::SbmParams params;
  params.num_vertices = 2000;
  params.communities = 5;
  params.intra_degree = 10.0;
  params.inter_degree = 0.0;
  const auto g =
      graph::build_csr(gen::sbm_edges(params), params.num_vertices).graph;
  const auto fast = fastsv_cc(g);
  const auto reference = reference_cc(g);
  EXPECT_TRUE(core::same_partition(fast.label_span(),
                                   reference.label_span()));
}

TEST(FastSv, LabelsAreComponentMinima) {
  const CsrGraph g = graph::build_csr(gen::clique_edges(100)).graph;
  const auto result = fastsv_cc(g);
  for (const graph::Label l : result.label_span()) EXPECT_EQ(l, 0u);
}

TEST(FastSv, FewIterationsOnLongPath) {
  // FastSV's grandparent hooks contract paths far faster than one hop
  // per iteration — the property that distinguishes it from plain SV.
  const CsrGraph g = graph::build_csr(gen::path_edges(10000)).graph;
  const auto result = fastsv_cc(g);
  EXPECT_TRUE(core::verify_labels(g, result.label_span()).valid);
  EXPECT_LT(result.stats.num_iterations, 64);
}

/// Random union-find forest: parent[v] <= v, so chains end at a root.
core::LabelArray random_forest(VertexId n, std::uint64_t seed) {
  support::Xoshiro256StarStar rng(seed);
  core::LabelArray parent = core::make_label_array(n);
  for (VertexId v = 0; v < n; ++v) {
    parent[v] = static_cast<graph::Label>(rng.next_below(v + 1));
  }
  return parent;
}

/// Reference flatten: chase every entry to its root.
std::vector<graph::Label> flattened(const core::LabelArray& parent) {
  std::vector<graph::Label> roots(parent.begin(), parent.end());
  for (auto& p : roots) {
    while (p != roots[p]) p = roots[p];
  }
  return roots;
}

bool equals(const core::LabelArray& a, const std::vector<graph::Label>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

TEST(HookFlatten, ReachesFixpointOnChainsStarsAndForests) {
  // SV and FastSV shortcut with hook::flatten, and FastSV's termination
  // reads its return value: true exactly when some entry did not already
  // point at its root.
  for (const VertexId n : {0u, 1u, 2u, 17u, 1000u, 10007u}) {
    std::vector<core::LabelArray> forests;
    core::LabelArray chain = core::make_label_array(n);  // v -> v-1 -> 0
    for (VertexId v = 0; v < n; ++v) chain[v] = v == 0 ? 0 : v - 1;
    forests.push_back(std::move(chain));
    core::LabelArray star = core::make_label_array(n);  // already flat
    for (VertexId v = 0; v < n; ++v) star[v] = 0;
    forests.push_back(std::move(star));
    forests.push_back(random_forest(n, 0x88 + n));

    for (const core::LabelArray& forest : forests) {
      const std::vector<graph::Label> expected = flattened(forest);
      const bool expect_moved = !equals(forest, expected);
      for (const int threads : {1, 3, 4}) {
        const support::ThreadCountGuard guard(threads);
        core::LabelArray parent = forest;
        EXPECT_EQ(hook::flatten(parent, n), expect_moved)
            << "n=" << n << " t=" << threads;
        EXPECT_TRUE(equals(parent, expected))
            << "n=" << n << " t=" << threads;
        EXPECT_FALSE(hook::flatten(parent, n)) << "n=" << n;
      }
    }
  }
}

TEST(HookFlatten, SliceTouchesOnlyItsSlice) {
  // flatten() hands each thread one slice; parents are read globally.
  const core::LabelArray forest = random_forest(200, 0x99);
  const std::vector<graph::Label> expected = flattened(forest);
  core::LabelArray parent = forest;
  EXPECT_TRUE(hook::flatten_slice(parent.data(), 50, 150));
  for (VertexId v = 0; v < parent.size(); ++v) {
    if (v >= 50 && v < 150) {
      EXPECT_EQ(parent[v], expected[v]) << "v=" << v;
    } else {
      EXPECT_EQ(parent[v], forest[v]) << "v=" << v;
    }
  }
}

TEST(SampledLp, GiantComponentGetsZeroLabel) {
  const CsrGraph g = skewed_graph(13, 12);
  const auto result = sampled_lp_cc(g);
  ASSERT_TRUE(core::verify_labels(g, result.label_span()).valid);
  const auto giant = core::largest_component(result.label_span());
  EXPECT_EQ(giant.label, 0u);
}

TEST(SampledLp, ProcessesFewEdgesOnSkewedGraphs) {
  const CsrGraph g = skewed_graph(13, 12);
  core::CcOptions options;
  options.instrument = true;  // edge events are counted only when traced
  const auto result = sampled_lp_cc(g, options);
  // The LP finish only has to close the gap the sampling left: its edge
  // work stays a small multiple of |V| rather than |E| passes.
  EXPECT_LT(result.stats.edges_processed_fraction(g.num_directed_edges()),
            0.6);
}

TEST(SampledLp, SampleRoundsSweepStaysCorrect) {
  const CsrGraph g = skewed_graph(11, 6);
  for (const int rounds : {0, 1, 2, 4, 8}) {
    core::CcOptions options;
    options.sample_rounds = rounds;
    const auto result = sampled_lp_cc(g, options);
    EXPECT_TRUE(core::verify_labels(g, result.label_span()).valid)
        << "rounds " << rounds;
  }
  // No component sample: no giant estimate and no label 0, so the finish
  // runs without the Zero-Convergence exit.
  core::CcOptions options;
  options.component_sample_size = 0;
  const auto result = sampled_lp_cc(g, options);
  EXPECT_TRUE(core::verify_labels(g, result.label_span()).valid);
  EXPECT_GT(core::largest_component(result.label_span()).label, 0u);
}

TEST(SampledLp, ManySmallComponentsStayDistinct) {
  graph::EdgeList edges = gen::clique_edges(200);
  const VertexId total =
      gen::append_satellite_components(edges, 200, 50, 4, 3);
  const CsrGraph g = graph::build_csr(edges, total).graph;
  const auto result = sampled_lp_cc(g);
  const auto verdict = core::verify_labels(g, result.label_span());
  EXPECT_TRUE(verdict.valid) << verdict.message;
  EXPECT_EQ(verdict.components, 51u);
}

}  // namespace
}  // namespace thrifty::baselines
