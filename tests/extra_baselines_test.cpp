// Focused tests for the extension baselines: FastSV, the ConnectIt-style
// sampled+LP hybrid, and the SBM generator they are exercised on.
// (Exact-partition correctness across the whole graph zoo is covered by
// the registry sweep in cc_algorithms_test.cpp.)
#include <gtest/gtest.h>

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
