// Focused tests for the SBM generator and the hook::flatten shortcut.
// (Exact-partition correctness of every registry algorithm across the
// whole graph zoo is covered by the sweep in cc_algorithms_test.cpp.)
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cc_baselines/concurrent_hook.hpp"
#include "core/cc_common.hpp"
#include "core/verify.hpp"
#include "gen/sbm.hpp"
#include "graph/builder.hpp"
#include "graph/degree_stats.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"

namespace thrifty::baselines {
namespace {

using graph::VertexId;

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
  // SV shortcuts with hook::flatten.  Its return value is true exactly
  // when some entry did not already point at its root.
  // The largest n is above support::kSerialCutoff, so it runs on a team.
  for (const VertexId n : {0u, 1u, 2u, 17u, 1000u, 20011u}) {
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

}  // namespace
}  // namespace thrifty::baselines
