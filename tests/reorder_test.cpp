// Tests for src/reorder: permutation validity, graph isomorphism under
// relabeling, and the §III-C connection between vertex order and label
// propagation efficiency.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/cc_common.hpp"
#include "core/dolp.hpp"
#include "core/thrifty.hpp"
#include "core/verify.hpp"
#include "core/wavefront_trace.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "graph/degree_stats.hpp"
#include "reorder/relabel.hpp"
#include "reorder/reorder.hpp"
#include "support/parallel.hpp"

namespace thrifty::reorder {
namespace {

using graph::CsrGraph;
using graph::VertexId;

CsrGraph skewed_graph(int scale = 11, int edge_factor = 8) {
  gen::RmatParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  return graph::build_csr(gen::rmat_edges(params)).graph;
}

TEST(Reorder, IdentityIsPermutation) {
  const Permutation perm = identity_order(100);
  EXPECT_TRUE(is_permutation(perm));
  EXPECT_EQ(perm[42], 42u);
}

TEST(Reorder, AllOrdersArePermutations) {
  const CsrGraph g = skewed_graph();
  EXPECT_TRUE(is_permutation(degree_descending_order(g)));
  EXPECT_TRUE(is_permutation(degree_ascending_order(g)));
  EXPECT_TRUE(is_permutation(bfs_order(g)));
  EXPECT_TRUE(is_permutation(random_order(g.num_vertices(), 5)));
}

TEST(Reorder, IsPermutationRejectsBrokenMaps) {
  EXPECT_FALSE(is_permutation({0, 0}));           // duplicate
  EXPECT_FALSE(is_permutation({0, 2}));           // out of range
  EXPECT_TRUE(is_permutation({1, 0}));
  EXPECT_TRUE(is_permutation({}));
}

TEST(Reorder, DegreeDescendingPutsHubFirst) {
  const CsrGraph g = graph::build_csr(gen::star_edges(100, 37)).graph;
  const Permutation perm = degree_descending_order(g);
  EXPECT_EQ(perm[37], 0u);
}

TEST(Reorder, DegreeAscendingPutsHubLast) {
  const CsrGraph g = graph::build_csr(gen::star_edges(100, 37)).graph;
  const Permutation perm = degree_ascending_order(g);
  EXPECT_EQ(perm[37], 99u);
}

TEST(Reorder, BfsOrderRootIsZeroAndContiguous) {
  const CsrGraph g = skewed_graph();
  const Permutation perm = bfs_order(g);
  EXPECT_EQ(perm[g.max_degree_vertex()], 0u);
}

TEST(Reorder, InversePermutationRoundTrips) {
  const Permutation perm = random_order(1000, 9);
  const Permutation inv = inverse_permutation(perm);
  for (VertexId v = 0; v < 1000; ++v) {
    EXPECT_EQ(inv[perm[v]], v);
  }
}

TEST(Reorder, ApplyPermutationPreservesStructure) {
  const CsrGraph g = skewed_graph(10, 6);
  const Permutation perm = random_order(g.num_vertices(), 3);
  const CsrGraph h = apply_permutation(g, perm);
  ASSERT_EQ(h.num_vertices(), g.num_vertices());
  ASSERT_EQ(h.num_directed_edges(), g.num_directed_edges());
  // Edge (u,v) in g  <=>  (perm[u], perm[v]) in h.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto original = g.neighbors(v);
    const auto mapped = h.neighbors(perm[v]);
    ASSERT_EQ(original.size(), mapped.size());
    std::vector<VertexId> expected;
    for (const VertexId u : original) expected.push_back(perm[u]);
    std::sort(expected.begin(), expected.end());
    EXPECT_TRUE(
        std::equal(expected.begin(), expected.end(), mapped.begin()));
  }
}

TEST(Reorder, PermutationPreservesComponentCount) {
  const CsrGraph g = skewed_graph(10, 2);  // sparse: many components
  const CsrGraph h =
      apply_permutation(g, random_order(g.num_vertices(), 11));
  EXPECT_EQ(core::true_component_count(g), core::true_component_count(h));
}

TEST(Reorder, DegreeStatsInvariantUnderRelabeling) {
  const CsrGraph g = skewed_graph();
  const CsrGraph h = apply_permutation(g, degree_descending_order(g));
  const auto a = graph::compute_degree_stats(g);
  const auto b = graph::compute_degree_stats(h);
  EXPECT_EQ(a.max_degree, b.max_degree);
  EXPECT_DOUBLE_EQ(a.mean_degree, b.mean_degree);
}

TEST(Reorder, HubFirstOrderSpeedsUpSynchronousLp) {
  // §III-C in action: identity initial labels on a degree-descending
  // renumbered graph put the smallest label on the hub, so synchronous
  // LP needs no more iterations than on the ascending (hub-last) order.
  const CsrGraph g = skewed_graph(12, 8);
  const CsrGraph hub_first =
      apply_permutation(g, degree_descending_order(g));
  const CsrGraph hub_last =
      apply_permutation(g, degree_ascending_order(g));
  core::CcOptions pull_only;
  pull_only.density_threshold = 0.0;
  const auto fast = core::dolp_cc(hub_first, pull_only);
  const auto slow = core::dolp_cc(hub_last, pull_only);
  EXPECT_LE(fast.stats.num_iterations, slow.stats.num_iterations);
}

TEST(Reorder, EmptyGraphSafe) {
  const CsrGraph g;
  EXPECT_TRUE(bfs_order(g).empty());
  EXPECT_TRUE(identity_order(0).empty());
  for (const OrderKind kind : all_order_kinds()) {
    EXPECT_TRUE(make_order(g, kind).empty()) << to_string(kind);
  }
  const CsrGraph h = apply_permutation(g, {});
  EXPECT_EQ(h.num_vertices(), 0u);
  EXPECT_EQ(h.num_directed_edges(), 0u);
}

TEST(Reorder, OrderKindNamesRoundTrip) {
  for (const OrderKind kind : all_order_kinds()) {
    const auto parsed = parse_order_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_order_kind("degreee").has_value());
  EXPECT_FALSE(parse_order_kind("").has_value());
  EXPECT_EQ(order_kind_names(" | "),
            "none | degree | degree-asc | bfs | random");
}

TEST(Reorder, EveryOrderIsBijectionPerRelabelReport) {
  const CsrGraph g = skewed_graph();
  for (const OrderKind kind : all_order_kinds()) {
    const Permutation perm = make_order(g, kind, 7);
    const RelabelReport report =
        validate_relabel(perm, g.num_vertices());
    EXPECT_TRUE(report.ok())
        << to_string(kind) << ": " << report.to_string();
  }
}

TEST(Reorder, OrdersDeterministicAcrossThreadCounts) {
  const CsrGraph g = skewed_graph(10, 8);
  for (const OrderKind kind : all_order_kinds()) {
    Permutation reference;
    for (const int threads : {1, 2, 3, 4}) {
      const support::ThreadCountGuard guard(threads);
      Permutation perm = make_order(g, kind, 7);
      if (threads == 1) {
        reference = std::move(perm);
      } else {
        EXPECT_EQ(perm, reference)
            << to_string(kind) << " differs at " << threads << " threads";
      }
    }
  }
}

TEST(Reorder, ApplyPermutationDeterministicAcrossThreadCounts) {
  const CsrGraph g = skewed_graph(10, 8);
  const Permutation perm = bfs_order(g);
  const support::ThreadCountGuard serial(1);
  const CsrGraph reference = apply_permutation(g, perm);
  for (const int threads : {2, 3, 4}) {
    const support::ThreadCountGuard guard(threads);
    const CsrGraph h = apply_permutation(g, perm);
    EXPECT_TRUE(std::equal(reference.offsets().begin(),
                           reference.offsets().end(),
                           h.offsets().begin()));
    EXPECT_TRUE(std::equal(reference.neighbor_array().begin(),
                           reference.neighbor_array().end(),
                           h.neighbor_array().begin()))
        << "neighbors differ at " << threads << " threads";
  }
}

TEST(Reorder, DegreeOrdersAreDegreeMonotone) {
  const CsrGraph g = skewed_graph();
  const Permutation desc = degree_descending_order(g);
  const Permutation asc = degree_ascending_order(g);
  const Permutation by_rank_desc = inverse_permutation(desc);
  const Permutation by_rank_asc = inverse_permutation(asc);
  for (VertexId r = 1; r < g.num_vertices(); ++r) {
    EXPECT_GE(g.degree(by_rank_desc[r - 1]), g.degree(by_rank_desc[r]));
    EXPECT_LE(g.degree(by_rank_asc[r - 1]), g.degree(by_rank_asc[r]));
  }
}

TEST(Reorder, DegreeOrderMatchesSerialStableSortOracle) {
  const CsrGraph g = skewed_graph(10, 6);
  const VertexId n = g.num_vertices();
  std::vector<VertexId> ids(n);
  std::iota(ids.begin(), ids.end(), VertexId{0});
  std::stable_sort(ids.begin(), ids.end(), [&](VertexId a, VertexId b) {
    return g.degree(a) > g.degree(b);
  });
  const Permutation perm = degree_descending_order(g);
  for (VertexId rank = 0; rank < n; ++rank) {
    EXPECT_EQ(perm[ids[rank]], rank);
  }
}

TEST(Reorder, ApplyInverseRoundTripsByteIdentical) {
  const CsrGraph g = skewed_graph(10, 6);
  const Permutation perm = random_order(g.num_vertices(), 3);
  const CsrGraph there = apply_permutation(g, perm);
  const CsrGraph back = apply_permutation(there, inverse_permutation(perm));
  ASSERT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_TRUE(std::equal(g.offsets().begin(), g.offsets().end(),
                         back.offsets().begin()));
  EXPECT_TRUE(std::equal(g.neighbor_array().begin(),
                         g.neighbor_array().end(),
                         back.neighbor_array().begin()));
}

TEST(Reorder, ApplyPermutationRejectsNonBijection) {
  const CsrGraph g = skewed_graph(8, 4);
  Permutation broken = identity_order(g.num_vertices());
  broken[1] = broken[0];  // duplicate target, vertex 1's slot lost
  EXPECT_THROW((void)apply_permutation(g, broken), std::invalid_argument);
}

TEST(Reorder, MapLabelsBackMatchesSolvingOriginal) {
  const CsrGraph g = skewed_graph(10, 2);  // sparse: many components
  const std::vector<graph::Label> reference = [&] {
    const auto result = core::dolp_cc(g);
    return core::canonical_labels(result.label_span());
  }();
  for (const OrderKind kind :
       {OrderKind::kDegree, OrderKind::kBfs, OrderKind::kRandom}) {
    const Permutation perm = make_order(g, kind, 23);
    const CsrGraph reordered = apply_permutation(g, perm);
    const auto result = core::thrifty_cc(reordered);
    const std::vector<graph::Label> mapped =
        map_labels_back(result.label_span(), perm);
    EXPECT_TRUE(core::same_partition(mapped, reference))
        << to_string(kind);
    EXPECT_TRUE(core::verify_labels(g, mapped).valid) << to_string(kind);
  }
}

}  // namespace
}  // namespace thrifty::reorder
