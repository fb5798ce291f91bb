// Tests for the shared CC API: label utilities, atomic_min, union-find,
// and the verifier (including failure injection).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cc_common.hpp"
#include "core/union_find.hpp"
#include "core/verify.hpp"
#include "gen/combine.hpp"
#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "support/parallel.hpp"

namespace thrifty::core {
namespace {

using graph::Label;
using graph::VertexId;

TEST(AtomicMin, InstallsSmallerValues) {
  Label slot = 10;
  EXPECT_TRUE(atomic_min(slot, 5));
  EXPECT_EQ(slot, 5u);
  EXPECT_FALSE(atomic_min(slot, 7));
  EXPECT_EQ(slot, 5u);
  EXPECT_FALSE(atomic_min(slot, 5));
  EXPECT_TRUE(atomic_min(slot, 0));
  EXPECT_EQ(slot, 0u);
}

TEST(AtomicMin, ConcurrentMinimumWins) {
  Label slot = 1 << 20;
  const int n = 100000;
#pragma omp parallel for schedule(static)
  for (int i = 0; i < n; ++i) {
    atomic_min(slot, static_cast<Label>(n - i));
  }
  EXPECT_EQ(slot, 1u);
}

TEST(LabelStores, RelaxedLoadStoreRoundTrip) {
  Label slot = 3;
  store_label(slot, 9);
  EXPECT_EQ(load_label(slot), 9u);
}

TEST(CountComponents, DistinctLabelValues) {
  const std::vector<Label> labels{3, 3, 7, 3, 9};
  EXPECT_EQ(count_components(labels), 3u);
  EXPECT_EQ(count_components(std::vector<Label>{}), 0u);
}

TEST(CanonicalLabels, MapsToSmallestMemberId) {
  const std::vector<Label> labels{42, 42, 7, 7, 42};
  const auto canonical = canonical_labels(labels);
  EXPECT_EQ(canonical, (std::vector<Label>{0, 0, 2, 2, 0}));
}

TEST(SamePartition, InvariantToRelabelling) {
  const std::vector<Label> a{5, 5, 1, 1};
  const std::vector<Label> b{0, 0, 9, 9};
  const std::vector<Label> c{0, 1, 9, 9};
  EXPECT_TRUE(same_partition(a, b));
  EXPECT_FALSE(same_partition(a, c));
  EXPECT_FALSE(same_partition(a, std::vector<Label>{5, 5, 1}));
}

TEST(LargestComponentHelper, FindsBiggestClass) {
  const std::vector<Label> labels{1, 1, 1, 2, 2, 3};
  const LargestComponent giant = largest_component(labels);
  EXPECT_EQ(giant.label, 1u);
  EXPECT_EQ(giant.size, 3u);
}

// ---------------------------------------------------------------------------
// The dense label helpers against map-based oracles: the semantics the
// helpers had before they moved onto the dense representative pass.

namespace oracle {

std::vector<Label> canonical(std::span<const Label> labels) {
  std::unordered_map<Label, Label> first;
  for (std::size_t v = 0; v < labels.size(); ++v) {
    first.try_emplace(labels[v], static_cast<Label>(v));
  }
  std::vector<Label> out(labels.size());
  for (std::size_t v = 0; v < labels.size(); ++v) out[v] = first[labels[v]];
  return out;
}

std::vector<Label> compact(std::span<const Label> labels) {
  std::unordered_map<Label, Label> dense;
  std::vector<Label> out(labels.size());
  for (std::size_t v = 0; v < labels.size(); ++v) {
    out[v] = dense.try_emplace(labels[v], static_cast<Label>(dense.size()))
                 .first->second;
  }
  return out;
}

std::map<Label, std::uint64_t> counts(std::span<const Label> labels) {
  std::map<Label, std::uint64_t> sizes;
  for (const Label l : labels) ++sizes[l];
  return sizes;
}

std::vector<std::uint64_t> sizes(std::span<const Label> labels) {
  std::vector<std::uint64_t> out;
  for (const auto& [label, size] : counts(labels)) out.push_back(size);
  std::sort(out.begin(), out.end(), std::greater<>());
  return out;
}

std::vector<LargestComponent> census(std::span<const Label> labels) {
  std::vector<LargestComponent> out;
  for (const auto& [label, size] : counts(labels)) out.push_back({label, size});
  std::stable_sort(out.begin(), out.end(),
                   [](const LargestComponent& a, const LargestComponent& b) {
                     return a.size > b.size;  // map order: label ascending
                   });
  return out;
}

}  // namespace oracle

/// Random labellings of every shape the helpers must handle.
std::vector<std::vector<Label>> label_cases() {
  std::vector<std::vector<Label>> cases;
  cases.push_back({});
  cases.push_back({7});
  std::mt19937 rng(11);
  for (const std::size_t n : {std::size_t{1000}, std::size_t{60000}}) {
    const auto random = [&](Label range, Label base) {
      std::vector<Label> labels(n);
      for (Label& l : labels) {
        l = base + static_cast<Label>(rng() % range);
      }
      return labels;
    };
    cases.push_back(std::vector<Label>(n, 0));          // one component
    cases.push_back(std::vector<Label>(n, n));          // one, label n
    cases.push_back(random(static_cast<Label>(n) + 1, 0));  // labels <= n
    cases.push_back(random(5, 0));                      // few, with ties
    cases.push_back(random(3, 0xFFFFFFF0u));            // labels above n
    std::vector<Label> mixed = random(static_cast<Label>(n / 10), 0);
    mixed[n / 2] = static_cast<Label>(n) + 1;           // one above n
    cases.push_back(mixed);
    std::vector<Label> identity(n);                     // all singletons
    for (std::size_t v = 0; v < n; ++v) identity[v] = static_cast<Label>(v);
    cases.push_back(identity);
  }
  return cases;
}

bool same_census(const std::vector<LargestComponent>& a,
                 const std::vector<LargestComponent>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const LargestComponent& x, const LargestComponent& y) {
                      return x.label == y.label && x.size == y.size;
                    });
}

TEST(DenseLabelHelpers, MatchMapOraclesAtEveryThreadCount) {
  const auto cases = label_cases();
  for (const int threads : {1, 2, 4}) {
    const support::ThreadCountGuard guard(threads);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const std::vector<Label>& labels = cases[i];
      SCOPED_TRACE("case " + std::to_string(i) + ", n=" +
                   std::to_string(labels.size()) + ", t=" +
                   std::to_string(threads));
      EXPECT_EQ(canonical_labels(labels), oracle::canonical(labels));
      EXPECT_EQ(compact_labels(labels), oracle::compact(labels));
      EXPECT_EQ(component_sizes(labels), oracle::sizes(labels));
      const auto census = oracle::census(labels);
      EXPECT_TRUE(same_census(component_census(labels), census));
      EXPECT_EQ(count_components(labels), census.size());
      const LargestComponent giant = largest_component(labels);
      const LargestComponent expected =
          census.empty() ? LargestComponent{} : census.front();
      EXPECT_EQ(giant.label, expected.label);
      EXPECT_EQ(giant.size, expected.size);
    }
  }
}

TEST(DenseLabelHelpers, CensusTiesKeepSizeThenLabelOrder) {
  const std::vector<Label> labels{9, 4, 9, 4, 2, 6, 6, 1};
  const auto census = component_census(labels);
  const std::vector<std::pair<Label, std::uint64_t>> expected{
      {4, 2}, {6, 2}, {9, 2}, {1, 1}, {2, 1}};
  ASSERT_EQ(census.size(), expected.size());
  for (std::size_t i = 0; i < census.size(); ++i) {
    EXPECT_EQ(census[i].label, expected[i].first) << i;
    EXPECT_EQ(census[i].size, expected[i].second) << i;
  }
}

TEST(UnionFindOracle, BasicUnions) {
  UnionFind dsu(6);
  EXPECT_EQ(dsu.num_sets(), 6u);
  EXPECT_TRUE(dsu.unite(0, 1));
  EXPECT_FALSE(dsu.unite(1, 0));
  EXPECT_TRUE(dsu.unite(2, 3));
  EXPECT_TRUE(dsu.unite(0, 3));
  EXPECT_TRUE(dsu.connected(1, 2));
  EXPECT_FALSE(dsu.connected(0, 4));
  EXPECT_EQ(dsu.num_sets(), 3u);
  EXPECT_EQ(dsu.set_size(1), 4u);
  EXPECT_EQ(dsu.set_size(5), 1u);
}

TEST(UnionFindOracle, LongChainCompresses) {
  const VertexId n = 10000;
  UnionFind dsu(n);
  for (VertexId v = 1; v < n; ++v) dsu.unite(v - 1, v);
  EXPECT_EQ(dsu.num_sets(), 1u);
  EXPECT_EQ(dsu.set_size(0), n);
}

TEST(Verifier, AcceptsCorrectLabels) {
  // Two components: a triangle and an edge.
  const graph::EdgeList edges{{0, 1}, {1, 2}, {2, 0}, {3, 4}};
  const auto g = graph::build_csr(edges, 5).graph;
  const std::vector<Label> labels{0, 0, 0, 3, 3};
  const VerifyResult result = verify_labels(g, labels);
  EXPECT_TRUE(result.valid) << result.message;
  EXPECT_EQ(result.components, 2u);
}

TEST(Verifier, RejectsEdgeInconsistency) {
  const graph::EdgeList edges{{0, 1}};
  const auto g = graph::build_csr(edges, 2).graph;
  EXPECT_FALSE(verify_labels(g, std::vector<Label>{0, 1}).valid);
  EXPECT_FALSE(edge_consistent(g, std::vector<Label>{0, 1}));
}

TEST(Verifier, RejectsMergedComponents) {
  // Labels constant per component but two components share a label:
  // edge-consistent yet not a valid CC labelling.
  const graph::EdgeList edges{{0, 1}, {2, 3}};
  const auto g = graph::build_csr(edges, 4).graph;
  const std::vector<Label> merged{7, 7, 7, 7};
  EXPECT_TRUE(edge_consistent(g, merged));
  EXPECT_FALSE(verify_labels(g, merged).valid);
}

TEST(Verifier, RejectsWrongSize) {
  const auto g = graph::build_csr(graph::EdgeList{{0, 1}}, 2).graph;
  EXPECT_FALSE(verify_labels(g, std::vector<Label>{0}).valid);
}

TEST(Verifier, AcceptsEmptyGraph) {
  const graph::CsrGraph g;
  EXPECT_TRUE(verify_labels(g, {}).valid);
}

TEST(Verifier, DetectsSingleMutatedLabel) {
  const auto g = graph::build_csr(gen::clique_edges(50)).graph;
  std::vector<Label> labels(50, 0);
  EXPECT_TRUE(verify_labels(g, labels).valid);
  labels[17] = 1;  // inject corruption
  EXPECT_FALSE(verify_labels(g, labels).valid);
}

TEST(TrueComponentCount, MatchesConstruction) {
  graph::EdgeList edges = gen::clique_edges(10);
  const VertexId total =
      gen::append_satellite_components(edges, 10, 5, 3, 1);
  const auto g =
      graph::build_csr(edges, total,
                       {.remove_zero_degree_vertices = false})
          .graph;
  EXPECT_EQ(true_component_count(g), 6u);
}

}  // namespace
}  // namespace thrifty::core
