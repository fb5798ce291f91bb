// Differential test of the counting-sort CSR builder against a naive
// sequential oracle.  The builder's output contract is strict: for any
// edge list, any OpenMP thread count, and any generator seed, the
// offsets and neighbour arrays must be *byte-identical* to the oracle's
// (the per-thread scatter changes only the order in which pass 2 writes,
// and pass 3's adjacency sort erases that difference).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"
#include "graph/types.hpp"
#include "support/parallel.hpp"

namespace thrifty::graph {
namespace {

struct NaiveCsr {
  std::vector<EdgeOffset> offsets;
  std::vector<VertexId> neighbors;
};

/// Sequential reference pipeline with the default BuildOptions semantics:
/// drop self loops, symmetrise, sort adjacency, dedup, drop zero-degree
/// vertices and compact ids.  Deliberately written with none of the
/// builder's machinery (per-vertex std::vector adjacency, std::sort).
NaiveCsr naive_build(const EdgeList& edges, VertexId num_vertices) {
  std::vector<std::vector<VertexId>> adj(num_vertices);
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    adj[e.u].push_back(e.v);
    adj[e.v].push_back(e.u);
  }
  for (auto& list : adj) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  std::vector<VertexId> old_to_new(num_vertices);
  VertexId next_id = 0;
  for (VertexId v = 0; v < num_vertices; ++v) {
    if (!adj[v].empty()) old_to_new[v] = next_id++;
  }
  NaiveCsr out;
  out.offsets.push_back(0);
  for (VertexId v = 0; v < num_vertices; ++v) {
    if (adj[v].empty()) continue;
    for (const VertexId u : adj[v]) {
      out.neighbors.push_back(old_to_new[u]);
    }
    out.offsets.push_back(static_cast<EdgeOffset>(out.neighbors.size()));
  }
  if (next_id == 0) out.offsets.clear();  // empty graph: no offsets array
  return out;
}

void expect_byte_identical(const CsrGraph& g, const NaiveCsr& expected,
                           const char* context) {
  const auto offsets = g.offsets();
  const auto neighbors = g.neighbor_array();
  ASSERT_EQ(offsets.size(), expected.offsets.size()) << context;
  ASSERT_EQ(neighbors.size(), expected.neighbors.size()) << context;
  if (!offsets.empty()) {
    EXPECT_EQ(std::memcmp(offsets.data(), expected.offsets.data(),
                          offsets.size() * sizeof(EdgeOffset)),
              0)
        << context << ": offsets differ";
  }
  if (!neighbors.empty()) {
    EXPECT_EQ(std::memcmp(neighbors.data(), expected.neighbors.data(),
                          neighbors.size() * sizeof(VertexId)),
              0)
        << context << ": neighbour array differs";
  }
}

TEST(BuilderDifferential, ByteIdenticalOnRmatAcrossThreadsAndSeeds) {
  // 2^9 * 32 edges: at the serial cutoff, so 2 and 4 threads build on
  // real teams.
  gen::RmatParams params;
  params.scale = 9;
  params.edge_factor = 32;
  const auto n = static_cast<VertexId>(VertexId{1} << params.scale);
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    params.seed = seed;
    const EdgeList edges = gen::rmat_edges(params);
    const NaiveCsr expected = naive_build(edges, n);
    for (const int threads : {1, 2, 4}) {
      support::ThreadCountGuard guard(threads);
      const CsrGraph g = build_csr(edges, n).graph;
      const std::string context = "seed=" + std::to_string(seed) +
                                  " threads=" + std::to_string(threads);
      expect_byte_identical(g, expected, context.c_str());
    }
  }
}

TEST(BuilderDifferential, ByteIdenticalOnElementaryShapes) {
  const std::vector<std::pair<const char*, EdgeList>> shapes{
      {"path", gen::path_edges(257)},
      {"cycle", gen::cycle_edges(100)},
      {"star", gen::star_edges(1000, 17)},
      {"clique", gen::clique_edges(40)},
      {"tree", gen::random_tree_edges(512, 7)},
  };
  for (const auto& [name, edges] : shapes) {
    VertexId n = 0;
    for (const Edge& e : edges) n = std::max({n, e.u + 1, e.v + 1});
    const NaiveCsr expected = naive_build(edges, n);
    for (const int threads : {1, 2, 4}) {
      support::ThreadCountGuard guard(threads);
      expect_byte_identical(build_csr(edges, n).graph, expected, name);
    }
  }
}

TEST(BuilderDifferential, SelfLoopsAndDuplicatesHeavyInput) {
  // Stress the counting passes with an input that is mostly noise: every
  // edge duplicated, interleaved self loops, and an isolated vertex gap.
  EdgeList edges;
  for (VertexId v = 0; v < 200; ++v) {
    edges.push_back({v, v});               // self loop, dropped
    edges.push_back({v, (v + 7) % 200});   // kept
    edges.push_back({(v + 7) % 200, v});   // duplicate after symmetrise
    edges.push_back({v, (v + 7) % 200});   // duplicate
  }
  const VertexId n = 300;  // ids [200, 300) isolated -> compacted away
  const NaiveCsr expected = naive_build(edges, n);
  for (const int threads : {1, 2, 4}) {
    support::ThreadCountGuard guard(threads);
    expect_byte_identical(build_csr(edges, n).graph, expected,
                          "noise-heavy");
  }
}

TEST(BuilderDifferential, EmptyAndSingleEdge) {
  for (const int threads : {1, 2, 4}) {
    support::ThreadCountGuard guard(threads);
    EXPECT_EQ(build_csr(EdgeList{}).graph.num_vertices(), 0u);
    const CsrGraph g = build_csr(EdgeList{{0, 1}}, 2).graph;
    const NaiveCsr expected = naive_build(EdgeList{{0, 1}}, 2);
    expect_byte_identical(g, expected, "single-edge");
  }
}

}  // namespace
}  // namespace thrifty::graph
