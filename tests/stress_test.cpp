// Stress and differential-property tests: randomized builder fuzzing
// against a naive oracle, concurrency hammering of the frontier
// structures, atomic-min contention, and thread-count invariance of the
// algorithms' results.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <vector>

#include "cc_baselines/registry.hpp"
#include "core/cc_common.hpp"
#include "core/thrifty.hpp"
#include "core/verify.hpp"
#include "frontier/bitmap.hpp"
#include "frontier/local_worklists.hpp"
#include "frontier/sliding_queue.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"

namespace thrifty {
namespace {

using graph::CsrGraph;
using graph::Edge;
using graph::EdgeList;
using graph::VertexId;

/// Naive reference construction: adjacency sets with explicit
/// symmetrisation, dedup, self-loop and isolated-vertex removal.
std::map<VertexId, std::set<VertexId>> naive_adjacency(
    const EdgeList& edges) {
  std::map<VertexId, std::set<VertexId>> adjacency;
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    adjacency[e.u].insert(e.v);
    adjacency[e.v].insert(e.u);
  }
  return adjacency;
}

class BuilderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BuilderFuzz, MatchesNaiveOracleOnRandomEdgeLists) {
  support::Xoshiro256StarStar rng(GetParam());
  const VertexId n = 20 + static_cast<VertexId>(rng.next_below(200));
  // At least support::kSerialCutoff edges, so the build runs on a team.
  const std::size_t m = support::kSerialCutoff + rng.next_below(800);
  EdgeList edges;
  edges.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    edges.push_back(Edge{static_cast<VertexId>(rng.next_below(n)),
                         static_cast<VertexId>(rng.next_below(n))});
  }
  const auto oracle = naive_adjacency(edges);
  const auto built = graph::build_csr(edges, n);

  // Vertex count: exactly the vertices with non-empty adjacency.
  ASSERT_EQ(built.graph.num_vertices(), oracle.size());
  // Per-vertex adjacency identical under the id compaction.
  for (const auto& [old_id, neighbors] : oracle) {
    const VertexId new_id = built.old_to_new[old_id];
    ASSERT_NE(new_id, graph::BuildResult::kDroppedVertex);
    const auto actual = built.graph.neighbors(new_id);
    ASSERT_EQ(actual.size(), neighbors.size()) << "vertex " << old_id;
    std::size_t k = 0;
    for (const VertexId expected_old : neighbors) {
      EXPECT_EQ(actual[k++], built.old_to_new[expected_old]);
    }
  }
  // Dropped vertices are exactly those absent from the oracle.
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_EQ(built.old_to_new[v] == graph::BuildResult::kDroppedVertex,
              oracle.find(v) == oracle.end());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12, 13, 14, 15, 16));

TEST(Stress, BitmapHammer) {
  const std::uint64_t n = 1 << 16;
  frontier::Bitmap bitmap(n);
  std::atomic<std::uint64_t> wins{0};
  support::ThreadCountGuard guard(4);
#pragma omp parallel
  {
    support::Xoshiro256StarStar rng(
        static_cast<std::uint64_t>(support::thread_id()) + 1);
    for (int i = 0; i < 200000; ++i) {
      if (bitmap.set_atomic(rng.next_below(n))) {
        wins.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  // Every bit flips 0->1 exactly once across all threads.
  EXPECT_EQ(wins.load(), bitmap.count());
}

TEST(Stress, SlidingQueueManyRounds) {
  const VertexId n = 1 << 14;
  frontier::SlidingQueue queue(n);
  support::ThreadCountGuard guard(4);
  for (int round = 0; round < 20; ++round) {
    queue.reset();
#pragma omp parallel
    {
      frontier::SlidingQueue::LocalBuffer buffer(queue);
#pragma omp for schedule(dynamic, 64) nowait
      for (VertexId v = 0; v < n; ++v) buffer.push_back(v);
    }
    queue.slide_window();
    ASSERT_EQ(queue.size(), n) << "round " << round;
    std::uint64_t sum = 0;
    for (const VertexId v : queue.window()) sum += v;
    ASSERT_EQ(sum, static_cast<std::uint64_t>(n) * (n - 1) / 2);
  }
}

TEST(Stress, LocalWorklistsConcurrentDuplicatePressure) {
  // All threads push the same narrow key range; the racy byte marks may
  // admit a few duplicates (the paper's benign race) but must never lose
  // a vertex and never blow up.
  const VertexId n = 4096;
  support::ThreadCountGuard guard(4);
  const int threads = support::num_threads();
  frontier::LocalWorklists lists(n, threads);
#pragma omp parallel num_threads(threads)
  {
    const int t = support::thread_id();
    for (int round = 0; round < 50; ++round) {
      for (VertexId v = 0; v < n; ++v) lists.push(t, v);
    }
  }
  std::vector<int> seen(n, 0);
  lists.process_with_stealing([&](int, VertexId v) {
    __atomic_fetch_add(&seen[v], 1, __ATOMIC_RELAXED);
  });
  std::uint64_t total = 0;
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_GE(seen[v], 1) << "lost vertex " << v;
    total += static_cast<std::uint64_t>(seen[v]);
  }
  // Duplicates are allowed but bounded by one per (thread, round) worst
  // case; in practice nearly none.
  EXPECT_EQ(total, lists.total_size());
}

TEST(Stress, AtomicMinTournament) {
  support::ThreadCountGuard guard(4);
  for (int round = 0; round < 100; ++round) {
    graph::Label slot = static_cast<graph::Label>(-1);
#pragma omp parallel for schedule(static)
    for (int i = 0; i < 10000; ++i) {
      core::atomic_min(slot,
                       static_cast<graph::Label>((i * 7919 + round) %
                                                 10000));
    }
    // The true minimum of the sequence {(i*7919+round) mod 10000}.
    graph::Label expected = static_cast<graph::Label>(-1);
    for (int i = 0; i < 10000; ++i) {
      expected = std::min(
          expected,
          static_cast<graph::Label>((i * 7919 + round) % 10000));
    }
    ASSERT_EQ(slot, expected) << "round " << round;
  }
}

TEST(Stress, AlgorithmsAreThreadCountInvariant) {
  gen::RmatParams params;
  params.scale = 12;
  params.edge_factor = 8;
  const CsrGraph g = graph::build_csr(gen::rmat_edges(params)).graph;
  for (const char* name : {"thrifty", "dolp", "dolp_unified", "afforest",
                           "jt", "sv", "bfs_cc"}) {
    const auto* entry = baselines::find_algorithm(name);
    std::vector<graph::Label> reference;
    for (const int width : {1, 2, 4}) {
      support::ThreadCountGuard guard(width);
      const auto result = baselines::run_algorithm(*entry, g);
      const auto canonical =
          core::canonical_labels(result.label_span());
      if (reference.empty()) {
        reference = canonical;
      } else {
        ASSERT_EQ(reference, canonical)
            << name << " at width " << width;
      }
    }
  }
}

TEST(Stress, RepeatedThriftyRunsIdenticalLabels) {
  gen::RmatParams params;
  params.scale = 12;
  params.edge_factor = 8;
  const CsrGraph g = graph::build_csr(gen::rmat_edges(params)).graph;
  const auto first = core::thrifty_cc(g);
  for (int i = 0; i < 5; ++i) {
    const auto again = core::thrifty_cc(g);
    ASSERT_TRUE(std::equal(first.labels.begin(), first.labels.end(),
                           again.labels.begin()));
  }
}

}  // namespace
}  // namespace thrifty
