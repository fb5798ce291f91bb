// Tests for src/partition: edge-balanced partitioning invariants and the
// scheduler's exactly-once claiming, with and without stealing.
#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "partition/edge_partitioner.hpp"
#include "partition/scheduler.hpp"
#include "support/parallel.hpp"

namespace thrifty::partition {
namespace {

using graph::CsrGraph;
using graph::EdgeOffset;
using graph::VertexId;

CsrGraph skewed_graph() {
  gen::RmatParams params;
  params.scale = 13;
  params.edge_factor = 16;
  return graph::build_csr(gen::rmat_edges(params)).graph;
}

TEST(EdgePartitioner, CoversAllVerticesWithoutOverlap) {
  const CsrGraph g = skewed_graph();
  const auto ranges = edge_balanced_partitions(g, 64);
  ASSERT_EQ(ranges.size(), 64u);
  VertexId expected_begin = 0;
  for (const VertexRange& r : ranges) {
    EXPECT_EQ(r.begin, expected_begin);
    EXPECT_LE(r.begin, r.end);
    expected_begin = r.end;
  }
  EXPECT_EQ(ranges.back().end, g.num_vertices());
}

TEST(EdgePartitioner, EdgeMassIsBalancedOnSkewedGraph) {
  const CsrGraph g = skewed_graph();
  const std::size_t parts = 32;
  const auto ranges = edge_balanced_partitions(g, parts);
  const auto target =
      static_cast<double>(g.num_directed_edges()) / parts;
  EdgeOffset max_degree = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    max_degree = std::max(max_degree, g.degree(v));
  }
  for (const VertexRange& r : ranges) {
    // A partition can exceed the target by at most one vertex's degree
    // (contiguous ranges cannot split a vertex).
    EXPECT_LE(static_cast<double>(edges_in_range(g, r)),
              target + static_cast<double>(max_degree) + 1.0);
  }
}

TEST(EdgePartitioner, TotalEdgeMassPreserved) {
  const CsrGraph g = skewed_graph();
  const auto ranges = edge_balanced_partitions(g, 48);
  EdgeOffset total = 0;
  for (const VertexRange& r : ranges) total += edges_in_range(g, r);
  EXPECT_EQ(total, g.num_directed_edges());
}

TEST(EdgePartitioner, MorePartitionsThanVertices) {
  const CsrGraph g = graph::build_csr(gen::path_edges(5)).graph;
  const auto ranges = edge_balanced_partitions(g, 100);
  EXPECT_EQ(ranges.back().end, g.num_vertices());
  EdgeOffset total = 0;
  for (const VertexRange& r : ranges) total += edges_in_range(g, r);
  EXPECT_EQ(total, g.num_directed_edges());
}

TEST(EdgePartitioner, SinglePartitionIsWholeGraph) {
  const CsrGraph g = skewed_graph();
  const auto ranges = edge_balanced_partitions(g, 1);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (VertexRange{0, g.num_vertices()}));
}

TEST(Scheduler, EveryPartitionClaimedExactlyOnce) {
  const CsrGraph g = skewed_graph();
  PartitionScheduler scheduler(g, 32);
  std::vector<std::atomic<int>> claims(scheduler.partitions().size());
  scheduler.for_each_partition([&](int, const VertexRange& range) {
    // The body receives the scheduler's own range object.
    claims[static_cast<std::size_t>(&range - scheduler.partitions().data())]
        .fetch_add(1);
  });
  for (std::size_t p = 0; p < claims.size(); ++p) {
    EXPECT_EQ(claims[p].load(), 1) << "partition " << p;
  }
}

TEST(Scheduler, OwnerOnlyRunsEachBlockAscendingOnItsOwner) {
  const CsrGraph g = skewed_graph();
  for (const int width : {1, 2, 4}) {
    support::ThreadCountGuard guard(width);
    PartitionScheduler scheduler(g, 8);
    const auto k = static_cast<std::size_t>(scheduler.partitions_per_thread());
    std::vector<std::atomic<int>> claims(scheduler.partitions().size());
    std::vector<std::vector<std::size_t>> runs(
        static_cast<std::size_t>(width));
    scheduler.for_each_partition(
        [&](int t, const VertexRange& range) {
          const auto p = static_cast<std::size_t>(
              &range - scheduler.partitions().data());
          claims[p].fetch_add(1);
          runs[static_cast<std::size_t>(t)].push_back(p);  // own slot only
        },
        /*steal=*/false);
    for (std::size_t p = 0; p < claims.size(); ++p) {
      EXPECT_EQ(claims[p].load(), 1) << "partition " << p << " width "
                                     << width;
    }
    for (std::size_t t = 0; t < runs.size(); ++t) {
      std::vector<std::size_t> expected(k);
      std::iota(expected.begin(), expected.end(), k * t);
      EXPECT_EQ(runs[t], expected) << "thread " << t << " width " << width;
    }
  }
}

TEST(Scheduler, OwnerOnlyCoversBlocksOfThreadsTheTeamLacks) {
  // Called from inside a parallel region with nesting off, the scheduler's
  // region gets one thread; that thread must run all four blocks.
  const CsrGraph g = skewed_graph();
  support::ThreadCountGuard guard(4);
  PartitionScheduler scheduler(g, 8);
  std::atomic<std::size_t> count{0};
  const int saved_levels = omp_get_max_active_levels();
  omp_set_max_active_levels(1);
#pragma omp parallel num_threads(2)
  {
#pragma omp single
    scheduler.for_each_partition(
        [&](int, const VertexRange&) { count.fetch_add(1); },
        /*steal=*/false);
  }
  omp_set_max_active_levels(saved_levels);
  EXPECT_EQ(count.load(), scheduler.partitions().size());
}

TEST(Scheduler, TeamIsSizedByVerticesPlusEdges) {
  // skewed_graph() has n + m far above support::kSerialCutoff, so its
  // sweeps run on a real team; a 1000-cycle (n + m = 3000) runs every
  // partition on the calling thread.
  const CsrGraph big = skewed_graph();
  const CsrGraph small = graph::build_csr(gen::cycle_edges(1000)).graph;
  ASSERT_GE(big.num_vertices() + big.num_directed_edges(),
            support::kSerialCutoff);
  ASSERT_LT(small.num_vertices() + small.num_directed_edges(),
            support::kSerialCutoff);
  support::ThreadCountGuard guard(4);
  const auto thread_ids = [](const CsrGraph& g) {
    PartitionScheduler scheduler(g, 8);
    std::vector<std::atomic<int>> seen(4);
    scheduler.for_each_partition(
        [&](int t, const VertexRange&) {
          seen[static_cast<std::size_t>(t)].store(1);
        },
        /*steal=*/false);
    std::vector<int> ids;
    for (std::size_t t = 0; t < seen.size(); ++t) {
      if (seen[t].load() != 0) ids.push_back(static_cast<int>(t));
    }
    return ids;
  };
  EXPECT_GT(thread_ids(big).size(), 1u);
  EXPECT_EQ(thread_ids(small), std::vector<int>{0});
}

TEST(Scheduler, EveryVertexVisitedExactlyOnce) {
  const CsrGraph g = skewed_graph();
  PartitionScheduler scheduler(g, 32);
  std::vector<std::atomic<int>> visits(g.num_vertices());
  scheduler.for_each_partition([&](int, const VertexRange& range) {
    for (VertexId v = range.begin; v < range.end; ++v) {
      visits[v].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(visits[v].load(), 1) << "vertex " << v;
  }
}

TEST(Scheduler, ReusableAcrossCalls) {
  const CsrGraph g = skewed_graph();
  PartitionScheduler scheduler(g, 8);
  for (int round = 0; round < 3; ++round) {
    std::atomic<std::size_t> count{0};
    scheduler.for_each_partition(
        [&](int, const VertexRange&) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), scheduler.partitions().size());
  }
}

TEST(Scheduler, PartitionCountMatchesPaperPolicy) {
  const CsrGraph g = skewed_graph();
  PartitionScheduler scheduler(g, 32);
  EXPECT_EQ(scheduler.partitions().size(),
            static_cast<std::size_t>(32 * scheduler.num_threads()));
}

TEST(Scheduler, WorksAtSeveralThreadWidths) {
  // n + m = 3 * 8192, above support::kSerialCutoff: real teams at 2 and 4.
  const CsrGraph g = graph::build_csr(gen::cycle_edges(8192)).graph;
  for (const int width : {1, 2, 4}) {
    support::ThreadCountGuard guard(width);
    PartitionScheduler scheduler(g, 4);
    std::atomic<std::uint64_t> visited{0};
    scheduler.for_each_partition([&](int, const VertexRange& range) {
      visited.fetch_add(range.size());
    });
    EXPECT_EQ(visited.load(), g.num_vertices()) << "width " << width;
  }
}

}  // namespace
}  // namespace thrifty::partition
