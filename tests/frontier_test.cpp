// Tests for src/frontier: bitmap atomics, sliding queue windows, the
// paper's local worklists (dedup marks, clear, stealing consumption) and
// density-based direction selection.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <utility>
#include <vector>

#include "frontier/bitmap.hpp"
#include "frontier/density.hpp"
#include "frontier/local_worklists.hpp"
#include "frontier/sliding_queue.hpp"
#include "support/parallel.hpp"

namespace thrifty::frontier {
namespace {

using graph::VertexId;

TEST(Bitmap, SetAndGet) {
  Bitmap bitmap(200);
  EXPECT_FALSE(bitmap.get(7));
  bitmap.set(7);
  EXPECT_TRUE(bitmap.get(7));
  EXPECT_FALSE(bitmap.get(8));
  EXPECT_EQ(bitmap.count(), 1u);
}

TEST(Bitmap, SetAtomicReportsFirstSetter) {
  Bitmap bitmap(64);
  EXPECT_TRUE(bitmap.set_atomic(5));
  EXPECT_FALSE(bitmap.set_atomic(5));
  EXPECT_TRUE(bitmap.get(5));
}

TEST(Bitmap, ClearResetsEverything) {
  Bitmap bitmap(1000);
  for (std::uint64_t b = 0; b < 1000; b += 7) bitmap.set(b);
  bitmap.clear();
  EXPECT_EQ(bitmap.count(), 0u);
}

TEST(Bitmap, CountAcrossWordBoundaries) {
  Bitmap bitmap(130);
  bitmap.set(0);
  bitmap.set(63);
  bitmap.set(64);
  bitmap.set(129);
  EXPECT_EQ(bitmap.count(), 4u);
}

TEST(Bitmap, ConcurrentSetAtomicInsertsEachBitOnce) {
  const std::uint64_t n = 1 << 14;
  Bitmap bitmap(n);
  std::atomic<std::uint64_t> first_setters{0};
#pragma omp parallel for schedule(static)
  for (std::uint64_t i = 0; i < 4 * n; ++i) {
    if (bitmap.set_atomic(i % n)) {
      first_setters.fetch_add(1, std::memory_order_relaxed);
    }
  }
  EXPECT_EQ(first_setters.load(), n);
  EXPECT_EQ(bitmap.count(), n);
}

TEST(Bitmap, CountAndClearOnBothSidesOfSerialCutoff) {
  // clear() and count() run on the calling thread below
  // support::kSerialCutoff words and on a team from there on.  Bit
  // positions straddle word boundaries and the partial final word, and
  // the sizes are not a multiple of any team size.
  for (const std::uint64_t num_bits :
       {std::uint64_t{64 * 37 + 13},
        std::uint64_t{support::kSerialCutoff * 64 + 197}}) {
    const std::vector<std::uint64_t> bits = {
        0, 1, 63, 64, 127, 128, 1023, num_bits / 2, num_bits - 65,
        num_bits - 1};
    for (const int threads : {1, 3, 4}) {
      const support::ThreadCountGuard guard(threads);
      Bitmap bitmap(num_bits);
      EXPECT_EQ(bitmap.count(), 0u);
      for (const std::uint64_t bit : bits) bitmap.set(bit);
      EXPECT_EQ(bitmap.count(), bits.size())
          << "bits=" << num_bits << " t=" << threads;
      bitmap.clear();
      EXPECT_EQ(bitmap.count(), 0u);
      for (const std::uint64_t bit : bits) EXPECT_FALSE(bitmap.get(bit));
    }
  }
}

TEST(Bitmap, SwapExchangesContents) {
  Bitmap a(64);
  Bitmap b(64);
  a.set(1);
  b.set(2);
  a.swap(b);
  EXPECT_TRUE(a.get(2));
  EXPECT_TRUE(b.get(1));
  EXPECT_FALSE(a.get(1));
}

TEST(SlidingQueue, WindowSlidesOverAppends) {
  SlidingQueue queue(100);
  queue.push_back(1);
  queue.push_back(2);
  EXPECT_TRUE(queue.empty());  // nothing in the window yet
  queue.slide_window();
  EXPECT_EQ(queue.size(), 2u);
  queue.push_back(3);
  queue.slide_window();
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.window()[0], 3u);
  queue.slide_window();
  EXPECT_TRUE(queue.empty());
}

TEST(SlidingQueue, ResetEmptiesEverything) {
  SlidingQueue queue(10);
  queue.push_back(1);
  queue.slide_window();
  queue.reset();
  EXPECT_TRUE(queue.empty());
  queue.push_back(9);
  queue.slide_window();
  EXPECT_EQ(queue.window()[0], 9u);
}

TEST(SlidingQueue, LocalBufferFlushesOnDestruction) {
  SlidingQueue queue(5000);
  {
    SlidingQueue::LocalBuffer buffer(queue);
    for (VertexId v = 0; v < 10; ++v) buffer.push_back(v);
  }
  queue.slide_window();
  EXPECT_EQ(queue.size(), 10u);
}

TEST(SlidingQueue, ConcurrentBufferedProducersLoseNothing) {
  const VertexId n = 1 << 15;
  SlidingQueue queue(n);
#pragma omp parallel
  {
    SlidingQueue::LocalBuffer buffer(queue);
#pragma omp for schedule(static) nowait
    for (VertexId v = 0; v < n; ++v) buffer.push_back(v);
  }
  queue.slide_window();
  ASSERT_EQ(queue.size(), n);
  std::vector<bool> seen(n, false);
  for (const VertexId v : queue.window()) {
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(LocalWorklists, PushDeduplicates) {
  LocalWorklists lists(100, 4);
  EXPECT_TRUE(lists.push(0, 42));
  EXPECT_FALSE(lists.push(1, 42));  // suppressed by the mark
  EXPECT_TRUE(lists.push(1, 43));
  EXPECT_EQ(lists.total_size(), 2u);
  EXPECT_TRUE(lists.marked(42));
  EXPECT_FALSE(lists.marked(41));
}

TEST(LocalWorklists, ClearUnmarksOnlyContainedVertices) {
  LocalWorklists lists(100, 2);
  lists.push(0, 1);
  lists.push(1, 2);
  lists.clear();
  EXPECT_EQ(lists.total_size(), 0u);
  EXPECT_FALSE(lists.marked(1));
  EXPECT_FALSE(lists.marked(2));
  EXPECT_TRUE(lists.push(0, 1));  // reusable after clear
}

TEST(LocalWorklists, SwapExchangesContents) {
  LocalWorklists a(10, 1);
  LocalWorklists b(10, 1);
  a.push(0, 3);
  a.swap(b);
  EXPECT_EQ(a.total_size(), 0u);
  EXPECT_EQ(b.total_size(), 1u);
  EXPECT_TRUE(b.marked(3));
}

TEST(LocalWorklists, ProcessWithStealingVisitsEveryVertexOnce) {
  const int threads = support::num_threads();
  // A frontier mass at the serial cutoff, so a team drains it.
  const auto n = static_cast<VertexId>(support::kSerialCutoff);
  LocalWorklists lists(n, threads);
  // Load everything into thread 0's list: stealing must still spread and
  // complete the work.
  for (VertexId v = 0; v < n; ++v) lists.push(0, v);
  std::vector<std::atomic<int>> visits(n);
  lists.process_with_stealing(
      [&](int, VertexId v) { visits[v].fetch_add(1); });
  for (VertexId v = 0; v < n; ++v) EXPECT_EQ(visits[v].load(), 1);
}

TEST(LocalWorklists, ProcessPreservesListsForReinspection) {
  LocalWorklists lists(10, 1);
  lists.push(0, 4);
  int count = 0;
  lists.process_with_stealing([&](int, VertexId) { ++count; });
  lists.process_with_stealing([&](int, VertexId) { ++count; });
  EXPECT_EQ(count, 2);  // consumption does not drain the lists
}

TEST(LocalWorklists, ConcurrentPushesLandInOwnLists) {
  const int threads = support::num_threads();
  const VertexId n = 1 << 14;
  LocalWorklists lists(n, threads);
#pragma omp parallel
  {
    const int t = support::thread_id();
#pragma omp for schedule(static) nowait
    for (VertexId v = 0; v < n; ++v) lists.push(t, v);
  }
  // Every vertex inserted exactly once (vertices are partitioned across
  // threads, so no benign duplicates are possible here).
  EXPECT_EQ(lists.total_size(), n);
}

TEST(SlidingQueue, SwapExchangesWindowAndTail) {
  SlidingQueue a(10);
  SlidingQueue b(10);
  a.push_back(5);
  a.slide_window();
  b.push_back(7);  // appended but not yet in b's window
  a.swap(b);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.window()[0], 5u);
  EXPECT_TRUE(a.empty());
  a.slide_window();  // the pending append travelled with the swap
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a.window()[0], 7u);
}

TEST(LocalWorklists, MassAccumulatesVerticesAndEdges) {
  LocalWorklists lists(100, 2);
  EXPECT_TRUE(lists.push(0, 1, 5));
  EXPECT_TRUE(lists.push(1, 2, 7));
  EXPECT_FALSE(lists.push(0, 1, 5));  // duplicate: no mass contribution
  EXPECT_TRUE(lists.push(1, 3));      // legacy push: vertex only
  const LocalWorklists::Mass mass = lists.mass();
  EXPECT_EQ(mass.vertices, 3u);
  EXPECT_EQ(mass.edges, 12u);
  lists.clear();
  EXPECT_EQ(lists.mass().vertices, 0u);
  EXPECT_EQ(lists.mass().edges, 0u);
}

TEST(LocalWorklists, SwapExchangesMass) {
  LocalWorklists a(10, 1);
  LocalWorklists b(10, 1);
  a.push(0, 3, 9);
  a.swap(b);
  EXPECT_EQ(a.mass().edges, 0u);
  EXPECT_EQ(b.mass().edges, 9u);
  EXPECT_EQ(b.mass().vertices, 1u);
}

TEST(Density, FormulaMatchesPaper) {
  // (|F.V| + |F.E|) / |E|
  EXPECT_DOUBLE_EQ(frontier_density(10, 90, 1000), 0.1);
  EXPECT_DOUBLE_EQ(frontier_density(0, 0, 1000), 0.0);
  EXPECT_DOUBLE_EQ(frontier_density(5, 5, 0), 0.0);  // guarded
}

TEST(Density, ThresholdSelection) {
  EXPECT_TRUE(is_sparse(0.009, kThriftyThreshold));
  EXPECT_FALSE(is_sparse(0.011, kThriftyThreshold));
  EXPECT_TRUE(is_sparse(0.04, kLigraThreshold));
  EXPECT_FALSE(is_sparse(0.06, kLigraThreshold));
  // The comparison is strict: a frontier sitting exactly on the
  // threshold runs dense, so the boundary decision is deterministic
  // rather than at the mercy of floating-point noise around ==.
  EXPECT_FALSE(is_sparse(kThriftyThreshold, kThriftyThreshold));
  EXPECT_FALSE(is_sparse(kLigraThreshold, kLigraThreshold));
}

TEST(Density, MassDrivenTrajectorySwitchesExactlyOnce) {
  // The direction heuristic consumes the worklist mass estimates: feed
  // it a shrinking frontier trajectory and check the push switch-over
  // happens at the first iteration whose density drops below threshold
  // — and never flips back while the frontier keeps shrinking.
  const std::uint64_t total_edges = 100000;
  LocalWorklists lists(1000, 1);
  std::uint64_t vertices = 800;
  std::uint64_t edges_per_vertex = 40;
  bool switched = false;
  for (int iteration = 0; iteration < 8; ++iteration) {
    lists.clear();
    for (std::uint64_t v = 0; v < vertices; ++v) {
      lists.push(0, static_cast<VertexId>(v), edges_per_vertex);
    }
    const LocalWorklists::Mass mass = lists.mass();
    EXPECT_EQ(mass.vertices, vertices);
    EXPECT_EQ(mass.edges, vertices * edges_per_vertex);
    const double density =
        frontier_density(mass.vertices, mass.edges, total_edges);
    const bool sparse = is_sparse(density, kThriftyThreshold);
    if (sparse) {
      switched = true;
    } else {
      EXPECT_FALSE(switched) << "direction flipped back to pull on a "
                                "monotonically shrinking frontier";
    }
    vertices /= 4;  // the post-peak collapse of a skewed-degree solve
  }
  EXPECT_TRUE(switched);
}

}  // namespace
}  // namespace thrifty::frontier
