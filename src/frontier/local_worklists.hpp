// The paper's push-iteration frontier (§IV-E): per-thread worklists
// collecting active vertices, a *shared, non-atomically accessed* byte
// array suppressing most duplicate insertions, and work stealing between
// threads during consumption.
//
// The byte array is deliberately racy: two threads may both observe a
// vertex as unmarked and both enqueue it, in which case the vertex is
// processed twice in the next iteration.  As the paper argues, label
// propagation tolerates this — reprocessing a vertex can only re-apply a
// monotone min — so the saved atomic traffic is pure profit.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "support/uninit_vector.hpp"

namespace thrifty::frontier {

class LocalWorklists {
 public:
  /// Total vertices and incident directed edges of the frontier — the
  /// |F.V| and |F.E| the next direction decision needs.  Accumulated
  /// inline as pushes happen, so no post-iteration rescan of the lists
  /// is required.
  struct Mass {
    std::uint64_t vertices = 0;
    std::uint64_t edges = 0;
  };

  /// The marks are zeroed by the team's static schedule, so their pages
  /// are first-touched by the threads that sweep those vertices.
  LocalWorklists(graph::VertexId num_vertices, int num_threads)
      : marks_(num_vertices),
        lists_(static_cast<std::size_t>(num_threads)),
        mass_(static_cast<std::size_t>(num_threads)) {
    support::parallel_for(num_vertices,
                          [&](graph::VertexId v) { marks_[v] = 0; });
  }

  [[nodiscard]] int num_threads() const {
    return static_cast<int>(lists_.size());
  }

  /// Inserts `v` into `thread`'s worklist unless some thread already
  /// marked it.  The check-then-set is intentionally not a read-modify-
  /// write: two threads can race past the check and both enqueue `v`
  /// (the paper's benign duplicate).  Relaxed atomic byte loads/stores
  /// compile to the same plain MOVs as the paper's C implementation while
  /// keeping the program free of formal data races.
  /// Returns true when the vertex was enqueued by this call (false when
  /// the mark suppressed it as a duplicate).
  bool push(int thread, graph::VertexId v) {
    THRIFTY_EXPECTS(v < marks_.size());
    if (mark(v).load(std::memory_order_relaxed) != 0) return false;
    mark(v).store(1, std::memory_order_relaxed);
    lists_[static_cast<std::size_t>(thread)].push_back(v);
    auto& mass = mass_[static_cast<std::size_t>(thread)];
    ++mass.vertices;
    return true;
  }

  /// push() that also banks `degree` into the inserting thread's frontier
  /// mass, so the (|F.V|, |F.E|) of the built frontier is available from
  /// mass() without rescanning the lists.
  bool push(int thread, graph::VertexId v, graph::EdgeOffset degree) {
    THRIFTY_EXPECTS(v < marks_.size());
    if (mark(v).load(std::memory_order_relaxed) != 0) return false;
    mark(v).store(1, std::memory_order_relaxed);
    lists_[static_cast<std::size_t>(thread)].push_back(v);
    auto& mass = mass_[static_cast<std::size_t>(thread)];
    ++mass.vertices;
    mass.edges += degree;
    return true;
  }

  /// Frontier mass accumulated by all push() calls since the last
  /// clear().  Counts benign duplicates exactly as a rescan of the lists
  /// would (each enqueued copy contributes once).
  [[nodiscard]] Mass mass() const {
    Mass total;
    for (const auto& m : mass_) {
      total.vertices += m.vertices;
      total.edges += m.edges;
    }
    return total;
  }

  [[nodiscard]] std::uint64_t total_size() const {
    std::uint64_t total = 0;
    for (const auto& list : lists_) total += list.size();
    return total;
  }

  [[nodiscard]] bool empty() const { return total_size() == 0; }

  [[nodiscard]] std::span<const graph::VertexId> list(int thread) const {
    const auto& l = lists_[static_cast<std::size_t>(thread)];
    return {l.data(), l.size()};
  }

  /// Empties all lists and unmarks exactly the vertices they contained
  /// (O(frontier) rather than O(V)).
  void clear() {
    for (auto& list : lists_) {
      for (graph::VertexId v : list) {
        mark(v).store(0, std::memory_order_relaxed);
      }
      list.clear();
    }
    for (auto& m : mass_) m = ThreadMass{};
  }

  void swap(LocalWorklists& other) noexcept {
    marks_.swap(other.marks_);
    lists_.swap(other.lists_);
    mass_.swap(other.mass_);
  }

  /// Consumes all worklists with `body(worker_thread, vertex)` inside a
  /// fresh parallel region sized to the frontier's mass.  Each thread
  /// drains its own list in chunks (ascending order, preserving the
  /// locality of its own insertions) and then steals chunks from other
  /// threads' lists, scanning victims in descending thread order as the
  /// paper's scheduler does, so a team smaller than the number of lists
  /// still drains every list.  Does not modify the lists; call clear()
  /// afterwards to recycle.
  template <typename Body>
  void process_with_stealing(Body&& body) const {
    const int threads = num_threads();
    std::vector<std::atomic<std::size_t>> cursors(
        static_cast<std::size_t>(threads));
    for (auto& c : cursors) c.store(0, std::memory_order_relaxed);
    constexpr std::size_t kChunk = 64;
    const Mass frontier = mass();
#pragma omp parallel num_threads(support::threads_for( \
    support::push_work(frontier.vertices, frontier.edges)))
    {
      const int self = support::thread_id();
      // Own list first, then victims from the highest thread id down.
      for (int step = 0; step < threads; ++step) {
        const int victim =
            step == 0 ? self : (self + threads - step) % threads;
        const auto& victim_list =
            lists_[static_cast<std::size_t>(victim)];
        auto& cursor = cursors[static_cast<std::size_t>(victim)];
        while (true) {
          const std::size_t begin =
              cursor.fetch_add(kChunk, std::memory_order_relaxed);
          if (begin >= victim_list.size()) break;
          const std::size_t end =
              std::min(begin + kChunk, victim_list.size());
          for (std::size_t i = begin; i < end; ++i) {
            body(self, victim_list[i]);
          }
        }
      }
    }
  }

  /// Duplicate-suppression mark of a vertex; exposed for tests of the
  /// benign-race semantics.
  [[nodiscard]] bool marked(graph::VertexId v) const {
    THRIFTY_EXPECTS(v < marks_.size());
    return std::atomic_ref<const std::uint8_t>(marks_[v]).load(
               std::memory_order_relaxed) != 0;
  }

 private:
  using Marks = support::UninitVector<std::uint8_t>;

  std::atomic_ref<std::uint8_t> mark(graph::VertexId v) {
    return std::atomic_ref<std::uint8_t>(marks_[v]);
  }

  /// Padded per-thread lists and mass slots: every push writes its
  /// thread's list end pointer and mass totals, and unpadded neighbours
  /// shared a cache line between inserting threads.
  struct alignas(64) ThreadList : std::vector<graph::VertexId> {};
  struct alignas(64) ThreadMass : Mass {};

  Marks marks_;
  std::vector<ThreadList> lists_;
  std::vector<ThreadMass> mass_;
};

}  // namespace thrifty::frontier
