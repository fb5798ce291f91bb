// Work-stealing partition scheduler reproducing the paper's runtime policy
// (§V-A): `partitions_per_thread × #threads` edge-balanced partitions;
// partitions [k·t, k·(t+1)) are initially owned by thread t; a thread
// processes its own partitions in ascending order (preserving locality
// between consecutive partitions) and steals from other threads in
// descending order.
//
// Claiming is a per-partition atomic flag: owners scan their block
// ascending, thieves scan foreign blocks descending, and an atomic
// exchange arbitrates — simple, correct, and O(#partitions) bookkeeping
// which is negligible at 32 partitions per thread.
//
// Thieves visit victims nearest first, (self + 1) % threads onwards.
// Blocks are contiguous vertex ranges owned by consecutive threads, so
// the pages a thief takes over were first-touched by a neighbouring
// thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"
#include "partition/edge_partitioner.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"

namespace thrifty::partition {

class PartitionScheduler {
 public:
  /// Builds edge-balanced partitions for the current OpenMP thread count.
  explicit PartitionScheduler(const graph::CsrGraph& graph,
                              int partitions_per_thread = 32)
      : threads_(support::num_threads()),
        per_thread_(partitions_per_thread),
        ranges_(edge_balanced_partitions(
            graph, static_cast<std::size_t>(threads_) *
                       static_cast<std::size_t>(partitions_per_thread))),
        claimed_(ranges_.size()) {
    THRIFTY_EXPECTS(partitions_per_thread > 0);
  }

  [[nodiscard]] const std::vector<VertexRange>& partitions() const {
    return ranges_;
  }

  [[nodiscard]] int num_threads() const { return threads_; }
  [[nodiscard]] int partitions_per_thread() const { return per_thread_; }

  /// Runs `body(thread_id, range)` once per partition, with the stealing
  /// policy described above.  May be called repeatedly; claims reset on
  /// each call.
  template <typename Body>
  void for_each_partition(Body&& body) {
    for (auto& flag : claimed_) flag.store(0, std::memory_order_relaxed);
    const int threads = threads_;
    const auto per_thread = static_cast<std::size_t>(per_thread_);
#pragma omp parallel num_threads(threads)
    {
      const int self = support::thread_id();
      // Own block, ascending.
      const std::size_t own_begin =
          static_cast<std::size_t>(self) * per_thread;
      for (std::size_t p = own_begin; p < own_begin + per_thread; ++p) {
        if (try_claim(p)) body(self, ranges_[p]);
      }
      // Steal: visit victims nearest first, scanning each victim's
      // block in descending order.
      for (int step = 1; step < threads; ++step) {
        const std::size_t victim_begin =
            static_cast<std::size_t>((self + step) % threads) * per_thread;
        for (std::size_t k = per_thread; k-- > 0;) {
          const std::size_t p = victim_begin + k;
          if (try_claim(p)) body(self, ranges_[p]);
        }
      }
    }
  }

 private:
  bool try_claim(std::size_t partition) {
    return claimed_[partition].exchange(1, std::memory_order_acquire) == 0;
  }

  int threads_;
  int per_thread_;
  std::vector<VertexRange> ranges_;
  std::vector<std::atomic<std::uint8_t>> claimed_;
};

}  // namespace thrifty::partition
