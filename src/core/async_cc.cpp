#include "core/async_cc.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "partition/edge_partitioner.hpp"
#include "support/parallel.hpp"
#include "support/quiescence.hpp"
#include "support/simd.hpp"
#include "support/timer.hpp"

namespace thrifty::core {

namespace {

using graph::Label;
using graph::VertexId;

}  // namespace

AsyncStats async_propagate(const graph::CsrGraph& graph, Label* labels,
                           const CcOptions& options) {
  AsyncStats stats;
  const VertexId n = graph.num_vertices();
  if (n == 0) return stats;

  const int threads = std::max(1, support::num_threads());
  const std::size_t want = static_cast<std::size_t>(threads) *
                           static_cast<std::size_t>(
                               std::max(1, options.partitions_per_thread));
  const std::vector<partition::VertexRange> parts =
      partition::edge_balanced_partitions(
          graph, std::min<std::size_t>(std::max<std::size_t>(want, 1), n));
  const std::size_t k = parts.size();

  // Contiguous range starts for publish-target partition lookup.  Empty
  // partitions repeat their successor's begin; upper_bound lands past
  // every duplicate, so the lookup always resolves to the one nonempty
  // partition that actually contains the vertex.
  std::vector<VertexId> begins(k);
  for (std::size_t i = 0; i < k; ++i) begins[i] = parts[i].begin;

  // Per-partition dirty flags.  All partitions start dirty (the first
  // drain is the initial full sweep).  Set via release RMWs and claimed
  // via acquire RMWs so a claimer synchronizes with *every* publisher
  // in the flag's RMW chain, not just the latest — the label CAS a
  // publisher performed before marking must be visible to the drain
  // that the mark triggers.
  const auto dirty = std::make_unique<std::atomic<std::uint8_t>[]>(k);
  for (std::size_t i = 0; i < k; ++i) {
    dirty[i].store(1, std::memory_order_relaxed);
  }

  support::QuiescenceCounter quiesce;
  std::atomic<std::uint64_t> total_publishes{0};
  std::atomic<std::uint64_t> total_activations{0};
  const support::SimdLevel level =
      support::simd::gather_level(support::simd::effective_level(), n);

  const std::size_t work = n + graph.num_directed_edges();
  support::parallel_region(work, [&](int tid, int team) {
    if (tid == 0) quiesce.set_workers(team);
    std::uint64_t local_publishes = 0;
    std::uint64_t local_activations = 0;

    const auto partition_of = [&](VertexId u) {
      const auto it = std::upper_bound(begins.begin(), begins.end(), u);
      return static_cast<std::size_t>(it - begins.begin()) - 1;
    };

    // One claimed partition: gather each vertex's neighbourhood minimum
    // (live loads — within-pass Gauss–Seidel propagation is free), lower
    // the own slot, then publish the improved label to every neighbour
    // still above it, waking the neighbour's partition.  Publishing to
    // the *own* partition matters too: vertices already swept this pass
    // only re-learn the improvement through their dirty flag.
    const auto drain = [&](std::size_t p) {
      for (VertexId v = parts[p].begin; v < parts[p].end; ++v) {
        const auto nbrs = graph.neighbors(v);
        Label current = load_label(labels[v]);
        if (current != 0 && !nbrs.empty()) {
          const Label gathered = support::simd::min_gather_u32(
              labels, nbrs.data(), nbrs.size(), current,
              /*stop_at_zero=*/true, level);
          if (gathered < current) {
            atomic_min(labels[v], gathered);
            current = gathered;
          }
        }
        for (const VertexId u : nbrs) {
          if (atomic_min(labels[u], current)) {
            ++local_publishes;
            dirty[partition_of(u)].exchange(1, std::memory_order_release);
          }
        }
      }
    };

    // Own block first, then sweep the others — the same locality-first
    // victim order as partition/scheduler.hpp, minus its barriers.
    const std::size_t start =
        k * static_cast<std::size_t>(tid) / static_cast<std::size_t>(team);
    while (!quiesce.done()) {
      bool did_work = false;
      for (std::size_t off = 0; off < k; ++off) {
        const std::size_t p = (start + off) % k;
        if (dirty[p].load(std::memory_order_relaxed) == 0) continue;
        if (dirty[p].exchange(0, std::memory_order_acquire) == 0) continue;
        drain(p);
        ++local_activations;
        did_work = true;
      }
      if (did_work) continue;

      // Phase 1: announce idle, then poll.  Phase 2 runs only once the
      // whole pool looks idle: take the version token *before* the
      // clean re-scan so any concurrent claim invalidates the pass.
      quiesce.enter_idle();
      while (!quiesce.done()) {
        const auto token = quiesce.observe();
        bool any = false;
        for (std::size_t p = 0; p < k && !any; ++p) {
          any = dirty[p].load(std::memory_order_seq_cst) != 0;
        }
        if (any) {
          quiesce.exit_idle();
          break;
        }
        if (token && quiesce.confirm(*token)) break;
        std::this_thread::yield();
      }
    }

    total_publishes.fetch_add(local_publishes, std::memory_order_relaxed);
    total_activations.fetch_add(local_activations,
                                std::memory_order_relaxed);
  });

  stats.publishes = total_publishes.load(std::memory_order_relaxed);
  stats.activations = total_activations.load(std::memory_order_relaxed);
  return stats;
}

CcResult async_cc(const graph::CsrGraph& graph, const CcOptions& options) {
  const support::Timer timer;
  CcResult result;
  result.stats.algorithm = "async";
  const VertexId n = graph.num_vertices();
  result.labels = make_label_array(n);
  support::parallel_for<VertexId>(n,
                                  [&](VertexId v) { result.labels[v] = v; });
  const AsyncStats stats = async_propagate(graph, result.labels.data(),
                                           options);
  // The engine has no iterations; report the drained activation count so
  // instrumented runs still see how much scheduling happened.
  result.stats.num_iterations =
      static_cast<int>(std::min<std::uint64_t>(
          stats.activations,
          static_cast<std::uint64_t>(
              std::numeric_limits<int>::max())));
  result.stats.total_ms = timer.elapsed_ms();
  return result;
}

}  // namespace thrifty::core
