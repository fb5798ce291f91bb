#include "shard/solver.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "core/thrifty.hpp"
#include "io/mmap_io.hpp"
#include "support/parallel.hpp"
#include "support/simd.hpp"
#include "support/timer.hpp"

namespace thrifty::shard {

using graph::Label;
using graph::VertexId;
using support::SimdLevel;

namespace {

/// Access layer the round loop runs against.  `shard(k)` (range and cut
/// CSR — always cheap, resident for the whole solve) is
/// deliberately separate from `csr(k)` (may hit disk and charge the
/// residency budget), so a boundary pull that improves nothing can skip
/// a shard without any I/O.
class ShardProvider {
 public:
  virtual ~ShardProvider() = default;
  [[nodiscard]] virtual int num_shards() const = 0;
  [[nodiscard]] virtual const Shard& shard(int k) = 0;
  [[nodiscard]] virtual const graph::CsrGraph& csr(int k) = 0;
  /// Hint that shard k is about to be swept (MADV_WILLNEED window).
  virtual void prefetch(int /*k*/) {}
  /// Residency counters accumulated by the provider.
  virtual void fill_stats(ShardedCcStats& /*stats*/) const {}
};

class InMemoryProvider final : public ShardProvider {
 public:
  explicit InMemoryProvider(const ShardedGraph& sharded)
      : sharded_(sharded) {}
  [[nodiscard]] int num_shards() const override {
    return sharded_.num_shards();
  }
  [[nodiscard]] const Shard& shard(int k) override {
    return sharded_.shards[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] const graph::CsrGraph& csr(int k) override {
    return sharded_.shards[static_cast<std::size_t>(k)].local;
  }

 private:
  const ShardedGraph& sharded_;
};

/// Streaming provider: cut sidecars load once and stay resident; shard
/// CSRs are mapped on demand and windowed.  Eviction is FIFO — the
/// oldest resident shard is the one furthest behind the sweep — runs
/// before the new shard is mapped, and applies MADV_DONTNEED before
/// unmapping so the pages leave the process immediately.  The budget
/// is clamped up to the largest single shard: the sweep must always be
/// able to hold the shard it is working on.
class StreamingProvider final : public ShardProvider {
 public:
  StreamingProvider(const ShardManifest& manifest,
                    const ShardedCcOptions& options)
      : manifest_(manifest),
        budget_(options.memory_budget_bytes == 0
                    ? 0
                    : std::max(options.memory_budget_bytes,
                               manifest.max_shard_csr_bytes())),
        resident_(manifest.shards.size()) {
    load_timer_.start();
    skeletons_.reserve(manifest_.shards.size());
    for (const ShardMeta& meta : manifest_.shards) {
      skeletons_.push_back(read_shard_cuts(meta, manifest_.num_vertices));
    }
    load_timer_.stop();
  }

  [[nodiscard]] int num_shards() const override {
    return manifest_.num_shards();
  }

  [[nodiscard]] const Shard& shard(int k) override {
    return skeletons_[static_cast<std::size_t>(k)];
  }

  [[nodiscard]] const graph::CsrGraph& csr(int k) override {
    load(k);
    return resident_[static_cast<std::size_t>(k)]->graph;
  }

  void prefetch(int k) override {
    if (k < 0 || k >= num_shards()) return;
    auto& slot = resident_[static_cast<std::size_t>(k)];
    if (slot) {
      // Already mapped: re-arm the asynchronous page-in for the sweep
      // about to arrive.
      io::advise_range(slot->mapping, slot->mapping_bytes, 0,
                       slot->mapping_bytes, io::MapAdvice::kWillNeed);
      return;
    }
    // Map ahead only when it fits the window alongside what is already
    // resident; otherwise the prefetch would evict the shard currently
    // being swept.
    if (budget_ == 0 || resident_bytes_ + charge(k) <= budget_) load(k);
  }

  void fill_stats(ShardedCcStats& stats) const override {
    stats.shard_loads = shard_loads_;
    stats.evictions = evictions_;
    stats.peak_window_bytes = peak_window_bytes_;
    stats.load_ms = load_timer_.total_ms();
  }

 private:
  [[nodiscard]] std::uint64_t charge(int k) const {
    return manifest_.shards[static_cast<std::size_t>(k)].csr_bytes();
  }

  void load(int k) {
    auto& slot = resident_[static_cast<std::size_t>(k)];
    if (slot) return;
    load_timer_.start();
    // Make room first, so the window never exceeds the budget.  Nothing
    // holds a CSR reference across a load (prefetch never evicts), and
    // the budget holds the largest shard, so the loop always ends with
    // room for shard k.
    while (budget_ != 0 && !fifo_.empty() &&
           resident_bytes_ + charge(k) > budget_) {
      evict(fifo_.front());
      fifo_.pop_front();
    }
    const ShardMeta& meta = manifest_.shards[static_cast<std::size_t>(k)];
    io::MappedCsr mapped = io::read_csr_mmap_region(meta.csr_path);
    if (mapped.graph.num_vertices() != meta.num_local() ||
        mapped.graph.num_directed_edges() != meta.intra_edges) {
      throw io::IoError(io::IoErrorKind::kCountMismatch,
                        "shard snapshot shape disagrees with manifest",
                        meta.csr_path);
    }
    slot.emplace(std::move(mapped));
    fifo_.push_back(k);
    resident_bytes_ += charge(k);
    peak_window_bytes_ = std::max(peak_window_bytes_, resident_bytes_);
    ++shard_loads_;
    load_timer_.stop();
  }

  void evict(int k) {
    auto& slot = resident_[static_cast<std::size_t>(k)];
    if (!slot) return;
    io::advise_range(slot->mapping, slot->mapping_bytes, 0,
                     slot->mapping_bytes, io::MapAdvice::kDontNeed);
    slot.reset();
    resident_bytes_ -= charge(k);
    ++evictions_;
  }

  const ShardManifest& manifest_;
  std::uint64_t budget_;
  std::vector<Shard> skeletons_;
  std::vector<std::optional<io::MappedCsr>> resident_;
  std::deque<int> fifo_;
  std::uint64_t resident_bytes_ = 0;
  std::uint64_t peak_window_bytes_ = 0;
  std::uint64_t shard_loads_ = 0;
  std::uint64_t evictions_ = 0;
  support::AccumulatingTimer load_timer_;
};

/// In-place Gauss–Seidel pull sweeps over one shard's intra-CSR until
/// the shard is locally stable.  `labels_base` points at the owned
/// slice of the global label array (indexed by local id, holding
/// global labels).  Same kernel and same relaxed-atomic discipline as
/// the pull iterations of core/thrifty.cpp: concurrent readers may see
/// in-flight updates, which only ever accelerates the monotone
/// descent.
void local_sweeps(const graph::CsrGraph& local, Label* labels_base,
                  SimdLevel level) {
  const VertexId n_local = local.num_vertices();
  const SimdLevel gather =
      support::simd::gather_level(level, n_local);
  std::atomic<bool> changed{true};
  while (changed.load(std::memory_order_relaxed)) {
    changed.store(false, std::memory_order_relaxed);
    support::parallel_for(n_local, [&](VertexId u) {
      const Label lv = core::load_label(labels_base[u]);
      if (lv == 0) return;  // global minimum: converged for good
      const auto nbrs = local.neighbors(u);
      if (nbrs.empty()) return;
      const Label best = support::simd::min_gather_u32(
          labels_base, nbrs.data(), nbrs.size(), lv,
          /*stop_at_zero=*/true, gather);
      if (best < lv) {
        core::store_label(labels_base[u], best);
        changed.store(true, std::memory_order_relaxed);
      }
    });
  }
}

/// Pulls remote labels into the owned ones along the shard's cut CSR:
/// owned[u] = min(owned[u], labels of u's cut row), skipping labels
/// already 0 (Zero Convergence).  `labels` is the global label array.
/// Cut ids lie outside the shard's range (partition_shards builds them
/// so, read_shard_cuts checks it), so each iteration writes only its own
/// owned[u] and reads only labels that no iteration writes: no atomics
/// are needed.  Returns the number of owned labels lowered.
std::uint64_t pull_boundary(const Shard& shard, Label* labels,
                            SimdLevel gather) {
  const VertexId n_local = shard.num_local();
  Label* owned = labels + shard.begin;
  const graph::EdgeOffset* offsets = shard.cut_offsets.data();
  const VertexId* ids = shard.cut_ids.data();
  std::uint64_t lowered = 0;
#pragma omp parallel for num_threads(support::threads_for( \
    shard.cut_ids.size())) schedule(dynamic, 1024) reduction(+ : lowered)
  for (VertexId u = 0; u < n_local; ++u) {
    const Label lv = owned[u];
    const std::size_t count = offsets[u + 1] - offsets[u];
    if (lv == 0 || count == 0) continue;
    const Label best = support::simd::min_gather_u32(
        labels, ids + offsets[u], count, lv, /*stop_at_zero=*/true, gather);
    if (best < lv) {
      owned[u] = best;
      ++lowered;
    }
  }
  return lowered;
}

ShardedCcResult solve(ShardProvider& provider, VertexId num_vertices,
                      std::uint64_t cut_pairs,
                      const ShardedCcOptions& options) {
  ShardedCcResult result;
  result.labels = core::make_label_array(num_vertices);
  Label* labels = result.labels.data();
  const int num_shards = provider.num_shards();
  const SimdLevel simd_level = support::simd::effective_level();
  const SimdLevel gather =
      support::simd::gather_level(simd_level, num_vertices);
  support::AccumulatingTimer sweep_timer;
  support::AccumulatingTimer exchange_timer;

  // ---- Round 0: independent local solves --------------------------
  for (int k = 0; k < num_shards; ++k) {
    const Shard& shard = provider.shard(k);
    const graph::CsrGraph& local = provider.csr(k);
    provider.prefetch(k + 1);

    sweep_timer.start();
    const core::CcResult local_result = core::thrifty_cc(local, options.cc);
    const std::vector<Label> canon =
        core::canonical_labels(local_result.label_span());
    Label* owned = labels + shard.begin;
    support::parallel_for(shard.num_local(), [&](VertexId u) {
      owned[u] = shard.begin + canon[u];
    });
    sweep_timer.stop();
  }
  result.stats.rounds = 1;

  // ---- Rounds 1..: pull / sweep until no pull lowers a label -------
  // Each pull reads the current global labels, so a label that an
  // earlier shard lowered this round is seen at once (Gauss–Seidel
  // across shards).
  bool any_lowered = cut_pairs > 0;
  while (any_lowered) {
    any_lowered = false;
    for (int k = 0; k < num_shards; ++k) {
      const Shard& shard = provider.shard(k);

      // The cut CSR lives in RAM, so a pull that lowers nothing skips
      // the shard without touching its intra-CSR.
      exchange_timer.start();
      const std::uint64_t lowered = pull_boundary(shard, labels, gather);
      exchange_timer.stop();
      if (lowered == 0) {
        ++result.stats.shards_skipped;
        continue;
      }
      result.stats.boundary_updates += lowered;
      any_lowered = true;

      const graph::CsrGraph& local = provider.csr(k);
      provider.prefetch(k + 1);
      sweep_timer.start();
      local_sweeps(local, labels + shard.begin, simd_level);
      sweep_timer.stop();
    }
    ++result.stats.rounds;
  }

  result.stats.sweep_ms = sweep_timer.total_ms();
  result.stats.exchange_ms = exchange_timer.total_ms();
  provider.fill_stats(result.stats);
  return result;
}

}  // namespace

ShardedCcResult sharded_cc(const ShardedGraph& sharded,
                           const ShardedCcOptions& options) {
  InMemoryProvider provider(sharded);
  return solve(provider, sharded.num_vertices, sharded.total_cut_pairs(),
               options);
}

ShardedCcResult sharded_cc(const ShardManifest& manifest,
                           const ShardedCcOptions& options) {
  StreamingProvider provider(manifest, options);
  return solve(provider, manifest.num_vertices, manifest.total_cut_pairs(),
               options);
}

}  // namespace thrifty::shard
