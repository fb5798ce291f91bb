// Shared concurrent min-hooking primitives for the union-find-based
// algorithms (Afforest, the adaptive executor) and the incremental ingest
// path of the serving layer: lock-free linking with on-the-fly
// compression, pointer-jumping compression passes, grandparent-sweep
// flattening (the Shiloach–Vishkin shortcut) and most-frequent-component
// sampling.
//
// Memory-ordering contract (audited for the concurrent-ingest path of
// src/serve/, where reader threads coexist with hooking writers):
//
//   * All label loads, stores and CASes below are relaxed.  That is
//     sufficient *within* a hooking phase because the forest is a
//     monotone structure — parent labels only ever decrease, no other
//     data is published through them, and link/compress converge to the
//     same fixed point under any interleaving of relaxed operations
//     (the same argument as core::atomic_min).
//   * Between phases (link rounds, compress sweeps) the callers
//     synchronise via the implicit barrier at the end of each OpenMP
//     parallel-for region, which establishes the happens-before edges a
//     subsequent phase needs to observe the previous one completely.
//   * Across the reader/writer boundary relaxed is NOT sufficient, and
//     no ordering is added here by design: concurrent readers must
//     never observe a forest mid-hook.  The serving layer upholds this
//     by keeping the forest private to the (serialised) writer and
//     publishing immutable label snapshots through an
//     atomic<shared_ptr> exchange, whose release store / acquire load
//     pair carries every forest write to every subsequent reader (see
//     serve::ConnectivityService).  Any new caller that lets foreign
//     threads read a forest while hooks run must add its own
//     release/acquire publication edge.
#pragma once

#include <algorithm>
#include <atomic>
#include <optional>
#include <unordered_map>

#include "core/cc_common.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"

namespace thrifty::baselines::hook {

/// Min-hooking link with on-the-fly compression (the GAP `Link`).
inline void link(graph::Label u, graph::Label v, core::LabelArray& comp) {
  graph::Label p1 = core::load_label(comp[u]);
  graph::Label p2 = core::load_label(comp[v]);
  while (p1 != p2) {
    const graph::Label high = std::max(p1, p2);
    const graph::Label low = std::min(p1, p2);
    const graph::Label p_high = core::load_label(comp[high]);
    if (p_high == low) break;
    if (p_high == high) {
      std::atomic_ref<graph::Label> ref(comp[high]);
      graph::Label expected = high;
      if (ref.compare_exchange_strong(expected, low,
                                      std::memory_order_relaxed)) {
        break;
      }
    }
    p1 = core::load_label(comp[core::load_label(comp[high])]);
    p2 = core::load_label(comp[low]);
  }
}

/// Full pointer-jumping pass: afterwards comp[v] == comp[comp[v]].
inline void compress(core::LabelArray& comp, graph::VertexId n) {
  support::parallel_for(n, [&](graph::VertexId v) {
    graph::Label c = core::load_label(comp[v]);
    while (c != core::load_label(comp[c])) {
      c = core::load_label(comp[c]);
    }
    core::store_label(comp[v], c);
  });
}

/// One grandparent sweep over comp[begin, end); returns whether any
/// entry changed.  Entries are read-then-written per element, so a sweep
/// may observe updates made earlier in the same sweep — harmless,
/// because flattening loops to the (order-independent) pointer-jump
/// fixed point.
inline bool shortcut_sweep(graph::Label* comp, std::size_t begin,
                           std::size_t end) {
  bool changed = false;
  for (std::size_t v = begin; v < end; ++v) {
    const graph::Label p = core::load_label(comp[v]);
    const graph::Label g = core::load_label(comp[p]);
    if (g < p) {
      core::store_label(comp[v], g);
      changed = true;
    }
  }
  return changed;
}

/// Pointer-jumps comp[begin, end) to its fixed point: sweeps
/// comp[v] = comp[comp[v]] where the grandparent is smaller, until the
/// range is stable, i.e. every entry in the range points at a root.
/// Parents may lie outside the range — reads cover the whole array —
/// which is what lets flatten() run one slice per thread.  Returns true
/// when any entry changed, which is exactly "some entry was not already
/// pointing at a root".  Chains must end at a self-loop root, as in
/// every union-find forest.
inline bool flatten_slice(graph::Label* comp, std::size_t begin,
                          std::size_t end) {
  bool any = false;
  while (shortcut_sweep(comp, begin, end)) any = true;
  return any;
}

/// Flattens the whole forest comp[0, n) to a set of stars.  Each thread
/// flattens a contiguous slice to its local fixed point; a barrier round
/// in which no slice changed proves the global fixed point (a
/// neighbouring slice can lower a parent after this slice's own sweep
/// stabilises, so one round is not enough).  Returns whether any entry
/// moved, i.e. the forest was not already a set of stars — a property
/// of the input, independent of the thread count.  SV shortcuts with
/// this rather than compress()'s per-vertex root chase; the comparison
/// is in EXPERIMENTS.md ("One vector kernel").
inline bool flatten(core::LabelArray& comp, graph::VertexId n) {
  bool any = false;
  std::atomic<bool> again{true};
  while (again.load(std::memory_order_relaxed)) {
    again.store(false, std::memory_order_relaxed);
    support::parallel_region(n, [&](int t, int threads) {
      const auto [begin, end] = support::thread_slice(n, t, threads);
      if (flatten_slice(comp.data(), begin, end)) {
        again.store(true, std::memory_order_relaxed);
      }
    });
    any = any || again.load(std::memory_order_relaxed);
  }
  return any;
}

/// Most frequent component id among a random vertex sample — almost
/// surely the giant component on skewed graphs (Table I).  Returns
/// nullopt when there is nothing to sample (empty id space or a zero
/// sample budget); previously this sampled into an empty range and
/// could hand callers an arbitrary label to "skip".
[[nodiscard]] inline std::optional<graph::Label> sample_frequent_component(
    const core::LabelArray& comp, graph::VertexId n, std::uint32_t samples,
    std::uint64_t seed) {
  if (n == 0 || samples == 0) return std::nullopt;
  support::Xoshiro256StarStar rng(seed);
  std::unordered_map<graph::Label, std::uint32_t> counts;
  counts.reserve(samples * 2);
  for (std::uint32_t i = 0; i < samples; ++i) {
    const auto v = static_cast<graph::VertexId>(rng.next_below(n));
    ++counts[core::load_label(comp[v])];
  }
  graph::Label best = 0;
  std::uint32_t best_count = 0;
  for (const auto& [label, count] : counts) {
    if (count > best_count) {
      best = label;
      best_count = count;
    }
  }
  return best;
}

}  // namespace thrifty::baselines::hook
