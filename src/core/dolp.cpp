#include "core/dolp.hpp"

#include <algorithm>
#include <span>

#include "core/lp_internal.hpp"
#include "frontier/bitmap.hpp"
#include "frontier/density.hpp"
#include "frontier/sliding_queue.hpp"
#include "instrument/counters.hpp"
#include "support/assert.hpp"
#include "support/prefetch.hpp"
#include "support/simd.hpp"
#include "support/timer.hpp"

namespace thrifty::core {

using graph::CsrGraph;
using graph::EdgeOffset;
using graph::Label;
using graph::VertexId;
using instrument::Direction;
using instrument::IterationRecord;

namespace {

/// Algorithm 1, templated on the counter policy and on whether the
/// Unified Labels Array optimisation is applied (the §V-D ablation).
template <typename Counters, bool kUnified>
CcResult dolp_impl(const CsrGraph& g, const CcOptions& options,
                   std::span<const Label> final_labels) {
  const VertexId n = g.num_vertices();
  const EdgeOffset m = g.num_directed_edges();

  CcResult result;
  result.stats.algorithm = kUnified ? "dolp_unified" : "dolp";
  result.stats.instrumented = Counters::kEnabled;
  result.labels = make_label_array(n);
  if (n == 0) return result;

  LabelArray& new_lbs = result.labels;
  LabelArray old_lbs = make_label_array(kUnified ? 0 : n);

  Counters counters;
  support::Timer total_timer;

  // Initial label assignment (Lines 2-4): every vertex labelled by its own
  // id, and every vertex active.
#pragma omp parallel for schedule(static)
  for (VertexId v = 0; v < n; ++v) {
    new_lbs[v] = v;
    if constexpr (!kUnified) old_lbs[v] = v;
  }

  // Frontier bookkeeping: a bitmap deduplicates push insertions within an
  // iteration; two sliding queues ping-pong between "current window" and
  // "next frontier" roles via swap(), so no iteration pays a serial
  // O(frontier) copy into a separate actives vector.
  frontier::Bitmap inserted(n);
  frontier::SlidingQueue queue(n);    // collects the next frontier
  frontier::SlidingQueue actives(n);  // window consumed by push iterations

  // Kernel level for the dense pull sweeps (see thrifty.cpp).
  const support::SimdLevel simd_level =
      support::simd::gather_level(support::simd::effective_level(), n);

  std::uint64_t active_vertices = n;
  std::uint64_t active_edges = m;
  bool first_iteration = true;
  int iteration = 0;

  while (active_vertices > 0) {
    IterationRecord rec;
    rec.index = iteration;
    rec.active_vertices = active_vertices;
    rec.density =
        frontier::frontier_density(active_vertices, active_edges, m);
    const auto counters_before = counters.total();
    support::Timer iteration_timer;

    std::uint64_t changes = 0;
    std::uint64_t changed_edges = 0;
    inserted.clear();
    queue.reset();

    const bool sparse =
        !first_iteration &&
        frontier::is_sparse(rec.density, options.density_threshold);

    if (sparse) {
      // Push traversal (Lines 9-12): propagate each active vertex's label
      // to its neighbours with atomic_min.
      rec.direction = Direction::kPush;
      const auto window = actives.window();
#pragma omp parallel reduction(+ : changes, changed_edges)
      {
        frontier::SlidingQueue::LocalBuffer buffer(queue);
#pragma omp for schedule(dynamic, 64) nowait
        for (std::size_t i = 0; i < window.size(); ++i) {
          const VertexId v = window[i];
          counters.label_read();
          const Label lv = kUnified ? load_label(new_lbs[v]) : old_lbs[v];
          const auto nbrs = g.neighbors(v);
          for (std::size_t j = 0; j < nbrs.size(); ++j) {
            if (j + support::kPrefetchDistance < nbrs.size()) {
              support::prefetch_write(
                  &new_lbs[nbrs[j + support::kPrefetchDistance]]);
            }
            const VertexId u = nbrs[j];
            counters.edge();
            counters.cas_attempt();
            if (atomic_min(new_lbs[u], lv)) {
              counters.cas_success();
              counters.label_write();
              if (inserted.set_atomic(u)) {
                counters.frontier_push();
                buffer.push_back(u);
                ++changes;
                changed_edges += g.degree(u);
              }
            }
          }
        }
      }
    } else {
      // Pull traversal (Lines 13-20): every vertex recomputes its label as
      // the minimum over itself and its neighbours, ignoring the frontier.
      rec.direction = Direction::kPull;
#pragma omp parallel reduction(+ : changes, changed_edges)
      {
        frontier::SlidingQueue::LocalBuffer buffer(queue);
#pragma omp for schedule(dynamic, 256) nowait
        for (VertexId v = 0; v < n; ++v) {
          counters.label_read();
          const Label old_label =
              kUnified ? load_label(new_lbs[v]) : old_lbs[v];
          Label new_label = old_label;
          const auto nbrs = g.neighbors(v);
          if constexpr (!Counters::kEnabled) {
            // Vectorized gather–min over the neighbour labels; DO-LP
            // has no zero-convergence exit, so the scan always reads
            // the full adjacency slice.
            const Label* source = kUnified ? new_lbs.data() : old_lbs.data();
            new_label = support::simd::min_gather_u32(
                source, nbrs.data(), nbrs.size(), old_label,
                /*stop_at_zero=*/false, simd_level);
          } else {
            for (std::size_t j = 0; j < nbrs.size(); ++j) {
              if (j + support::kPrefetchDistance < nbrs.size()) {
                const VertexId ahead = nbrs[j + support::kPrefetchDistance];
                support::prefetch_read(kUnified ? &new_lbs[ahead]
                                                : &old_lbs[ahead]);
              }
              const VertexId u = nbrs[j];
              counters.edge();
              counters.label_read();
              const Label lu =
                  kUnified ? load_label(new_lbs[u]) : old_lbs[u];
              if (lu < new_label) new_label = lu;
            }
          }
          if (new_label < old_label) {
            counters.label_write();
            if constexpr (kUnified) {
              store_label(new_lbs[v], new_label);
            } else {
              new_lbs[v] = new_label;
            }
            counters.frontier_push();
            buffer.push_back(v);
            ++changes;
            changed_edges += g.degree(v);
          }
        }
      }
    }

    // Label array synchronisation (Lines 21-22) — removed by the Unified
    // Labels Array optimisation.  Runs as a parallel SIMD copy sweep.
    if constexpr (!kUnified) {
      counters.label_read(n);
      counters.label_write(n);
      copy_labels({new_lbs.data(), new_lbs.size()},
                  {old_lbs.data(), old_lbs.size()});
    }

    queue.slide_window();
    actives.swap(queue);  // new frontier becomes next iteration's window

    rec.label_changes = changes;
    rec.time_ms = iteration_timer.elapsed_ms();
    if constexpr (Counters::kEnabled) {
      rec.edges_processed = detail::edges_delta(counters_before,
                                                counters.total());
      if (!final_labels.empty()) {
        rec.converged_vertices =
            detail::count_converged(result.label_span(), final_labels);
      }
    }
    result.stats.iterations.push_back(rec);

    active_vertices = changes;
    active_edges = changed_edges;
    first_iteration = false;
    ++iteration;
  }

  result.stats.total_ms = total_timer.elapsed_ms();
  result.stats.num_iterations = iteration;
  result.stats.events = counters.total();
  return result;
}

template <bool kUnified>
CcResult dolp_dispatch(const CsrGraph& g, const CcOptions& options) {
  if (!options.instrument) {
    return dolp_impl<instrument::NullCounters, kUnified>(g, options, {});
  }
  // Instrumented run: first compute the final labels (cheaply), so each
  // iteration can report how many vertices have already converged.
  CcOptions plain = options;
  plain.instrument = false;
  const CcResult reference =
      dolp_impl<instrument::NullCounters, kUnified>(g, plain, {});
  return dolp_impl<instrument::ActiveCounters, kUnified>(
      g, options, reference.label_span());
}

}  // namespace

CcResult dolp_cc(const CsrGraph& graph, const CcOptions& options) {
  return dolp_dispatch<false>(graph, options);
}

CcResult dolp_unified_cc(const CsrGraph& graph, const CcOptions& options) {
  return dolp_dispatch<true>(graph, options);
}

CcResult lp_pull_cc(const CsrGraph& graph, const CcOptions& options) {
  const VertexId n = graph.num_vertices();
  CcResult result;
  result.stats.algorithm = "lp_pull";
  result.labels = make_label_array(n);
  if (n == 0) return result;
  LabelArray& labels = result.labels;
  support::Timer total_timer;
#pragma omp parallel for schedule(static)
  for (VertexId v = 0; v < n; ++v) labels[v] = v;

  bool changed = true;
  int iteration = 0;
  while (changed) {
    std::uint64_t changes = 0;
#pragma omp parallel for schedule(dynamic, 256) reduction(+ : changes)
    for (VertexId v = 0; v < n; ++v) {
      Label new_label = load_label(labels[v]);
      for (const VertexId u : graph.neighbors(v)) {
        const Label lu = load_label(labels[u]);
        if (lu < new_label) new_label = lu;
      }
      if (new_label < load_label(labels[v])) {
        store_label(labels[v], new_label);
        ++changes;
      }
    }
    IterationRecord rec;
    rec.index = iteration;
    rec.direction = Direction::kPull;
    rec.label_changes = changes;
    result.stats.iterations.push_back(rec);
    changed = changes > 0;
    ++iteration;
  }
  result.stats.total_ms = total_timer.elapsed_ms();
  result.stats.num_iterations = iteration;
  (void)options;
  return result;
}

}  // namespace thrifty::core
