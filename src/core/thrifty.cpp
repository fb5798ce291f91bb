#include "core/thrifty.hpp"

#include <algorithm>
#include <atomic>

#include "core/lp_internal.hpp"
#include "frontier/density.hpp"
#include "frontier/local_worklists.hpp"
#include "partition/scheduler.hpp"
#include "instrument/counters.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "support/prefetch.hpp"
#include "support/random.hpp"
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

/// Zero Planting (Lines 3-9): labels start at v+1 and label 0 goes to the
/// plant site — the maximum-degree vertex in real Thrifty (Lines 5-8),
/// almost surely a hub of the giant component.  Returns the site.
VertexId plant_zero(const CsrGraph& g, PlantSite site, std::uint64_t seed,
                    LabelArray& labels) {
  const VertexId n = g.num_vertices();
  // Labels are v + 1; guard the shift against wrap-around.
  THRIFTY_EXPECTS(n < static_cast<VertexId>(-1) - 1);
  support::parallel_for(n, [&](VertexId v) { labels[v] = v + 1; });
  VertexId planted = 0;
  switch (site) {
    case PlantSite::kMaxDegree:
      planted = g.max_degree_vertex();
      break;
    case PlantSite::kRandom:
      planted = static_cast<VertexId>(support::hash_mix(seed, 0xC0FFEE) % n);
      break;
    case PlantSite::kFirstVertex:
      break;
  }
  labels[planted] = 0;
  return planted;
}

/// Algorithm 2, templated on the counter policy and (for the hot loops)
/// on whether Zero Convergence is compiled in: Zero Planting, the
/// optional Initial Push, then the iteration loop.
template <typename Counters, bool kZeroConv>
CcResult thrifty_loop(const CsrGraph& g, const CcOptions& options,
                      const ThriftyVariant& variant,
                      std::span<const Label> final_labels) {
  const VertexId n = g.num_vertices();
  const EdgeOffset m = g.num_directed_edges();

  CcResult result;
  result.stats.instrumented = Counters::kEnabled;
  result.labels = make_label_array(n);
  if (n == 0) return result;
  LabelArray& labels = result.labels;
  const VertexId planted =
      plant_zero(g, variant.plant_site, options.seed, labels);

  Counters counters;

  // Kernel instruction-set level for the dense pull sweeps, resolved
  // once per invocation (THRIFTY_SIMD clamped to host support, scalar
  // for id spaces beyond the 32-bit gather range).
  const support::SimdLevel simd_level =
      support::simd::gather_level(support::simd::effective_level(), n);

  frontier::LocalWorklists current(n, support::num_threads());
  frontier::LocalWorklists next(n, support::num_threads());
  partition::PartitionScheduler scheduler(g, options.partitions_per_thread);

  std::uint64_t active_vertices = 0;
  std::uint64_t active_edges = 0;
  bool have_frontier = false;
  // A push-only schedule is correct only once every vertex has examined
  // all of its edges at least once (otherwise a component the zero label
  // never reaches would keep its distinct v+1 labels).  The first sparse
  // iteration therefore runs as a full Pull-Frontier pass even when the
  // density alone would already pick push.
  bool full_pull_done = false;
  int iteration = 0;

  if (variant.initial_push) {
    // --- Initial Push (Lines 11-12): one push traversal of the zero
    // label from the hub to its neighbours — the only edges processed in
    // iteration 0.
    const VertexId hub = planted;
    IterationRecord rec;
    rec.index = 0;
    rec.direction = Direction::kInitialPush;
    rec.active_vertices = 1;
    rec.density = frontier::frontier_density(1, g.degree(hub), m);
    const auto counters_before = counters.total();
    support::Timer iteration_timer;

    const Label hub_label = labels[hub];
    const auto hub_neighbors = g.neighbors(hub);
#pragma omp parallel num_threads( \
    support::threads_for(support::push_work(1, hub_neighbors.size())))
    {
      const int t = support::thread_id();
#pragma omp for schedule(static) nowait
      for (std::size_t i = 0; i < hub_neighbors.size(); ++i) {
        if (i + support::kPrefetchDistance < hub_neighbors.size()) {
          support::prefetch_write(
              &labels[hub_neighbors[i + support::kPrefetchDistance]]);
        }
        const VertexId u = hub_neighbors[i];
        counters.edge();
        counters.cas_attempt();
        if (atomic_min(labels[u], hub_label)) {
          counters.cas_success();
          counters.label_write();
          if (next.push(t, u, g.degree(u))) counters.frontier_push();
        }
      }
    }
    const frontier::LocalWorklists::Mass mass = next.mass();
    active_vertices = mass.vertices;
    active_edges = mass.edges;
    rec.label_changes = mass.vertices;
    rec.time_ms = iteration_timer.elapsed_ms();
    if constexpr (Counters::kEnabled) {
      rec.edges_processed =
          detail::edges_delta(counters_before, counters.total());
      if (!final_labels.empty()) {
        rec.converged_vertices =
            detail::count_converged(result.label_span(), final_labels);
      }
    }
    result.stats.iterations.push_back(rec);
    current.clear();
    current.swap(next);
    have_frontier = true;
    iteration = 1;
  } else {
    // No Initial Push (the ablation): a DO-LP-style eager bootstrap —
    // everything active.
    active_vertices = n;
    active_edges = m;
  }

  while (active_vertices > 0) {
    IterationRecord rec;
    rec.index = iteration;
    rec.active_vertices = active_vertices;
    rec.density =
        frontier::frontier_density(active_vertices, active_edges, m);
    const auto counters_before = counters.total();
    support::Timer iteration_timer;

    const bool sparse =
        frontier::is_sparse(rec.density, options.density_threshold);
    std::uint64_t changes = 0;
    std::uint64_t changed_edges = 0;

    if (sparse && have_frontier && full_pull_done) {
      // --- Push traversal over the detailed frontier, consumed with the
      // paper's per-thread worklists + work stealing.  No hub splitting:
      // Zero Planting gives the largest hub label 0, which never changes,
      // so that hub never enters a push frontier.
      rec.direction = Direction::kPush;
      current.process_with_stealing([&](int t, VertexId v) {
        counters.label_read();
        const Label lv = load_label(labels[v]);
        const auto nbrs = g.neighbors(v);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          if (i + support::kPrefetchDistance < nbrs.size()) {
            support::prefetch_write(
                &labels[nbrs[i + support::kPrefetchDistance]]);
          }
          const VertexId u = nbrs[i];
          counters.edge();
          counters.cas_attempt();
          if (atomic_min(labels[u], lv)) {
            counters.cas_success();
            counters.label_write();
            if (next.push(t, u, g.degree(u))) counters.frontier_push();
          }
        }
      });
      const frontier::LocalWorklists::Mass mass = next.mass();
      changes = mass.vertices;
      changed_edges = mass.edges;
      current.clear();
      current.swap(next);
      have_frontier = true;
    } else {
      // --- Pull traversal (Lines 19-34) with Zero Convergence, run over
      // the edge-balanced partitions (§V-A).  Every pull records its
      // changes in the detailed frontier (§IV-E's Pull-Frontier), so a
      // pull whose result is sparse hands it straight to push.  A
      // partition stops enqueueing once its own changes, or the frontier
      // mass banked so far, are no longer sparse: the whole frontier is
      // then dense, the next iteration is a pull that would discard the
      // lists, and this one is recorded as a plain Pull.
      //
      // Only the first full pull steals.  Later pulls run owner-only, so
      // that label 0 crosses each thread's block as one Gauss–Seidel
      // front instead of stopping at partitions a thief took first.
      std::atomic<std::uint64_t> changes_atomic{0};
      std::atomic<std::uint64_t> changed_edges_atomic{0};
      std::atomic<bool> frontier_dense{false};
      scheduler.for_each_partition(
          [&](int t, const partition::VertexRange& range) {
            // A local copy: read through the capture, the flag was
            // reloaded for every vertex (about 0.3 ms of a 7 ms pull).
            const bool jump = variant.pointer_jump;
            bool enqueue = !frontier_dense.load(std::memory_order_relaxed);
            std::uint64_t local_changes = 0;
            std::uint64_t local_edges = 0;
            for (VertexId v = range.begin; v < range.end; ++v) {
              counters.label_read();
              const Label lv = load_label(labels[v]);
              if (kZeroConv && lv == 0) {  // Zero Convergence
                counters.skipped_converged_vertex();
                continue;
              }
              Label new_label = lv;
              const auto nbrs = g.neighbors(v);
              if constexpr (!Counters::kEnabled) {
                // Vectorized gather–min scan (lane-wise min over the
                // neighbour labels, zero-convergence early exit per
                // chunk).  Bit-identical to the counted loop below.
                new_label = support::simd::min_gather_u32(
                    labels.data(), nbrs.data(), nbrs.size(), lv,
                    kZeroConv, simd_level);
              } else {
                // Instrumented runs keep the scalar loop: the per-edge
                // event counters observe every neighbour access.
                for (std::size_t i = 0; i < nbrs.size(); ++i) {
                  if (i + support::kPrefetchDistance < nbrs.size()) {
                    support::prefetch_read(
                        &labels[nbrs[i + support::kPrefetchDistance]]);
                  }
                  const VertexId u = nbrs[i];
                  counters.edge();
                  counters.label_read();
                  const Label lu = load_label(labels[u]);
                  if (lu < new_label) {
                    new_label = lu;
                    if (kZeroConv && new_label == 0) {  // stop the scan
                      counters.early_exit();
                      break;
                    }
                  }
                }
              }
              if (jump && new_label != 0) {
                // One pointer jump: the vertex that label new_label
                // names may already hold a smaller label.
                counters.label_read();
                new_label =
                    std::min(new_label, load_label(labels[new_label - 1]));
              }
              if (new_label < lv) {
                counters.label_write();
                store_label(labels[v], new_label);
                ++local_changes;
                local_edges += g.degree(v);
                if (enqueue) {
                  if (!frontier::is_sparse(
                          frontier::frontier_density(local_changes,
                                                     local_edges, m),
                          options.density_threshold)) {
                    enqueue = false;
                    frontier_dense.store(true, std::memory_order_relaxed);
                  } else if (next.push(t, v, g.degree(v))) {
                    counters.frontier_push();
                  }
                }
              }
            }
            const std::uint64_t banked_changes =
                changes_atomic.fetch_add(local_changes,
                                         std::memory_order_relaxed) +
                local_changes;
            const std::uint64_t banked_edges =
                changed_edges_atomic.fetch_add(local_edges,
                                               std::memory_order_relaxed) +
                local_edges;
            // Both banked totals only grow, so once one partition sees a
            // dense frontier the next iteration's density is dense too.
            if (!frontier::is_sparse(
                    frontier::frontier_density(banked_changes, banked_edges,
                                               m),
                    options.density_threshold)) {
              frontier_dense.store(true, std::memory_order_relaxed);
            }
          },
          /*steal=*/!full_pull_done);
      changes = changes_atomic.load();
      changed_edges = changed_edges_atomic.load();
      have_frontier = changes > 0 && !frontier_dense.load();
      rec.direction =
          have_frontier ? Direction::kPullFrontier : Direction::kPull;
      current.clear();
      if (have_frontier) {
        current.swap(next);
      } else {
        next.clear();  // the partial lists of a dense Pull-Frontier
      }
      full_pull_done = true;
    }

    rec.label_changes = changes;
    rec.time_ms = iteration_timer.elapsed_ms();
    if constexpr (Counters::kEnabled) {
      rec.edges_processed =
          detail::edges_delta(counters_before, counters.total());
      if (!final_labels.empty()) {
        rec.converged_vertices =
            detail::count_converged(result.label_span(), final_labels);
      }
    }
    result.stats.iterations.push_back(rec);

    active_vertices = changes;
    active_edges = changed_edges;
    ++iteration;
  }

  result.stats.num_iterations = iteration;  // Initial Push counted (§V-C)
  result.stats.events = counters.total();
  return result;
}

/// One timed solve, planting included.
template <typename Counters>
CcResult timed_solve(const CsrGraph& g, const CcOptions& options,
                     const ThriftyVariant& variant,
                     std::span<const Label> final_labels) {
  support::Timer timer;
  CcResult result =
      variant.zero_convergence
          ? thrifty_loop<Counters, true>(g, options, variant, final_labels)
          : thrifty_loop<Counters, false>(g, options, variant, final_labels);
  result.stats.total_ms = timer.elapsed_ms();
  return result;
}

}  // namespace

std::string ThriftyVariant::describe() const {
  std::string name = "thrifty";
  switch (plant_site) {
    case PlantSite::kMaxDegree:
      break;
    case PlantSite::kRandom:
      name += "-randplant";
      break;
    case PlantSite::kFirstVertex:
      name += "-v0plant";
      break;
  }
  if (!initial_push) name += "-noinitpush";
  if (!zero_convergence) name += "-nozeroconv";
  if (!pointer_jump) name += "-nojump";
  return name;
}

CcResult thrifty_cc_variant(const CsrGraph& graph, const CcOptions& options,
                            const ThriftyVariant& variant) {
  // An instrumented run first solves plainly to learn the final labels
  // its per-iteration convergence counts compare against.
  CcResult result;
  if (!options.instrument) {
    result = timed_solve<instrument::NullCounters>(graph, options, variant,
                                                   {});
  } else {
    const CcResult reference =
        timed_solve<instrument::NullCounters>(graph, options, variant, {});
    result = timed_solve<instrument::ActiveCounters>(
        graph, options, variant, reference.label_span());
  }
  result.stats.algorithm = variant.describe();
  return result;
}

CcResult thrifty_cc(const CsrGraph& graph, const CcOptions& options) {
  return thrifty_cc_variant(graph, options, ThriftyVariant{});
}

}  // namespace thrifty::core
