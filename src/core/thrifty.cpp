#include "core/thrifty.hpp"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <unordered_set>
#include <vector>

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

/// The k vertices receiving the smallest labels (0..k-1, in order).
std::vector<VertexId> select_plant_sites(const CsrGraph& g, PlantSite site,
                                         int count, std::uint64_t seed) {
  const VertexId n = g.num_vertices();
  const auto k = static_cast<VertexId>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(count), n));
  std::vector<VertexId> sites;
  sites.reserve(k);
  switch (site) {
    case PlantSite::kMaxDegree: {
      // Top-k by degree, ties by smaller id.  Each thread keeps the
      // top-k of its static vertex range (a sorted candidate buffer with
      // a reject-early check, so the common case is one comparison per
      // vertex); the per-thread winners are then merged under the same
      // total order.  Deterministic for every thread count, and O(n)
      // instead of the sequential partial_sort's O(n log k).
      const auto better = [&g](VertexId a, VertexId b) {
        const auto da = g.degree(a);
        const auto db = g.degree(b);
        return da != db ? da > db : a < b;
      };
      const int threads = support::num_threads();
      std::vector<std::vector<VertexId>> local(
          static_cast<std::size_t>(threads));
#pragma omp parallel num_threads(threads)
      {
        auto& mine =
            local[static_cast<std::size_t>(support::thread_id())];
#pragma omp for schedule(static) nowait
        for (VertexId v = 0; v < n; ++v) {
          if (mine.size() == k && !better(v, mine.back())) continue;
          mine.insert(
              std::upper_bound(mine.begin(), mine.end(), v, better), v);
          if (mine.size() > k) mine.pop_back();
        }
      }
      std::vector<VertexId> merged;
      for (const auto& candidates : local) {
        merged.insert(merged.end(), candidates.begin(), candidates.end());
      }
      std::sort(merged.begin(), merged.end(), better);
      merged.resize(std::min<std::size_t>(merged.size(), k));
      sites = std::move(merged);
      break;
    }
    case PlantSite::kRandom: {
      // O(k) hashed membership — the previous linear scan over the sites
      // vector made k-site selection quadratic in k.
      std::unordered_set<VertexId> chosen;
      chosen.reserve(k);
      std::uint64_t salt = 0xC0FFEE;
      while (sites.size() < k) {
        const auto v = static_cast<VertexId>(
            support::hash_mix(seed, salt++) % n);
        if (chosen.insert(v).second) sites.push_back(v);
      }
      break;
    }
    case PlantSite::kFirstVertex: {
      for (VertexId v = 0; v < k; ++v) sites.push_back(v);
      break;
    }
  }
  return sites;
}

/// Algorithm 2, templated on the counter policy and (for the hot loops)
/// on whether Zero Convergence is compiled in.  The plant site and the
/// Initial Push toggle are runtime parameters: they only affect start-up.
template <typename Counters, bool kZeroConv>
CcResult thrifty_impl(const CsrGraph& g, const CcOptions& options,
                      const ThriftyVariant& variant,
                      std::span<const Label> final_labels) {
  const VertexId n = g.num_vertices();
  const EdgeOffset m = g.num_directed_edges();
  THRIFTY_EXPECTS(variant.plant_count >= 1);
  const auto plant_count = static_cast<VertexId>(variant.plant_count);
  // Labels are v + plant_count; guard the shift against wrap-around.
  THRIFTY_EXPECTS(n < static_cast<VertexId>(-1) - plant_count);

  CcResult result;
  result.stats.algorithm = variant.describe();
  result.stats.instrumented = Counters::kEnabled;
  result.labels = make_label_array(n);
  if (n == 0) return result;
  LabelArray& labels = result.labels;

  Counters counters;
  support::Timer total_timer;

  // --- Zero Planting (Lines 3-9): labels start at v+k; the k smallest
  // labels are reserved for the plant sites — the maximum-degree
  // vertices in real Thrifty (k = 1 in the paper), almost surely hubs of
  // the giant component.
#pragma omp parallel for schedule(static)
  for (VertexId v = 0; v < n; ++v) {
    labels[v] = v + plant_count;
  }
  const std::vector<VertexId> seeds = select_plant_sites(
      g, variant.plant_site, variant.plant_count, options.seed);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    labels[seeds[i]] = static_cast<Label>(i);
  }

  // Kernel instruction-set level for the dense pull sweeps, resolved
  // once per invocation (THRIFTY_SIMD clamped to host support, scalar
  // for id spaces beyond the 32-bit gather range).
  const support::SimdLevel simd_level =
      support::simd::gather_level(support::simd::effective_level(), n);

  const int threads = support::num_threads();
  frontier::LocalWorklists current(n, threads);
  frontier::LocalWorklists next(n, threads);
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
    IterationRecord rec;
    rec.index = 0;
    rec.direction = Direction::kInitialPush;
    rec.active_vertices = seeds.size();
    EdgeOffset seed_degree_sum = 0;
    for (const VertexId s : seeds) seed_degree_sum += g.degree(s);
    rec.density =
        frontier::frontier_density(seeds.size(), seed_degree_sum, m);
    const auto counters_before = counters.total();
    support::Timer iteration_timer;

    for (std::size_t seed_index = 0; seed_index < seeds.size();
         ++seed_index) {
      const auto seed_label = static_cast<Label>(seed_index);
      const auto seed_neighbors = g.neighbors(seeds[seed_index]);
#pragma omp parallel
      {
        const int t = omp_get_thread_num();
#pragma omp for schedule(static) nowait
        for (std::size_t i = 0; i < seed_neighbors.size(); ++i) {
          if (i + support::kPrefetchDistance < seed_neighbors.size()) {
            support::prefetch_write(
                &labels[seed_neighbors[i + support::kPrefetchDistance]]);
          }
          const VertexId u = seed_neighbors[i];
          counters.edge();
          counters.cas_attempt();
          if (atomic_min(labels[u], seed_label)) {
            counters.cas_success();
            counters.label_write();
            if (next.push(t, u, g.degree(u))) counters.frontier_push();
          }
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
    // Ablation: DO-LP-style eager bootstrap — everything active.
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
      // the edge-balanced partitions with the paper's work-stealing
      // schedule (§V-A).  Dense pulls use a count-only frontier (§IV-E);
      // the Pull-Frontier variant additionally materialises the detailed
      // frontier just before switching to push.
      const bool build_frontier = sparse;
      rec.direction = build_frontier ? Direction::kPullFrontier
                                     : Direction::kPull;
      std::atomic<std::uint64_t> changes_atomic{0};
      std::atomic<std::uint64_t> changed_edges_atomic{0};
      scheduler.for_each_partition(
          [&](int t, const partition::VertexRange& range) {
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
              if (new_label < lv) {
                counters.label_write();
                store_label(labels[v], new_label);
                ++local_changes;
                local_edges += g.degree(v);
                if (build_frontier) {
                  if (next.push(t, v, g.degree(v))) {
                    counters.frontier_push();
                  }
                }
              }
            }
            changes_atomic.fetch_add(local_changes,
                                     std::memory_order_relaxed);
            changed_edges_atomic.fetch_add(local_edges,
                                           std::memory_order_relaxed);
          });
      changes = changes_atomic.load();
      changed_edges = changed_edges_atomic.load();
      current.clear();
      if (build_frontier) {
        current.swap(next);
        have_frontier = true;
      } else {
        have_frontier = false;
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

  result.stats.total_ms = total_timer.elapsed_ms();
  result.stats.num_iterations = iteration;  // Initial Push counted (§V-C)
  result.stats.events = counters.total();
  return result;
}

template <typename Counters>
CcResult dispatch_zero_conv(const CsrGraph& g, const CcOptions& options,
                            const ThriftyVariant& variant,
                            std::span<const Label> final_labels) {
  if (variant.zero_convergence) {
    return thrifty_impl<Counters, true>(g, options, variant, final_labels);
  }
  return thrifty_impl<Counters, false>(g, options, variant, final_labels);
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
  if (plant_count > 1) name += "-plant" + std::to_string(plant_count);
  return name;
}

CcResult thrifty_cc_variant(const CsrGraph& graph, const CcOptions& options,
                            const ThriftyVariant& variant) {
  if (!options.instrument) {
    return dispatch_zero_conv<instrument::NullCounters>(graph, options,
                                                        variant, {});
  }
  CcOptions plain = options;
  plain.instrument = false;
  const CcResult reference = dispatch_zero_conv<instrument::NullCounters>(
      graph, plain, variant, {});
  return dispatch_zero_conv<instrument::ActiveCounters>(
      graph, options, variant, reference.label_span());
}

CcResult thrifty_cc(const CsrGraph& graph, const CcOptions& options) {
  return thrifty_cc_variant(graph, options, ThriftyVariant{});
}

}  // namespace thrifty::core
