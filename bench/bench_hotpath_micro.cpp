// Microbenchmarks of the hot-path optimisations, with the previous
// implementations kept here as in-tree baselines:
//   * CSR build: per-thread counting sort vs the atomic-degree two-pass
//     scatter (the previous builder, preserved verbatim below),
//   * snapshot load: zero-copy mmap vs the copying stream loader,
//   * CSR relabel: parallel counting-sort apply_permutation vs the
//     previous serial scatter + per-vertex std::sort rebuild,
//   * pull sweep locality: the same min-gather sweep on original vs
//     degree-reordered vertex ids (identical work, denser gathers),
//   * plan-driven solves on the star-dominated graph: the static
//     pullf+push script vs the adaptive auto plan, and
//     barrier-synchronous pull sweeps vs the barrier-free async drain
//     (fixed:async), both cross-checked before timing.
// `--json <path>` dumps the numbers for scripts/bench_compare.py.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common/harness.hpp"
#include "bench_common/json_report.hpp"
#include "bench_common/table_printer.hpp"
#include "core/cc_common.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "io/binary_io.hpp"
#include "io/mmap_io.hpp"
#include "plan/plan.hpp"
#include "plan/solve.hpp"
#include "reorder/reorder.hpp"
#include "serve/service.hpp"
#include "support/env.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/simd.hpp"
#include "support/timer.hpp"
#include "support/uninit_vector.hpp"

namespace {

using namespace thrifty;  // NOLINT(google-build-using-namespace)
using graph::CsrGraph;
using graph::Edge;
using graph::EdgeList;
using graph::EdgeOffset;
using graph::Label;
using graph::VertexId;
using support::UninitVector;

// ---------------------------------------------------------------------------
// Baseline 1: the previous builder — atomic degree counting and an atomic
// per-vertex cursor in the scatter, so every edge of a hub serialises on
// one cache line.  Default-options path only (drop self loops, dedup,
// compact), which is what every benchmark graph uses.
CsrGraph build_csr_atomic_baseline(const EdgeList& edges, VertexId n) {
  const std::size_t m = edges.size();
  std::vector<std::atomic<EdgeOffset>> degrees(n);
  support::parallel_for(n, [&](VertexId v) {
    degrees[v].store(0, std::memory_order_relaxed);
  });
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < m; ++i) {
    const Edge e = edges[i];
    if (e.u == e.v) continue;
    degrees[e.u].fetch_add(1, std::memory_order_relaxed);
    degrees[e.v].fetch_add(1, std::memory_order_relaxed);
  }
  UninitVector<EdgeOffset> offsets(static_cast<std::size_t>(n) + 1);
  EdgeOffset running = 0;
  for (VertexId v = 0; v < n; ++v) {
    offsets[v] = running;
    running += degrees[v].load(std::memory_order_relaxed);
  }
  offsets[n] = running;
  UninitVector<VertexId> neighbors(running);
  support::parallel_for(n, [&](VertexId v) {
    degrees[v].store(0, std::memory_order_relaxed);
  });
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < m; ++i) {
    const Edge e = edges[i];
    if (e.u == e.v) continue;
    neighbors[offsets[e.u] +
              degrees[e.u].fetch_add(1, std::memory_order_relaxed)] = e.v;
    neighbors[offsets[e.v] +
              degrees[e.v].fetch_add(1, std::memory_order_relaxed)] = e.u;
  }
  UninitVector<EdgeOffset> final_degree(n);
  support::parallel_for_dynamic(n, [&](VertexId v) {
    VertexId* first = neighbors.data() + offsets[v];
    VertexId* last = neighbors.data() + offsets[v + 1];
    std::sort(first, last);
    last = std::unique(first, last);
    final_degree[v] = static_cast<EdgeOffset>(last - first);
  });
  std::vector<VertexId> old_to_new(n, static_cast<VertexId>(-1));
  VertexId new_n = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (final_degree[v] > 0) old_to_new[v] = new_n++;
  }
  UninitVector<EdgeOffset> new_offsets(static_cast<std::size_t>(new_n) + 1);
  UninitVector<EdgeOffset> src_start(new_n);
  {
    EdgeOffset out_edges = 0;
    VertexId out = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (final_degree[v] == 0) continue;
      new_offsets[out] = out_edges;
      src_start[out] = offsets[v];
      out_edges += final_degree[v];
      ++out;
    }
    new_offsets[new_n] = out_edges;
  }
  UninitVector<VertexId> new_neighbors(new_offsets.back());
  support::parallel_for_dynamic(new_n, [&](VertexId nv) {
    const EdgeOffset count = new_offsets[nv + 1] - new_offsets[nv];
    const VertexId* src = neighbors.data() + src_start[nv];
    VertexId* dst = new_neighbors.data() + new_offsets[nv];
    for (EdgeOffset k = 0; k < count; ++k) dst[k] = old_to_new[src[k]];
  });
  return CsrGraph(std::move(new_offsets), std::move(new_neighbors));
}

// ---------------------------------------------------------------------------
// Baseline 2: the previous apply_permutation — serial degree scatter,
// serial relabelled-edge copy, then one std::sort per adjacency list
// (preserved verbatim from the pre-reorder-subsystem stub).
CsrGraph apply_permutation_sort_baseline(const CsrGraph& g,
                                         const reorder::Permutation& perm) {
  const VertexId n = g.num_vertices();
  const EdgeOffset m = g.num_directed_edges();
  UninitVector<EdgeOffset> offsets(static_cast<std::size_t>(n) + 1);
  {
    std::vector<EdgeOffset> degree(n);
    for (VertexId v = 0; v < n; ++v) degree[perm[v]] = g.degree(v);
    EdgeOffset running = 0;
    for (VertexId v = 0; v < n; ++v) {
      offsets[v] = running;
      running += degree[v];
    }
    offsets[n] = running;
  }
  UninitVector<VertexId> neighbors(m);
  for (VertexId v = 0; v < n; ++v) {
    EdgeOffset out = offsets[perm[v]];
    for (const VertexId u : g.neighbors(v)) {
      neighbors[out++] = perm[u];
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    std::sort(neighbors.data() + offsets[v],
              neighbors.data() + offsets[v + 1]);
  }
  return CsrGraph(std::move(offsets), std::move(neighbors));
}

// ---------------------------------------------------------------------------

int scale_to_rmat_scale(support::Scale scale) {
  switch (scale) {
    case support::Scale::kTiny: return 12;
    case support::Scale::kLarge: return 16;
    case support::Scale::kSmall: break;
  }
  return 14;
}

/// R-MAT plus a full star overlaid on the same id space: a graph whose
/// biggest hub owns >1/3 of all directed edges.
EdgeList star_dominated_edges(int rmat_scale) {
  gen::RmatParams params;
  params.scale = rmat_scale;
  params.edge_factor = 8;
  EdgeList edges = gen::rmat_edges(params);
  const auto n = static_cast<VertexId>(VertexId{1} << rmat_scale);
  const EdgeList star = gen::star_edges(n, 0);
  edges.insert(edges.end(), star.begin(), star.end());
  return edges;
}

template <typename Fn>
double min_time_ms(int trials, Fn&& fn) {
  double best = 0.0;
  fn();  // warmup
  for (int t = 0; t < trials; ++t) {
    support::Timer timer;
    fn();
    const double ms = timer.elapsed_ms();
    if (t == 0 || ms < best) best = ms;
  }
  return best;
}

void expect_same_graph(const CsrGraph& a, const CsrGraph& b) {
  if (a.num_vertices() != b.num_vertices() ||
      a.num_directed_edges() != b.num_directed_edges() ||
      !std::equal(a.offsets().begin(), a.offsets().end(),
                  b.offsets().begin()) ||
      !std::equal(a.neighbor_array().begin(), a.neighbor_array().end(),
                  b.neighbor_array().begin())) {
    std::fprintf(stderr, "FATAL: builders disagree — refusing to time\n");
    std::abort();
  }
}

int run(int argc, char** argv) {
  const auto scale = support::bench_scale();
  const int trials = bench::default_trials();
  bench::print_banner(
      std::string("Hot-path microbenchmarks (scale: ") +
      support::to_string(scale) + ", threads: " +
      std::to_string(support::num_threads()) + ")");

  bench::JsonReport report;
  bench::TablePrinter table(
      {"Kernel", "Baseline (ms)", "Optimized (ms)", "Speedup"});

  const int rmat_scale = scale_to_rmat_scale(scale);
  const EdgeList edges = star_dominated_edges(rmat_scale);
  const auto id_space = static_cast<VertexId>(VertexId{1} << rmat_scale);

  // --- CSR build: counting sort vs atomic scatter, identical output.
  {
    const CsrGraph from_baseline =
        build_csr_atomic_baseline(edges, id_space);
    const CsrGraph from_optimized = graph::build_csr(edges, id_space).graph;
    expect_same_graph(from_baseline, from_optimized);
    const double baseline_ms = min_time_ms(trials, [&] {
      const CsrGraph g = build_csr_atomic_baseline(edges, id_space);
      if (g.num_vertices() == 0) std::abort();
    });
    const double optimized_ms = min_time_ms(trials, [&] {
      const CsrGraph g = graph::build_csr(edges, id_space).graph;
      if (g.num_vertices() == 0) std::abort();
    });
    report.add_comparison("csr_build_star_rmat", baseline_ms, optimized_ms);
    table.add_row({"csr_build_star_rmat",
                   bench::TablePrinter::fmt_ms(baseline_ms),
                   bench::TablePrinter::fmt_ms(optimized_ms),
                   bench::TablePrinter::fmt_ratio(baseline_ms /
                                                  optimized_ms)});
  }

  // --- Snapshot load: stream loader (read + copy + validate) vs the
  // zero-copy mmap loader (map + validate).  Same file, same
  // validation; the delta is the payload copy.
  {
    const CsrGraph g = graph::build_csr(edges, id_space).graph;
    const std::filesystem::path snapshot =
        std::filesystem::temp_directory_path() /
        ("thrifty_bench_load_" + std::to_string(rmat_scale) + ".bin");
    io::write_csr_file(snapshot.string(), g);
    const double stream_ms = min_time_ms(trials, [&] {
      const CsrGraph loaded = io::read_csr_file(snapshot.string());
      if (loaded.num_vertices() != g.num_vertices()) std::abort();
    });
    const double mmap_ms = min_time_ms(trials, [&] {
      const CsrGraph loaded = io::read_csr_mmap(snapshot.string());
      if (loaded.num_vertices() != g.num_vertices()) std::abort();
    });
    std::error_code ec;
    std::filesystem::remove(snapshot, ec);
    report.add_comparison("csr_load_snapshot", stream_ms, mmap_ms);
    table.add_row({"csr_load_snapshot (stream/mmap)",
                   bench::TablePrinter::fmt_ms(stream_ms),
                   bench::TablePrinter::fmt_ms(mmap_ms),
                   bench::TablePrinter::fmt_ratio(stream_ms / mmap_ms)});
  }

  // --- Dense kernels of the SIMD layer: forced scalar vs the widest
  // level the host supports (equal on non-x86 hosts, where the rows
  // simply read 1.0x).  Results are cross-checked before timing, so the
  // numbers compare bit-identical computations.
  {
    using support::SimdLevel;
    namespace simd = support::simd;
    const SimdLevel scalar = SimdLevel::kScalar;
    const SimdLevel vector = simd::effective_level();
    const auto level_pair = std::string(" (") +
                            support::to_string(scalar) + "/" +
                            support::to_string(vector) + ")";
    const auto add_kernel_row = [&](const char* name, double scalar_ms,
                                    double vector_ms) {
      report.add_comparison(name, scalar_ms, vector_ms);
      table.add_row({name + level_pair,
                     bench::TablePrinter::fmt_ms(scalar_ms),
                     bench::TablePrinter::fmt_ms(vector_ms),
                     bench::TablePrinter::fmt_ratio(scalar_ms /
                                                    vector_ms)});
    };
    const auto expect_equal_u64 = [](const char* name, std::uint64_t a,
                                     std::uint64_t b) {
      if (a != b) {
        std::fprintf(stderr,
                     "FATAL: %s kernel variants disagree (%llu vs %llu)\n",
                     name, static_cast<unsigned long long>(a),
                     static_cast<unsigned long long>(b));
        std::abort();
      }
    };
    support::Xoshiro256StarStar rng(0xbe9c4);

    // Pull-mode min-label scan over the star-dominated graph's real
    // adjacency structure (the thrifty/dolp inner loop).
    {
      const CsrGraph g = graph::build_csr(edges, id_space).graph;
      std::vector<std::uint32_t> labels(g.num_vertices());
      for (auto& l : labels) {
        l = static_cast<std::uint32_t>(rng.next_below(g.num_vertices()));
      }
      const auto pull_checksum = [&](SimdLevel level) {
        std::uint64_t acc = 0;
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          const auto nbrs = g.neighbors(v);
          acc += simd::min_gather_u32(labels.data(), nbrs.data(),
                                      nbrs.size(), labels[v],
                                      /*stop_at_zero=*/false, level);
        }
        return acc;
      };
      expect_equal_u64("pull_min_label", pull_checksum(scalar),
                       pull_checksum(vector));
      std::uint64_t sink = 0;
      const double scalar_ms =
          min_time_ms(trials, [&] { sink += pull_checksum(scalar); });
      const double vector_ms =
          min_time_ms(trials, [&] { sink += pull_checksum(vector); });
      if (sink == 1) std::abort();  // keep the checksums live
      add_kernel_row("pull_min_label", scalar_ms, vector_ms);
    }

    // Convergence sweep (count_equal_labels) on label arrays that agree
    // on roughly half their entries.
    const std::size_t sweep = std::size_t{1} << (rmat_scale + 6);
    {
      std::vector<std::uint32_t> a(sweep);
      std::vector<std::uint32_t> b(sweep);
      for (std::size_t i = 0; i < sweep; ++i) {
        a[i] = static_cast<std::uint32_t>(rng.next_below(1u << 20));
        b[i] = (i % 2 == 0) ? a[i]
                            : static_cast<std::uint32_t>(
                                  rng.next_below(1u << 20));
      }
      expect_equal_u64(
          "converged_count",
          simd::count_equal_u32(a.data(), b.data(), sweep, scalar),
          simd::count_equal_u32(a.data(), b.data(), sweep, vector));
      std::uint64_t sink = 0;
      const double scalar_ms = min_time_ms(trials, [&] {
        sink += simd::count_equal_u32(a.data(), b.data(), sweep, scalar);
      });
      const double vector_ms = min_time_ms(trials, [&] {
        sink += simd::count_equal_u32(a.data(), b.data(), sweep, vector);
      });
      if (sink == 1) std::abort();
      add_kernel_row("converged_count", scalar_ms, vector_ms);
    }

    // Bitmap::count word scan.
    {
      const std::size_t words = sweep / 8;
      std::vector<std::uint64_t> bits(words);
      for (auto& w : bits) w = rng.next_below(~0ull);
      expect_equal_u64("bitmap_popcount",
                       simd::popcount_u64(bits.data(), words, scalar),
                       simd::popcount_u64(bits.data(), words, vector));
      std::uint64_t sink = 0;
      const double scalar_ms = min_time_ms(trials, [&] {
        sink += simd::popcount_u64(bits.data(), words, scalar);
      });
      const double vector_ms = min_time_ms(trials, [&] {
        sink += simd::popcount_u64(bits.data(), words, vector);
      });
      if (sink == 1) std::abort();
      add_kernel_row("bitmap_popcount", scalar_ms, vector_ms);
    }

    // Grandparent-shortcut flatten of a random union-find forest (the
    // FastSV / Shiloach-Vishkin shortcut phase).  Each trial pays one
    // copy of the unflattened forest at the same level, so the delta is
    // the flatten itself.
    {
      std::vector<std::uint32_t> forest(sweep);
      for (std::size_t v = 0; v < sweep; ++v) {
        forest[v] = static_cast<std::uint32_t>(rng.next_below(v + 1));
      }
      std::vector<std::uint32_t> work_a(sweep);
      std::vector<std::uint32_t> work_b(sweep);
      simd::copy_u32(work_a.data(), forest.data(), sweep, scalar);
      simd::copy_u32(work_b.data(), forest.data(), sweep, vector);
      (void)simd::flatten_u32(work_a.data(), 0, sweep, scalar);
      (void)simd::flatten_u32(work_b.data(), 0, sweep, vector);
      if (work_a != work_b) {
        std::fprintf(stderr,
                     "FATAL: shortcut_flatten kernel variants disagree\n");
        std::abort();
      }
      const auto flatten_at = [&](std::vector<std::uint32_t>& work,
                                  SimdLevel level) {
        simd::copy_u32(work.data(), forest.data(), sweep, level);
        return simd::flatten_u32(work.data(), 0, sweep, level);
      };
      std::uint64_t sink = 0;
      const double scalar_ms = min_time_ms(
          trials, [&] { sink += flatten_at(work_a, scalar) ? 1 : 2; });
      const double vector_ms = min_time_ms(
          trials, [&] { sink += flatten_at(work_b, vector) ? 1 : 2; });
      if (sink == 1) std::abort();
      add_kernel_row("shortcut_flatten", scalar_ms, vector_ms);
    }
  }

  // --- CSR relabel: the reorder subsystem's counting-sort rebuild vs
  // the previous serial scatter + per-vertex std::sort.  Identical
  // output (cross-checked), same degree-descending permutation.
  {
    const CsrGraph g = graph::build_csr(edges, id_space).graph;
    const reorder::Permutation perm = reorder::degree_descending_order(g);
    expect_same_graph(apply_permutation_sort_baseline(g, perm),
                      reorder::apply_permutation(g, perm));
    const double baseline_ms = min_time_ms(trials, [&] {
      const CsrGraph r = apply_permutation_sort_baseline(g, perm);
      if (r.num_vertices() == 0) std::abort();
    });
    const double optimized_ms = min_time_ms(trials, [&] {
      const CsrGraph r = reorder::apply_permutation(g, perm);
      if (r.num_vertices() == 0) std::abort();
    });
    report.add_comparison("reorder_apply", baseline_ms, optimized_ms);
    table.add_row({"reorder_apply (sort/counting)",
                   bench::TablePrinter::fmt_ms(baseline_ms),
                   bench::TablePrinter::fmt_ms(optimized_ms),
                   bench::TablePrinter::fmt_ratio(baseline_ms /
                                                  optimized_ms)});
  }

  // --- Pull-sweep gather locality: the identical min-gather sweep (same
  // SIMD level, same per-vertex work) over original ids vs the
  // degree-reordered graph.  Labels travel with the permutation, so
  // per-vertex results are a permutation of each other and the summed
  // checksums must match — the measured delta is purely neighbour-id
  // locality.
  {
    namespace simd = support::simd;
    const support::SimdLevel level = simd::effective_level();
    const CsrGraph g = graph::build_csr(edges, id_space).graph;
    const reorder::Permutation perm = reorder::degree_descending_order(g);
    const CsrGraph reordered = reorder::apply_permutation(g, perm);
    support::Xoshiro256StarStar rng(0x5eed);
    std::vector<std::uint32_t> labels(g.num_vertices());
    for (auto& l : labels) {
      l = static_cast<std::uint32_t>(rng.next_below(g.num_vertices()));
    }
    std::vector<std::uint32_t> labels_reordered(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      labels_reordered[perm[v]] = labels[v];
    }
    const auto pull_checksum = [&](const CsrGraph& graph,
                                   const std::vector<std::uint32_t>& ls) {
      std::uint64_t acc = 0;
      for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        const auto nbrs = graph.neighbors(v);
        acc += simd::min_gather_u32(ls.data(), nbrs.data(), nbrs.size(),
                                    ls[v], /*stop_at_zero=*/false, level);
      }
      return acc;
    };
    const std::uint64_t original_sum = pull_checksum(g, labels);
    if (original_sum != pull_checksum(reordered, labels_reordered)) {
      std::fprintf(stderr,
                   "FATAL: reordered pull sweep changed the checksum\n");
      std::abort();
    }
    std::uint64_t sink = 0;
    const double baseline_ms =
        min_time_ms(trials, [&] { sink += pull_checksum(g, labels); });
    const double optimized_ms = min_time_ms(
        trials, [&] { sink += pull_checksum(reordered, labels_reordered); });
    if (sink == 1) std::abort();
    report.add_comparison("pull_sweep_reordered", baseline_ms,
                          optimized_ms);
    table.add_row({"pull_sweep_reordered (orig/degree)",
                   bench::TablePrinter::fmt_ms(baseline_ms),
                   bench::TablePrinter::fmt_ms(optimized_ms),
                   bench::TablePrinter::fmt_ratio(baseline_ms /
                                                  optimized_ms)});
  }

  // --- Adaptive planner on the star-dominated graph: the
  // direction-naive static frontier script (bootstrap pull, then push
  // every iteration — the classic frontier LP shape) vs the auto plan's
  // density switching + sampled-giant cutover.  Partitions are
  // cross-checked before timing.
  {
    const CsrGraph g = graph::build_csr(edges, id_space).graph;
    const core::CcOptions cc_options;
    const plan::PlanSpec fixed = plan::parse_plan_spec("fixed:pullf,push");
    const plan::PlanSpec automatic = plan::parse_plan_spec("auto");
    const plan::PlanResult from_fixed =
        plan::solve_with_plan(g, cc_options, fixed);
    const plan::PlanResult from_auto =
        plan::solve_with_plan(g, cc_options, automatic);
    if (!core::same_partition(from_fixed.result.label_span(),
                              from_auto.result.label_span())) {
      std::fprintf(stderr, "FATAL: plan paths disagree — refusing to time\n");
      std::abort();
    }
    const double baseline_ms = min_time_ms(trials, [&] {
      (void)plan::solve_with_plan(g, cc_options, fixed);
    });
    const double optimized_ms = min_time_ms(trials, [&] {
      (void)plan::solve_with_plan(g, cc_options, automatic);
    });
    report.add_comparison("adaptive_plan_e2e", baseline_ms, optimized_ms);
    table.add_row({"adaptive_plan_e2e (pullf+push/auto)",
                   bench::TablePrinter::fmt_ms(baseline_ms),
                   bench::TablePrinter::fmt_ms(optimized_ms),
                   bench::TablePrinter::fmt_ratio(baseline_ms /
                                                  optimized_ms)});
  }

  // --- Barrier-free async drain on the plain skewed R-MAT (no
  // overlaid star — the moderate-skew band the adaptive planner routes
  // to async, not the hub-degenerate shape above): full
  // barrier-synchronous pull sweeps to the fixed point vs a single
  // fixed:async step (CAS-min publish, dirty-flag work stealing, no
  // barriers).  Partitions are cross-checked before timing — the async
  // interior is schedule-dependent, the fixed point is not.
  {
    gen::RmatParams params;
    params.scale = rmat_scale;
    params.edge_factor = 8;
    const CsrGraph g =
        graph::build_csr(gen::rmat_edges(params), id_space).graph;
    const core::CcOptions cc_options;
    const plan::PlanSpec pull = plan::parse_plan_spec("fixed:pull");
    const plan::PlanSpec async = plan::parse_plan_spec("fixed:async");
    const plan::PlanResult from_pull =
        plan::solve_with_plan(g, cc_options, pull);
    const plan::PlanResult from_async =
        plan::solve_with_plan(g, cc_options, async);
    if (!core::same_partition(from_pull.result.label_span(),
                              from_async.result.label_span())) {
      std::fprintf(stderr, "FATAL: async solve diverged — refusing to time\n");
      std::abort();
    }
    const double baseline_ms = min_time_ms(trials, [&] {
      (void)plan::solve_with_plan(g, cc_options, pull);
    });
    const double optimized_ms = min_time_ms(trials, [&] {
      (void)plan::solve_with_plan(g, cc_options, async);
    });
    report.add_comparison("async_solve_e2e", baseline_ms, optimized_ms);
    table.add_row({"async_solve_e2e (pull/async)",
                   bench::TablePrinter::fmt_ms(baseline_ms),
                   bench::TablePrinter::fmt_ms(optimized_ms),
                   bench::TablePrinter::fmt_ratio(baseline_ms /
                                                  optimized_ms)});
  }

  // --- Serving layer.  serve_query: the same query stream answered with
  // one snapshot pin per query (the naive client) vs one pinned snapshot
  // for the whole burst.  serve_ingest_batch: the stream absorbed by
  // concurrent union-find hooks vs a full static re-solve after every
  // batch (staleness_edges=1, the pre-service behaviour).
  {
    graph::BuildOptions keep;
    keep.remove_zero_degree_vertices = false;  // stable id space
    const std::size_t base_count = edges.size() * 6 / 10;
    const EdgeList base_edges(
        edges.begin(), edges.begin() + static_cast<std::ptrdiff_t>(base_count));
    const CsrGraph base = graph::build_csr(base_edges, id_space, keep).graph;

    {
      serve::ConnectivityService service(
          graph::build_csr(edges, id_space, keep).graph);
      constexpr std::uint64_t kQueries = 1u << 16;
      const auto query_burst = [&](auto&& same_component) {
        std::uint64_t state = 0x5eed5eedull;
        std::uint64_t hits = 0;
        for (std::uint64_t q = 0; q < kQueries; ++q) {
          state = support::hash_mix(state, q);
          const auto u = static_cast<VertexId>(state % id_space);
          const auto v = static_cast<VertexId>((state >> 17) % id_space);
          hits += same_component(u, v) ? 1 : 0;
        }
        return hits;
      };
      std::uint64_t per_query_hits = 0;
      std::uint64_t pinned_hits = 0;
      const double baseline_ms = min_time_ms(trials, [&] {
        per_query_hits = query_burst([&](VertexId u, VertexId v) {
          return service.same_component(u, v);  // pins per query
        });
      });
      const double optimized_ms = min_time_ms(trials, [&] {
        const serve::SnapshotPtr snapshot = service.snapshot();
        pinned_hits = query_burst([&](VertexId u, VertexId v) {
          return snapshot->same_component(u, v);
        });
      });
      if (per_query_hits != pinned_hits) {
        std::fprintf(stderr, "FATAL: query paths disagree\n");
        std::abort();
      }
      report.add_comparison("serve_query", baseline_ms, optimized_ms);
      table.add_row({"serve_query (pin-per-query/pinned)",
                     bench::TablePrinter::fmt_ms(baseline_ms),
                     bench::TablePrinter::fmt_ms(optimized_ms),
                     bench::TablePrinter::fmt_ratio(baseline_ms /
                                                    optimized_ms)});
    }

    {
      const std::span<const Edge> stream{edges.data() + base_count,
                                         edges.size() - base_count};
      constexpr std::size_t kBatch = 2048;
      const auto ingest_stream = [&](const serve::ServeOptions& options) {
        serve::ConnectivityService service(CsrGraph(base), options);
        for (std::size_t i = 0; i < stream.size(); i += kBatch) {
          (void)service.ingest_batch(
              stream.subspan(i, std::min(kBatch, stream.size() - i)));
        }
        const serve::SnapshotPtr snapshot = service.snapshot();
        return std::vector<Label>(snapshot->labels().begin(),
                                  snapshot->labels().end());
      };
      serve::ServeOptions resolve_each_batch;
      resolve_each_batch.staleness_edges = 1;
      serve::ServeOptions hooks_only;
      hooks_only.auto_recompact = false;
      std::vector<Label> resolve_labels;
      std::vector<Label> hook_labels;
      const double baseline_ms = min_time_ms(
          trials, [&] { resolve_labels = ingest_stream(resolve_each_batch); });
      const double optimized_ms = min_time_ms(
          trials, [&] { hook_labels = ingest_stream(hooks_only); });
      if (!core::same_partition(resolve_labels, hook_labels)) {
        std::fprintf(stderr, "FATAL: ingest paths disagree\n");
        std::abort();
      }
      report.add_comparison("serve_ingest_batch", baseline_ms, optimized_ms);
      table.add_row({"serve_ingest_batch (re-solve/hooks)",
                     bench::TablePrinter::fmt_ms(baseline_ms),
                     bench::TablePrinter::fmt_ms(optimized_ms),
                     bench::TablePrinter::fmt_ratio(baseline_ms /
                                                    optimized_ms)});
    }
  }

  table.print();

  const std::string json_path = bench::json_path_from_args(argc, argv);
  if (!json_path.empty() && !report.write_file(json_path)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
