// Thin, typed wrappers around the OpenMP constructs this project uses, so
// that algorithm code reads at the level of the paper's pseudocode
// (`par_for v in V`) rather than raw pragmas.
//
// The team rule lives here and nowhere else: every parallel region takes
// `threads_for(work)` threads, where `work` counts the elements the region
// touches — n for a pass over a dense array, n + m for a sweep over
// adjacency, frontier vertices plus frontier edges for a push (Thrifty's
// pushes weight each edge by kPushEdgeWeight, see push_work).  The
// helpers below size their own teams from their loop counts; a raw
// region outside this header carries `num_threads(threads_for(work))`.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace thrifty::support {

/// Number of threads an upcoming parallel region will use.
[[nodiscard]] inline int num_threads() { return omp_get_max_threads(); }

/// Regions touching fewer elements than this run on the calling thread:
/// waking the team costs more than the work, and a team that spins at the
/// barriers of tiny regions while other processes hold the CPUs turns each
/// microsecond iteration into a time slice.
inline constexpr std::size_t kSerialCutoff = std::size_t{1} << 14;

/// Team size for a region touching `work` elements: 1 below
/// kSerialCutoff, the whole team from it on.
[[nodiscard]] inline int threads_for(std::size_t work) {
  return work < kSerialCutoff ? 1 : num_threads();
}

/// Work weight of one edge of a Thrifty push.  A push edge is an atomic
/// compare-and-swap on a label at a random address: 11.5 ns serially
/// against 1.5 ns for an edge of a pull's min-gather (R-MAT scale 16,
/// edge factor 16, the hub's neighbours, 4-vCPU VM), so it counts as 8
/// elements and a push takes the team from 2 Ki edges on.  Measured there
/// on a warm 4-thread team, a push of 2000 edges runs 2.0x faster than
/// on the calling thread, and one of 8000 edges 2.7x.
inline constexpr std::size_t kPushEdgeWeight = 8;

/// Work of a push over `vertices` frontier vertices and `edges` edges.
[[nodiscard]] inline std::size_t push_work(std::size_t vertices,
                                           std::size_t edges) {
  return vertices + kPushEdgeWeight * edges;
}

/// Calling thread's id inside a parallel region (0 outside one).
[[nodiscard]] inline int thread_id() { return omp_get_thread_num(); }

/// Parallel loop over [0, n) with static scheduling — the common case for
/// dense (pull) iterations where per-index work is roughly uniform after
/// edge-balanced partitioning.
template <typename Index, typename Body>
void parallel_for(Index n, Body&& body) {
  const int threads = threads_for(static_cast<std::size_t>(n));
#pragma omp parallel for num_threads(threads) schedule(static)
  for (Index i = 0; i < n; ++i) {
    body(i);
  }
}

/// Parallel loop with dynamic scheduling for irregular per-index work
/// (e.g. iterating vertices with skewed degrees without pre-partitioning).
template <typename Index, typename Body>
void parallel_for_dynamic(Index n, Body&& body, Index chunk = Index{1024}) {
  const int threads = threads_for(static_cast<std::size_t>(n));
#pragma omp parallel for num_threads(threads) schedule(dynamic, chunk)
  for (Index i = 0; i < n; ++i) {
    body(i);
  }
}

/// Parallel sum-reduction over [0, n).
template <typename Index, typename Body>
[[nodiscard]] std::uint64_t parallel_sum(Index n, Body&& body) {
  std::uint64_t total = 0;
  const int threads = threads_for(static_cast<std::size_t>(n));
#pragma omp parallel for num_threads(threads) schedule(static) \
    reduction(+ : total)
  for (Index i = 0; i < n; ++i) {
    total += static_cast<std::uint64_t>(body(i));
  }
  return total;
}

/// Exclusive prefix sum of `values[0, n)` written to `out[0, n]`:
/// `out[i] = sum(values[0, i))` and `out[n]` holds the grand total (the
/// CSR-offsets convention).  Blocked two-pass scan: per-thread block sums,
/// a serial scan over the (few) block totals, then per-thread local scans.
/// `values` and `out` may not alias.
template <typename Value, typename Sum>
void parallel_exclusive_scan(const Value* values, std::size_t n, Sum* out) {
  const int threads = threads_for(n);
  const auto blocks = static_cast<std::size_t>(threads);
  const std::size_t block_size = (n + blocks - 1) / blocks;
  std::vector<Sum> block_sum(blocks + 1, Sum{0});
  const auto block_range = [&](std::size_t b) {
    const std::size_t begin = std::min(b * block_size, n);
    return std::pair{begin, std::min(begin + block_size, n)};
  };
#pragma omp parallel num_threads(threads)
  {
#pragma omp for schedule(static, 1)
    for (std::size_t b = 0; b < blocks; ++b) {
      const auto [begin, end] = block_range(b);
      Sum local = 0;
      for (std::size_t i = begin; i < end; ++i) {
        local += static_cast<Sum>(values[i]);
      }
      block_sum[b + 1] = local;
    }
#pragma omp single
    {
      for (std::size_t k = 1; k <= blocks; ++k) {
        block_sum[k] += block_sum[k - 1];
      }
    }
#pragma omp for schedule(static, 1)
    for (std::size_t b = 0; b < blocks; ++b) {
      const auto [begin, end] = block_range(b);
      Sum running = block_sum[b];
      for (std::size_t i = begin; i < end; ++i) {
        out[i] = running;
        running += static_cast<Sum>(values[i]);
      }
    }
  }
  out[n] = block_sum[blocks];
}

/// Contiguous static split of [0, n) across `threads` workers: the slice
/// `[first, second)` owned by thread `t`.  Used to hand each thread one
/// dense range inside a parallel region (label copies, bitmap sweeps,
/// per-thread flattening).
[[nodiscard]] inline std::pair<std::size_t, std::size_t> thread_slice(
    std::size_t n, int t, int threads) {
  const std::size_t per = (n + static_cast<std::size_t>(threads) - 1) /
                          static_cast<std::size_t>(threads);
  const std::size_t begin = std::min(per * static_cast<std::size_t>(t), n);
  return {begin, std::min(begin + per, n)};
}

/// Runs `body(thread_id, team_size)` once on every thread of a region
/// sized for `work` elements.  Used for per-thread slices and scratch.
template <typename Body>
void parallel_region(std::size_t work, Body&& body) {
#pragma omp parallel num_threads(threads_for(work))
  {
    body(omp_get_thread_num(), omp_get_num_threads());
  }
}

/// RAII override of the OpenMP thread count, restoring the previous value.
/// Tests use this to exercise the parallel paths at several widths even on
/// a single-core host.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads)
      : previous_(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~ThreadCountGuard() { omp_set_num_threads(previous_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int previous_;
};

}  // namespace thrifty::support
