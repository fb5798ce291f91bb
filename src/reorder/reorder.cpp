#include "reorder/reorder.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <stdexcept>
#include <string>

#include "support/assert.hpp"
#include "support/math.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/uninit_vector.hpp"

namespace thrifty::reorder {

using graph::CsrGraph;
using graph::EdgeOffset;
using graph::VertexId;
using support::UninitVector;

const char* to_string(OrderKind kind) {
  switch (kind) {
    case OrderKind::kNone: return "none";
    case OrderKind::kDegree: return "degree";
    case OrderKind::kDegreeAscending: return "degree-asc";
    case OrderKind::kHubCluster: return "hub-cluster";
    case OrderKind::kWindow: return "window";
    case OrderKind::kBfs: return "bfs";
    case OrderKind::kRandom: return "random";
  }
  return "none";
}

std::optional<OrderKind> parse_order_kind(std::string_view text) {
  if (text == "none") return OrderKind::kNone;
  if (text == "degree") return OrderKind::kDegree;
  if (text == "degree-asc") return OrderKind::kDegreeAscending;
  if (text == "hub-cluster") return OrderKind::kHubCluster;
  if (text == "window") return OrderKind::kWindow;
  if (text == "bfs") return OrderKind::kBfs;
  if (text == "random") return OrderKind::kRandom;
  return std::nullopt;
}

std::vector<OrderKind> all_order_kinds() {
  return {OrderKind::kNone,       OrderKind::kDegree,
          OrderKind::kDegreeAscending, OrderKind::kHubCluster,
          OrderKind::kWindow,     OrderKind::kBfs,
          OrderKind::kRandom};
}

Permutation identity_order(VertexId n) {
  Permutation perm(n);
  support::parallel_for(n, [&](VertexId v) { perm[v] = v; });
  return perm;
}

namespace {

/// Sentinel key: the vertex keeps whatever rank it already has in `perm`.
constexpr std::size_t kSkipKey = ~std::size_t{0};

/// Stable parallel counting sort of vertices into ranks: every vertex v
/// with key(v) != kSkipKey receives `perm[v] = base + rank`, ranks
/// ordered by (key, old id), keys in [0, num_buckets).  The PR 1 builder
/// machinery applied to vertices instead of edges: per-thread-block
/// histograms, a scan over bucket totals, then private per-(block,
/// bucket) write cursors — zero atomic read-modify-write operations, and
/// the result is independent of the thread count because blocks are
/// contiguous old-id ranges processed in ascending order.
template <typename KeyFn>
void counting_sort_into(VertexId n, std::size_t num_buckets, VertexId base,
                        const KeyFn& key, Permutation& perm) {
  const int threads = support::num_threads();
  const auto blocks = static_cast<std::size_t>(threads);
  const std::size_t vertices = n;
  const std::size_t block_size = (vertices + blocks - 1) / blocks;
  const auto block_begin = [&](std::size_t t) {
    return std::min(t * block_size, vertices);
  };
  const auto cells = support::checked_mul(blocks, num_buckets);
  THRIFTY_EXPECTS(cells.has_value());

  // Counts fit VertexId: every bucket holds at most n < 2^32 vertices.
  UninitVector<VertexId> counts(*cells);
#pragma omp parallel num_threads(threads)
  {
#pragma omp for schedule(static, 1)
    for (std::size_t t = 0; t < blocks; ++t) {
      VertexId* local = counts.data() + t * num_buckets;
      std::fill(local, local + num_buckets, VertexId{0});
      for (std::size_t v = block_begin(t); v < block_begin(t + 1); ++v) {
        const std::size_t k = key(static_cast<VertexId>(v));
        if (k == kSkipKey) continue;
        THRIFTY_ASSERT(k < num_buckets);
        ++local[k];
      }
    }
  }

  // Bucket totals, an exclusive scan over buckets, then per-(block,
  // bucket) cursor conversion: block t's first rank for bucket b sits
  // after every lower block's entries for b.
  UninitVector<VertexId> totals(num_buckets);
  support::parallel_for(num_buckets, [&](std::size_t b) {
    VertexId total = 0;
    for (std::size_t t = 0; t < blocks; ++t) {
      total += counts[t * num_buckets + b];
    }
    totals[b] = total;
  });
  UninitVector<VertexId> starts(num_buckets + 1);
  support::parallel_exclusive_scan(totals.data(), num_buckets,
                                   starts.data());
  support::parallel_for(num_buckets, [&](std::size_t b) {
    VertexId running = base + starts[b];
    for (std::size_t t = 0; t < blocks; ++t) {
      const VertexId c = counts[t * num_buckets + b];
      counts[t * num_buckets + b] = running;
      running += c;
    }
  });

#pragma omp parallel num_threads(threads)
  {
#pragma omp for schedule(static, 1)
    for (std::size_t t = 0; t < blocks; ++t) {
      VertexId* cursor = counts.data() + t * num_buckets;
      for (std::size_t v = block_begin(t); v < block_begin(t + 1); ++v) {
        const std::size_t k = key(static_cast<VertexId>(v));
        if (k == kSkipKey) continue;
        perm[v] = cursor[k]++;
      }
    }
  }
}

Permutation degree_order(const CsrGraph& graph, bool descending) {
  const VertexId n = graph.num_vertices();
  Permutation perm(n);
  if (n == 0) return perm;
  EdgeOffset max_degree = 0;
#pragma omp parallel for schedule(static) reduction(max : max_degree)
  for (VertexId v = 0; v < n; ++v) {
    max_degree = std::max(max_degree, graph.degree(v));
  }
  const auto buckets = static_cast<std::size_t>(max_degree) + 1;
  counting_sort_into(
      n, buckets, /*base=*/0,
      [&](VertexId v) {
        const auto d = static_cast<std::size_t>(graph.degree(v));
        return descending ? static_cast<std::size_t>(max_degree) - d : d;
      },
      perm);
  return perm;
}

}  // namespace

Permutation degree_descending_order(const CsrGraph& graph) {
  return degree_order(graph, /*descending=*/true);
}

Permutation degree_ascending_order(const CsrGraph& graph) {
  return degree_order(graph, /*descending=*/false);
}

EdgeOffset hub_cluster_auto_threshold(const CsrGraph& graph) {
  const VertexId n = graph.num_vertices();
  if (n == 0) return 16;
  const EdgeOffset mean =
      support::ceil_div(graph.num_directed_edges(), EdgeOffset{n});
  return std::max<EdgeOffset>(16, 4 * mean);
}

Permutation hub_cluster_order(const CsrGraph& graph,
                              const HubClusterParams& params) {
  const VertexId n = graph.num_vertices();
  Permutation perm(n);
  if (n == 0) return perm;
  const EdgeOffset threshold = params.hub_degree_threshold > 0
                                   ? params.hub_degree_threshold
                                   : hub_cluster_auto_threshold(graph);

  // Descending-degree ranks double as hub ranks: every vertex of degree
  // >= threshold sorts before every vertex below it, so the hubs are
  // exactly the vertices with rank < H.
  const Permutation degree_rank = degree_descending_order(graph);
  const VertexId num_hubs = static_cast<VertexId>(support::parallel_sum(
      n, [&](VertexId v) { return graph.degree(v) >= threshold ? 1 : 0; }));

  // Hubs keep their degree rank; each non-hub is owned by its
  // smallest-rank hub neighbour (the fringe sentinel `num_hubs` owns
  // vertices with no hub neighbour).  Dynamic schedule: owner scans walk
  // whole adjacency lists and degrees are skewed.
  UninitVector<VertexId> owner(n);
  support::parallel_for_dynamic(n, [&](VertexId v) {
    if (degree_rank[v] < num_hubs) {
      perm[v] = degree_rank[v];
      owner[v] = n;  // marks "already placed"
      return;
    }
    VertexId best = num_hubs;
    for (const VertexId u : graph.neighbors(v)) {
      best = std::min(best, degree_rank[u]);
    }
    owner[v] = best;
  });

  // Cluster: counting-sort the non-hubs by owner rank.  Bucket b < H is
  // hub b's neighbourhood (old-id order within it), bucket H is the
  // fringe — appended last by the same parallel pass.
  counting_sort_into(
      n, static_cast<std::size_t>(num_hubs) + 1, /*base=*/num_hubs,
      [&](VertexId v) {
        return owner[v] == n ? kSkipKey
                             : static_cast<std::size_t>(owner[v]);
      },
      perm);
  return perm;
}

Permutation window_local_degree_order(const CsrGraph& graph,
                                      VertexId window) {
  const VertexId n = graph.num_vertices();
  Permutation perm(n);
  if (n == 0) return perm;
  window = std::max<VertexId>(1, window);
  const VertexId num_windows = support::ceil_div(n, window);
  // Windows are independent id ranges; each is re-ranked by descending
  // degree (stable on old id) in place, so the result is deterministic
  // for every thread count.
  support::parallel_for_dynamic(
      num_windows,
      [&](VertexId w) {
        const VertexId begin = w * window;
        const VertexId end = std::min<VertexId>(begin + window, n);
        std::vector<VertexId> ids(end - begin);
        std::iota(ids.begin(), ids.end(), begin);
        std::stable_sort(ids.begin(), ids.end(),
                         [&](VertexId a, VertexId b) {
                           return graph.degree(a) > graph.degree(b);
                         });
        for (VertexId i = 0; i < end - begin; ++i) {
          perm[ids[i]] = begin + i;
        }
      },
      VertexId{1});
  return perm;
}

Permutation bfs_order(const CsrGraph& graph) {
  const VertexId n = graph.num_vertices();
  Permutation perm(n, n);  // n == unassigned sentinel
  if (n == 0) return perm;
  VertexId next_id = 0;
  std::deque<VertexId> queue;
  const VertexId root = graph.max_degree_vertex();
  perm[root] = next_id++;
  queue.push_back(root);
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    for (const VertexId u : graph.neighbors(v)) {
      if (perm[u] == n) {
        perm[u] = next_id++;
        queue.push_back(u);
      }
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (perm[v] == n) perm[v] = next_id++;
  }
  THRIFTY_ENSURES(next_id == n);
  return perm;
}

Permutation random_order(VertexId n, std::uint64_t seed) {
  Permutation perm = identity_order(n);
  support::Xoshiro256StarStar rng(seed);
  for (VertexId i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  return perm;
}

Permutation make_order(const CsrGraph& graph, OrderKind kind,
                       std::uint64_t seed) {
  switch (kind) {
    case OrderKind::kNone: return identity_order(graph.num_vertices());
    case OrderKind::kDegree: return degree_descending_order(graph);
    case OrderKind::kDegreeAscending: return degree_ascending_order(graph);
    case OrderKind::kHubCluster: return hub_cluster_order(graph);
    case OrderKind::kWindow: return window_local_degree_order(graph);
    case OrderKind::kBfs: return bfs_order(graph);
    case OrderKind::kRandom:
      return random_order(graph.num_vertices(), seed);
  }
  return identity_order(graph.num_vertices());
}

CsrGraph apply_permutation(const CsrGraph& graph, const Permutation& perm) {
  const VertexId n = graph.num_vertices();
  THRIFTY_EXPECTS(perm.size() == n);
  const EdgeOffset m = graph.num_directed_edges();
  if (n == 0) {
    UninitVector<EdgeOffset> offsets(1);
    offsets[0] = 0;
    return CsrGraph(std::move(offsets), UninitVector<VertexId>{});
  }

  // Inverse map: new id -> old id, needed to walk new sources in
  // ascending order during the scatter.
  Permutation inverse(n);
  support::parallel_for(n, [&](VertexId v) {
    THRIFTY_EXPECTS(perm[v] < n);
    inverse[perm[v]] = v;
  });

  // New offsets: scatter old degrees to their new slots, then scan.
  // Zero-filling `degree` first makes a corrupt (non-bijective) input
  // land on the edge-count cross-check below instead of reading
  // indeterminate slots.
  std::vector<EdgeOffset> degree(n, 0);
  support::parallel_for(n, [&](VertexId v) {
    degree[perm[v]] = graph.degree(v);
  });
  UninitVector<EdgeOffset> offsets(static_cast<std::size_t>(n) + 1);
  support::parallel_exclusive_scan(degree.data(), n, offsets.data());
  // Overflow-checked edge-count cross-check: the relabelled degrees must
  // add back up to the directed edge count.  A duplicated target in a
  // broken permutation silently drops (or double-counts) a vertex's
  // adjacency; this is the cheap invariant that catches it before the
  // CSR constructor sees inconsistent arrays.
  std::optional<EdgeOffset> total = EdgeOffset{0};
  for (std::size_t b = 0; b < degree.size() && total; ) {
    // Sum in large strides through checked_add so a corrupt permutation
    // with wrapped degree values cannot overflow back to `m`.
    const std::size_t end = std::min(degree.size(), b + 4096);
    EdgeOffset stride = 0;
    bool stride_ok = true;
    for (; b < end; ++b) {
      const auto next = support::checked_add(stride, degree[b]);
      if (!next) { stride_ok = false; break; }
      stride = *next;
    }
    total = stride_ok ? support::checked_add(*total, stride) : std::nullopt;
  }
  if (!total || *total != m || offsets.back() != m) {
    throw std::invalid_argument(
        "apply_permutation: permutation is not a bijection (relabelled "
        "degrees sum to " +
        (total ? std::to_string(*total) : std::string("overflow")) +
        ", expected " + std::to_string(m) + ")");
  }

  // Counting-sort scatter, blocks balanced by *edges*: thread t owns the
  // contiguous new-source range whose adjacency covers roughly m/blocks
  // entries, so one hub cannot serialise the pass.  Walking new sources
  // in ascending order and appending each source to its destinations'
  // cursors materialises every adjacency list already sorted — the old
  // per-vertex std::sort rebuild is gone.  Output is independent of the
  // block count: blocks are ascending source ranges, so each
  // destination's concatenated entries stay ascending.
  const int threads = support::num_threads();
  const auto blocks = static_cast<std::size_t>(threads);
  std::vector<VertexId> bounds(blocks + 1);
  bounds[blocks] = n;
  for (std::size_t t = 1; t < blocks; ++t) {
    const EdgeOffset want = m / blocks * t;
    bounds[t] = static_cast<VertexId>(
        std::upper_bound(offsets.begin(), offsets.end() - 1, want) -
        offsets.begin() - 1);
  }
  const auto cells =
      support::checked_mul(blocks, static_cast<std::size_t>(n));
  THRIFTY_EXPECTS(cells.has_value());
  UninitVector<EdgeOffset> cursors(*cells);
#pragma omp parallel num_threads(threads)
  {
#pragma omp for schedule(static, 1)
    for (std::size_t t = 0; t < blocks; ++t) {
      EdgeOffset* local = cursors.data() + t * n;
      std::fill(local, local + n, EdgeOffset{0});
      for (VertexId ns = bounds[t]; ns < bounds[t + 1]; ++ns) {
        for (const VertexId u : graph.neighbors(inverse[ns])) {
          ++local[perm[u]];
        }
      }
    }
  }
  support::parallel_for(n, [&](VertexId d) {
    EdgeOffset running = offsets[d];
    for (std::size_t t = 0; t < blocks; ++t) {
      const EdgeOffset c = cursors[t * n + d];
      cursors[t * n + d] = running;
      running += c;
    }
  });
  UninitVector<VertexId> neighbors(m);
#pragma omp parallel num_threads(threads)
  {
#pragma omp for schedule(static, 1)
    for (std::size_t t = 0; t < blocks; ++t) {
      EdgeOffset* cursor = cursors.data() + t * n;
      for (VertexId ns = bounds[t]; ns < bounds[t + 1]; ++ns) {
        for (const VertexId u : graph.neighbors(inverse[ns])) {
          neighbors[cursor[perm[u]]++] = ns;
        }
      }
    }
  }
  return CsrGraph(std::move(offsets), std::move(neighbors));
}

Permutation inverse_permutation(const Permutation& perm) {
  const auto n = static_cast<VertexId>(perm.size());
  Permutation inverse(n);
  support::parallel_for(n, [&](VertexId v) {
    THRIFTY_EXPECTS(perm[v] < n);
    inverse[perm[v]] = v;
  });
  return inverse;
}

bool is_permutation(const Permutation& perm) {
  std::vector<bool> seen(perm.size(), false);
  for (const VertexId p : perm) {
    if (p >= perm.size() || seen[p]) return false;
    seen[p] = true;
  }
  return true;
}

}  // namespace thrifty::reorder
