#include "gen/rmat.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "support/assert.hpp"
#include "support/math.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"

namespace thrifty::gen {

using graph::Edge;
using graph::EdgeList;
using graph::VertexId;

namespace {

Edge rmat_one_edge(support::Xoshiro256StarStar& rng, int scale, double a,
                   double b, double c) {
  std::uint64_t u = 0;
  std::uint64_t v = 0;
  for (int bit = 0; bit < scale; ++bit) {
    const double r = rng.next_double();
    u <<= 1;
    v <<= 1;
    if (r < a) {
      // top-left quadrant: no bits set
    } else if (r < a + b) {
      v |= 1;
    } else if (r < a + b + c) {
      u |= 1;
    } else {
      u |= 1;
      v |= 1;
    }
  }
  return Edge{static_cast<VertexId>(u), static_cast<VertexId>(v)};
}

}  // namespace

EdgeList rmat_edges(const RmatParams& params) {
  THRIFTY_EXPECTS(params.scale > 0 && params.scale < 32);
  THRIFTY_EXPECTS(params.edge_factor > 0);
  const double d = 1.0 - params.a - params.b - params.c;
  THRIFTY_EXPECTS(params.a > 0 && params.b >= 0 && params.c >= 0 && d >= 0);

  const std::uint64_t n = 1ULL << params.scale;
  const std::uint64_t m =
      n * static_cast<std::uint64_t>(params.edge_factor);
  EdgeList edges(m);

  // Deterministic parallelism: fixed-size chunks, each with its own RNG
  // seeded from (seed, chunk index) so the output is independent of the
  // thread count.
  constexpr std::uint64_t kChunk = 1 << 14;
  const std::uint64_t num_chunks = support::ceil_div(m, kChunk);
#pragma omp parallel for num_threads(support::threads_for(m)) \
    schedule(dynamic, 1)
  for (std::uint64_t chunk = 0; chunk < num_chunks; ++chunk) {
    support::Xoshiro256StarStar rng(
        support::hash_mix(params.seed, chunk + 1));
    const std::uint64_t begin = chunk * kChunk;
    const std::uint64_t end = std::min(begin + kChunk, m);
    for (std::uint64_t i = begin; i < end; ++i) {
      edges[i] =
          rmat_one_edge(rng, params.scale, params.a, params.b, params.c);
    }
  }

  if (params.permute_ids) {
    // Fisher–Yates permutation of vertex ids (sequential; O(n) and cheap
    // relative to edge generation), then relabel edges in parallel.
    std::vector<VertexId> perm(n);
    std::iota(perm.begin(), perm.end(), VertexId{0});
    support::Xoshiro256StarStar rng(support::hash_mix(params.seed, 0));
    for (std::uint64_t i = n - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.next_below(i + 1)]);
    }
    support::parallel_for(m, [&](std::uint64_t i) {
      edges[i].u = perm[edges[i].u];
      edges[i].v = perm[edges[i].v];
    });
  }
  return edges;
}

}  // namespace thrifty::gen
