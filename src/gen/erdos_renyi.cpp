#include "gen/erdos_renyi.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/math.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"

namespace thrifty::gen {

using graph::Edge;
using graph::EdgeList;
using graph::VertexId;

EdgeList erdos_renyi_edges(const ErdosRenyiParams& params) {
  THRIFTY_EXPECTS(params.num_vertices > 0);
  EdgeList edges(params.num_edges);
  constexpr std::uint64_t kChunk = 1 << 14;
  const std::uint64_t num_chunks =
      support::ceil_div(params.num_edges, kChunk);
#pragma omp parallel for num_threads( \
    support::threads_for(params.num_edges)) schedule(dynamic, 1)
  for (std::uint64_t chunk = 0; chunk < num_chunks; ++chunk) {
    support::Xoshiro256StarStar rng(
        support::hash_mix(params.seed, chunk + 1));
    const std::uint64_t begin = chunk * kChunk;
    const std::uint64_t end = std::min(begin + kChunk, params.num_edges);
    for (std::uint64_t i = begin; i < end; ++i) {
      edges[i] = Edge{
          static_cast<VertexId>(rng.next_below(params.num_vertices)),
          static_cast<VertexId>(rng.next_below(params.num_vertices))};
    }
  }
  return edges;
}

}  // namespace thrifty::gen
