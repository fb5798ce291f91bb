#include "testing/scenario.hpp"

#include <charconv>
#include <stdexcept>
#include <utility>

#include "gen/barabasi_albert.hpp"
#include "gen/combine.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "gen/sbm.hpp"
#include "gen/simple.hpp"
#include "gen/small_world.hpp"
#include "graph/builder.hpp"
#include "support/random.hpp"

namespace thrifty::testing {

using graph::EdgeList;
using graph::VertexId;
using support::Xoshiro256StarStar;

namespace {

/// Salt separating the scenario RNG stream from every other consumer of
/// the same user-facing seed.
constexpr std::uint64_t kScenarioSalt = 0x5CE7A810ull;

Xoshiro256StarStar scenario_rng(std::uint64_t seed) {
  return Xoshiro256StarStar(support::hash_mix(kScenarioSalt, seed));
}

Scenario finish(std::string family, std::uint64_t seed, std::string name,
                VertexId num_vertices, EdgeList edges) {
  Scenario scenario;
  scenario.spec = std::move(family) + ":" + std::to_string(seed);
  scenario.name = std::move(name);
  scenario.seed = seed;
  scenario.num_vertices = num_vertices;
  scenario.edges = std::move(edges);
  return scenario;
}

struct Part {
  std::string name;
  EdgeList edges;
  VertexId n = 0;
};

/// One base graph drawn from every family the library generates.  Sizes
/// stay small (≤ ~2k vertices, ≤ ~8k edges) so a 200-scenario sweep over
/// eleven algorithms finishes in seconds.
Part random_part(Xoshiro256StarStar& rng) {
  Part part;
  const std::uint64_t part_seed = rng.next();
  switch (rng.next_below(11)) {
    case 0: {
      part.n = static_cast<VertexId>(2 + rng.next_below(1023));
      part.edges = gen::path_edges(part.n);
      part.name = "path";
      break;
    }
    case 1: {
      part.n = static_cast<VertexId>(3 + rng.next_below(1022));
      part.edges = gen::cycle_edges(part.n);
      part.name = "cycle";
      break;
    }
    case 2: {
      part.n = static_cast<VertexId>(2 + rng.next_below(2047));
      part.edges = gen::star_edges(
          part.n, static_cast<VertexId>(rng.next_below(part.n)));
      part.name = "star";
      break;
    }
    case 3: {
      part.n = static_cast<VertexId>(2 + rng.next_below(63));
      part.edges = gen::clique_edges(part.n);
      part.name = "clique";
      break;
    }
    case 4: {
      part.n = static_cast<VertexId>(1 + rng.next_below(1024));
      part.edges = gen::random_tree_edges(part.n, part_seed);
      part.name = "tree";
      break;
    }
    case 5: {
      gen::ErdosRenyiParams params;
      params.num_vertices = static_cast<VertexId>(16 + rng.next_below(1008));
      params.num_edges = params.num_vertices * (1 + rng.next_below(4));
      params.seed = part_seed;
      part.n = params.num_vertices;
      part.edges = gen::erdos_renyi_edges(params);
      part.name = "er";
      break;
    }
    case 6: {
      gen::GridParams params;
      params.width = static_cast<VertexId>(2 + rng.next_below(31));
      params.height = static_cast<VertexId>(2 + rng.next_below(31));
      params.removal_fraction = rng.next_below(2) == 0 ? 0.0 : 0.15;
      params.seed = part_seed;
      part.n = params.width * params.height;
      part.edges = gen::grid_edges(params);
      part.name = "grid";
      break;
    }
    case 7: {
      gen::SbmParams params;
      params.num_vertices = static_cast<VertexId>(64 + rng.next_below(960));
      params.communities = static_cast<VertexId>(2 + rng.next_below(6));
      params.intra_degree = 4.0;
      params.inter_degree = rng.next_below(2) == 0 ? 0.0 : 0.25;
      params.seed = part_seed;
      part.n = params.num_vertices;
      part.edges = gen::sbm_edges(params);
      part.name = "sbm";
      break;
    }
    case 8: {
      gen::BarabasiAlbertParams params;
      params.edges_per_vertex = static_cast<int>(1 + rng.next_below(6));
      params.num_vertices = static_cast<VertexId>(
          params.edges_per_vertex + 2 + rng.next_below(1024));
      params.seed = part_seed;
      part.n = params.num_vertices;
      part.edges = gen::barabasi_albert_edges(params);
      part.name = "ba";
      break;
    }
    case 9: {
      gen::RmatParams params;
      params.scale = static_cast<int>(7 + rng.next_below(3));
      params.edge_factor = static_cast<int>(2 + rng.next_below(6));
      params.seed = part_seed;
      params.permute_ids = rng.next_below(2) == 0;
      part.n = VertexId{1} << params.scale;
      part.edges = gen::rmat_edges(params);
      part.name = "rmat";
      break;
    }
    default: {
      gen::SmallWorldParams params;
      params.num_vertices = static_cast<VertexId>(8 + rng.next_below(1016));
      params.k = static_cast<int>(1 + rng.next_below(3));
      params.beta = 0.1;
      params.seed = part_seed;
      part.n = params.num_vertices;
      part.edges = gen::small_world_edges(params);
      part.name = "small_world";
      break;
    }
  }
  return part;
}

std::uint64_t parse_seed(const std::string& spec, std::size_t colon) {
  std::uint64_t seed = 0;
  const char* begin = spec.data() + colon + 1;
  const char* end = spec.data() + spec.size();
  const auto [ptr, ec] = std::from_chars(begin, end, seed);
  if (ec != std::errc{} || ptr != end) {
    throw std::runtime_error("scenario spec '" + spec +
                             "': seed must be an unsigned integer");
  }
  return seed;
}

}  // namespace

Scenario make_hub_star(std::uint64_t seed) {
  Xoshiro256StarStar rng = scenario_rng(seed ^ 0x10b57a41ull);
  const auto n = static_cast<VertexId>(256 + rng.next_below(3841));
  const auto center = static_cast<VertexId>(rng.next_below(n));
  return finish("hub_star", seed, "hub_star", n,
                gen::star_edges(n, center));
}

Scenario make_all_satellites(std::uint64_t seed) {
  Xoshiro256StarStar rng = scenario_rng(seed ^ 0x5a7e111e5ull);
  EdgeList edges;
  const auto count = static_cast<VertexId>(64 + rng.next_below(192));
  const auto size = static_cast<VertexId>(1 + rng.next_below(7));
  const VertexId n =
      gen::append_satellite_components(edges, 0, count, size, rng.next());
  return finish("all_satellites", seed, "all_satellites", n,
                std::move(edges));
}

Scenario make_permuted_rmat(std::uint64_t seed) {
  Xoshiro256StarStar rng = scenario_rng(seed ^ 0x9e27a7ull);
  gen::RmatParams params;
  params.scale = static_cast<int>(8 + rng.next_below(3));
  params.edge_factor = static_cast<int>(4 + rng.next_below(5));
  params.seed = rng.next();
  params.permute_ids = false;  // the explicit combinator permutes instead
  EdgeList edges = gen::rmat_edges(params);
  const VertexId n = VertexId{1} << params.scale;
  gen::permute_vertex_ids(edges, n, rng.next());
  return finish("permuted_rmat", seed, "permuted_rmat", n,
                std::move(edges));
}

Scenario make_two_clique_bridge(std::uint64_t seed) {
  Xoshiro256StarStar rng = scenario_rng(seed ^ 0x2c11c6eull);
  const auto a = static_cast<VertexId>(8 + rng.next_below(57));
  const auto b = static_cast<VertexId>(8 + rng.next_below(57));
  const std::vector<EdgeList> parts{gen::clique_edges(a),
                                    gen::clique_edges(b)};
  const std::vector<VertexId> sizes{a, b};
  EdgeList edges = gen::disjoint_union(parts, sizes);
  // Bridge: clique A's vertex 0 to clique B's vertex 0 through `hops`
  // fresh path vertices appended past both cliques.
  const auto hops = static_cast<VertexId>(rng.next_below(8));
  VertexId n = a + b;
  VertexId previous = 0;
  for (VertexId h = 0; h < hops; ++h) {
    edges.push_back({previous, n});
    previous = n++;
  }
  edges.push_back({previous, a});
  return finish("two_clique_bridge", seed, "two_clique_bridge", n,
                std::move(edges));
}

Scenario make_cut_grid(std::uint64_t seed) {
  Xoshiro256StarStar rng = scenario_rng(seed ^ 0xc7961dull);
  gen::GridParams params;
  params.width = static_cast<VertexId>(64 + rng.next_below(193));
  params.height = static_cast<VertexId>(64 + rng.next_below(193));
  params.removal_fraction =
      0.02 + 0.13 * static_cast<double>(rng.next_below(1001)) / 1000.0;
  params.seed = rng.next();
  EdgeList edges = gen::grid_edges(params);
  const VertexId n = params.width * params.height;
  std::string name = "cut_grid";
  if (rng.next_below(2) == 0) {
    gen::permute_vertex_ids(edges, n, rng.next());
    name += "+permute";
  }
  return finish("cut_grid", seed, std::move(name), n, std::move(edges));
}

Scenario make_random(std::uint64_t seed) {
  Xoshiro256StarStar rng = scenario_rng(seed);
  const std::uint64_t num_parts = 1 + rng.next_below(3);
  std::vector<EdgeList> parts;
  std::vector<VertexId> sizes;
  std::string name;
  for (std::uint64_t p = 0; p < num_parts; ++p) {
    Part part = random_part(rng);
    if (p > 0) name += "+";
    name += part.name;
    parts.push_back(std::move(part.edges));
    sizes.push_back(part.n);
  }
  EdgeList edges = gen::disjoint_union(parts, sizes);
  VertexId n = 0;
  for (const VertexId size : sizes) n += size;
  if (rng.next_below(2) == 0) {
    const auto count = static_cast<VertexId>(1 + rng.next_below(48));
    const auto size = static_cast<VertexId>(1 + rng.next_below(6));
    n = gen::append_satellite_components(edges, n, count, size, rng.next());
    name += "+satellites";
  }
  if (rng.next_below(2) == 0) {
    gen::permute_vertex_ids(edges, n, rng.next());
    name += "+permute";
  }
  return finish("random", seed, std::move(name), n, std::move(edges));
}

std::vector<std::string> scenario_families() {
  return {"hub_star", "all_satellites", "permuted_rmat",
          "two_clique_bridge", "cut_grid", "random"};
}

Scenario scenario_from_spec(const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) {
    throw std::runtime_error("scenario spec '" + spec +
                             "': expected <family>:<seed>");
  }
  const std::string family = spec.substr(0, colon);
  const std::uint64_t seed = parse_seed(spec, colon);
  if (family == "hub_star") return make_hub_star(seed);
  if (family == "all_satellites") return make_all_satellites(seed);
  if (family == "permuted_rmat") return make_permuted_rmat(seed);
  if (family == "two_clique_bridge") return make_two_clique_bridge(seed);
  if (family == "cut_grid") return make_cut_grid(seed);
  if (family == "random") return make_random(seed);
  throw std::runtime_error("scenario spec '" + spec + "': unknown family '" +
                           family + "'");
}

graph::CsrGraph build_scenario_graph(const Scenario& scenario) {
  graph::BuildOptions options;
  options.remove_zero_degree_vertices = false;
  return graph::build_csr(scenario.edges, scenario.num_vertices, options)
      .graph;
}

}  // namespace thrifty::testing
