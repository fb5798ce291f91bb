// graph_convert — convert between the supported graph formats and
// materialise generator specs, so benchmark inputs can be produced once
// and reloaded quickly.
//
//   graph_convert <input|gen:spec> <output.{el,bin,mtx,shards}>
//                 [--reorder=none|degree|degree-asc|hub-cluster|window|
//                            bfs|random]
//                 [--permute=identity|degree_desc|degree_asc|bfs|random]
//                 [--seed=N] [--shards=K]
//
// --reorder relabels the graph with a reorder/ subsystem order before
// writing, and drops the permutation next to the output as
// <output>.perm (reorder/relabel.hpp sidecar format) so expensive
// orders are computed once and labels can be mapped back by later runs.
// --permute is the older spelling kept for existing scripts; it does
// not write a sidecar.
//
// --shards=K writes a sharded snapshot instead of a single file: the
// graph is partitioned into K contiguous edge-balanced vertex ranges
// and persisted as a <output>.shards manifest plus per-shard CSR and
// cut-sidecar files (src/shard/manifest.hpp), ready for the streaming
// solver (thrifty_cc --memory-budget).
#include <cstdio>
#include <stdexcept>
#include <string>

#include "graph/types.hpp"
#include "io/binary_io.hpp"
#include "io/edge_list_io.hpp"
#include "io/matrix_market_io.hpp"
#include "reorder/relabel.hpp"
#include "reorder/reorder.hpp"
#include "shard/manifest.hpp"
#include "shard/shard.hpp"
#include "tools/tool_common.hpp"

namespace {

using namespace thrifty;  // NOLINT(google-build-using-namespace)

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(),
                      suffix) == 0;
}

graph::EdgeList to_edge_list(const graph::CsrGraph& g) {
  graph::EdgeList edges;
  edges.reserve(g.num_undirected_edges());
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const graph::VertexId u : g.neighbors(v)) {
      if (u >= v) edges.push_back(graph::Edge{v, u});
    }
  }
  return edges;
}

int run(int argc, char** argv) {
  const tools::ArgParser args(argc, argv);
  if (args.positional().size() != 2 || args.has_flag("help")) {
    std::fprintf(stderr,
                 "usage: graph_convert <input|gen:spec> "
                 "<output.{el,bin,mtx,shards}> [--reorder=ORDER] "
                 "[--permute=MODE] [--seed=N] [--shards=K]\n");
    return args.has_flag("help") ? 0 : 2;
  }
  const auto unknown =
      args.unknown_flags({"reorder", "permute", "seed", "shards", "help"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.front().c_str());
    return 2;
  }
  if (args.flag("reorder") && args.flag("permute")) {
    std::fprintf(stderr, "--reorder and --permute are exclusive\n");
    return 2;
  }

  graph::CsrGraph g = tools::load_graph(args.positional()[0]);
  std::fprintf(stderr, "loaded: %s\n", tools::summarize(g).c_str());

  const std::string& output = args.positional()[1];
  if (const auto text = args.flag("reorder")) {
    const auto kind = reorder::parse_order_kind(*text);
    if (!kind) {
      std::fprintf(stderr,
                   "unknown reorder '%s' (expected none | degree | "
                   "degree-asc | hub-cluster | window | bfs | random)\n",
                   text->c_str());
      return 2;
    }
    if (*kind != reorder::OrderKind::kNone) {
      const reorder::Permutation perm = reorder::make_order(
          g, *kind,
          static_cast<std::uint64_t>(args.flag_int("seed", 1)));
      g = reorder::apply_permutation(g, perm);
      const std::string sidecar = output + ".perm";
      reorder::write_permutation_file(sidecar, perm);
      std::fprintf(stderr, "applied %s order, permutation: %s\n",
                   reorder::to_string(*kind), sidecar.c_str());
    }
  }

  const std::string mode = args.flag("permute").value_or("identity");
  if (mode != "identity") {
    reorder::Permutation perm;
    if (mode == "degree_desc") {
      perm = reorder::degree_descending_order(g);
    } else if (mode == "degree_asc") {
      perm = reorder::degree_ascending_order(g);
    } else if (mode == "bfs") {
      perm = reorder::bfs_order(g);
    } else if (mode == "random") {
      perm = reorder::random_order(
          g.num_vertices(),
          static_cast<std::uint64_t>(args.flag_int("seed", 1)));
    } else {
      std::fprintf(stderr, "unknown --permute mode '%s'\n", mode.c_str());
      return 2;
    }
    g = reorder::apply_permutation(g, perm);
    std::fprintf(stderr, "applied %s permutation\n", mode.c_str());
  }

  if (args.flag("shards")) {
    const auto shards = args.flag_int("shards", 0);
    if (shards < 1) {
      std::fprintf(stderr, "--shards must be a positive shard count\n");
      return 2;
    }
    if (!tools::is_shard_manifest(output)) {
      std::fprintf(stderr,
                   "--shards output must use the .shards extension "
                   "(manifest plus per-shard payload files)\n");
      return 2;
    }
    const shard::ShardedGraph sharded =
        shard::partition_shards(g, static_cast<int>(shards));
    shard::write_sharded_snapshot(output, sharded);
    std::fprintf(
        stderr,
        "written: %s (%d shard(s), %u boundary slot(s), %llu cut "
        "pair(s))\n",
        output.c_str(), sharded.num_shards(), sharded.num_slots(),
        static_cast<unsigned long long>(sharded.total_cut_pairs()));
    return 0;
  }
  if (tools::is_shard_manifest(output)) {
    std::fprintf(stderr, "a .shards output requires --shards=K\n");
    return 2;
  }

  if (ends_with(output, ".bin")) {
    io::write_csr_file(output, g);
  } else if (ends_with(output, ".mtx")) {
    io::write_matrix_market_file(output, to_edge_list(g),
                                 g.num_vertices());
  } else {
    io::write_edge_list_file(output, to_edge_list(g));
  }
  std::fprintf(stderr, "written: %s\n", output.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
