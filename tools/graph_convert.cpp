// graph_convert — convert between the supported graph formats and
// materialise generator specs, so benchmark inputs can be produced once
// and reloaded quickly.
//
//   graph_convert <input|gen:spec> <output.{el,bin,mtx,shards}>
//                 [--reorder=ORDER] [--seed=N] [--shards=K]
//
// --reorder relabels the graph with a reorder/ subsystem order (one of
// reorder::all_order_kinds(), by its to_string name) before writing,
// and drops the permutation next to the output as <output>.perm
// (reorder/relabel.hpp sidecar format) so expensive orders are computed
// once and labels can be mapped back by later runs.  --seed only
// affects --reorder=random.
//
// --shards=K writes a sharded snapshot instead of a single file: the
// graph is partitioned into K contiguous edge-balanced vertex ranges
// and persisted as a <output>.shards manifest plus per-shard CSR and
// cut-sidecar files (src/shard/manifest.hpp), ready for the streaming
// solver (thrifty_cc --memory-budget).
//
// Every flag is parsed and checked before the input is loaded or
// generated, so a bad value fails at once.
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
                 "[--seed=N] [--shards=K]\n");
    return args.has_flag("help") ? 0 : 2;
  }
  const auto unknown =
      args.unknown_flags({"reorder", "seed", "shards", "help"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.front().c_str());
    return 2;
  }

  const std::string& output = args.positional()[1];
  auto kind = reorder::OrderKind::kNone;
  if (const auto text = args.flag("reorder")) {
    const auto parsed = reorder::parse_order_kind(*text);
    if (!parsed) {
      std::fprintf(stderr, "unknown reorder '%s' (expected %s)\n",
                   text->c_str(),
                   reorder::order_kind_names(" | ").c_str());
      return 2;
    }
    kind = *parsed;
  }
  const auto seed = static_cast<std::uint64_t>(args.flag_int("seed", 1));
  const auto shards = args.flag_int("shards", 0);
  if (args.flag("shards")) {
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
  } else if (tools::is_shard_manifest(output)) {
    std::fprintf(stderr, "a .shards output requires --shards=K\n");
    return 2;
  }

  graph::CsrGraph g = tools::load_graph(args.positional()[0]);
  std::fprintf(stderr, "loaded: %s\n", tools::summarize(g).c_str());

  if (kind != reorder::OrderKind::kNone) {
    const reorder::Permutation perm = reorder::make_order(g, kind, seed);
    g = reorder::apply_permutation(g, perm);
    const std::string sidecar = output + ".perm";
    reorder::write_permutation_file(sidecar, perm);
    std::fprintf(stderr, "applied %s order, permutation: %s\n",
                 reorder::to_string(kind), sidecar.c_str());
  }

  if (args.flag("shards")) {
    const shard::ShardedGraph sharded =
        shard::partition_shards(g, static_cast<int>(shards));
    shard::write_sharded_snapshot(output, sharded);
    std::fprintf(
        stderr, "written: %s (%d shard(s), %llu cut pair(s))\n",
        output.c_str(), sharded.num_shards(),
        static_cast<unsigned long long>(sharded.total_cut_pairs()));
    return 0;
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
