// Input generation for every workload.  The seed is the generator seed, so
// one seed always yields the same files.  Only the benchmark writes these
// inputs; the measured program reads them back through its own loaders.
#include <algorithm>
#include <stdexcept>

#include "bench.hpp"
#include "cc_baselines/reference_cc.hpp"
#include "core/cc_common.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "io/binary_io.hpp"
#include "serve/service.hpp"
#include "shard/manifest.hpp"
#include "shard/shard.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace graph = thrifty::graph;

namespace {

void write_reference(const graph::CsrGraph& g, const std::string& path) {
  const auto result = thrifty::baselines::reference_cc(g);
  write_labels(path, thrifty::core::canonical_labels(result.label_span()));
}

graph::EdgeList skewed_edges(std::uint64_t seed, int scale) {
  thrifty::gen::RmatParams params;
  params.scale = scale;
  params.edge_factor = kRmatEdgeFactor;
  params.seed = seed;
  return thrifty::gen::rmat_edges(params);
}

}  // namespace

graph::CsrGraph build_keeping_ids(const graph::EdgeList& edges,
                                  graph::VertexId n) {
  graph::BuildOptions options;
  options.remove_zero_degree_vertices = false;
  return graph::build_csr(edges, n, options).graph;
}

double setup_workload(const Context& ctx, bool reference) {
  const Stopwatch clock;
  if (ctx.workload == kSkewedBatch || ctx.workload == kShardedStream) {
    const graph::CsrGraph g =
        graph::build_csr(skewed_edges(ctx.seed, kSkewedScale)).graph;
    if (ctx.workload == kSkewedBatch) {
      thrifty::io::write_csr_file(ctx.file(kSkewedSnapshot), g);
    } else {
      thrifty::shard::write_sharded_snapshot(
          ctx.file(kShardManifest),
          thrifty::shard::partition_shards(g, kShards));
    }
    const double seconds = clock.ms() / 1e3;
    if (reference) write_reference(g, ctx.file(kReferenceLabels));
    return seconds;
  }
  if (ctx.workload == kRoadBatch) {
    thrifty::gen::GridParams params;
    params.width = kRoadSide;
    params.height = kRoadSide;
    params.removal_fraction = kRoadRemoval;
    params.seed = ctx.seed;
    const graph::CsrGraph g =
        graph::build_csr(thrifty::gen::grid_edges(params),
                         params.width * params.height)
            .graph;
    thrifty::io::write_csr_file(ctx.file(kRoadSnapshot), g);
    const double seconds = clock.ms() / 1e3;
    if (reference) write_reference(g, ctx.file(kReferenceLabels));
    return seconds;
  }
  if (ctx.workload == kServeMixed) {
    const graph::EdgeList edges = skewed_edges(ctx.seed, kServeScale);
    const auto n = static_cast<graph::VertexId>(1) << kServeScale;
    const auto split = static_cast<std::ptrdiff_t>(
        static_cast<double>(edges.size()) * kServeBaseShare);
    const graph::EdgeList base_edges(edges.begin(), edges.begin() + split);
    graph::CsrGraph base = build_keeping_ids(base_edges, n);
    thrifty::io::write_csr_file(ctx.file(kServeBase), base);
    write_edges(ctx.file(kServeIngest),
                std::span(edges).subspan(static_cast<std::size_t>(split)));
    // A serving user waits for the service too: the initial solve and the
    // first publication are set-up work.
    const thrifty::serve::ConnectivityService service(std::move(base));
    const double seconds = clock.ms() / 1e3;
    if (reference) {
      write_reference(build_keeping_ids(edges, n),
                      ctx.file(kReferenceLabels));
    }
    return seconds;
  }
  throw std::invalid_argument("unknown workload '" + ctx.workload + "'");
}

}  // namespace perfbench
