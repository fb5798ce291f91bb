// graph_info — inspect a graph's structural profile: size, degree
// statistics, power-law classification, component census, giant-component
// coverage (the Table I quantities), and a log2 degree histogram.
//
//   graph_info <graph|gen:spec> [--histogram] [--components] [--memory]
//              [--mmap]
//   graph_info <snapshot.shards>
//
// --memory prints per-array byte sizes, whether the graph owns its
// memory (vs aliasing a mapping), and the process resident set — with
// --mmap on a .bin snapshot the RSS line shows the zero-copy win.
// A sharded-snapshot manifest (graph_convert --shards) as the input
// prints the manifest summary instead: shard ranges, cut-edge counts, the boundary
// fraction, and the largest per-shard resident footprint.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cc_baselines/reference_cc.hpp"
#include "core/cc_common.hpp"
#include "graph/degree_stats.hpp"
#include "shard/manifest.hpp"
#include "tools/tool_common.hpp"

namespace {

using namespace thrifty;  // NOLINT(google-build-using-namespace)

/// Resident set size in KiB from /proc/self/status; 0 where unavailable
/// (non-Linux).
std::uint64_t resident_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream in(line.substr(6));
      std::uint64_t kib = 0;
      in >> kib;
      return kib;
    }
  }
  return 0;
}

int run_shards(const std::string& path);

int run(int argc, char** argv) {
  const tools::ArgParser args(argc, argv);
  if (args.positional().size() != 1 || args.has_flag("help")) {
    std::fprintf(stderr,
                 "usage: graph_info <graph|gen:spec> [--histogram] "
                 "[--components] [--memory] [--mmap] | "
                 "graph_info <snapshot.shards>\n");
    return args.has_flag("help") ? 0 : 2;
  }
  const auto unknown =
      args.unknown_flags({"histogram", "components", "memory", "mmap",
                          "help"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag: --%s\n", unknown.front().c_str());
    return 2;
  }
  if (tools::is_shard_manifest(args.positional()[0])) {
    return run_shards(args.positional()[0]);
  }

  tools::LoadOptions load_options;
  load_options.use_mmap = args.has_flag("mmap");
  const graph::CsrGraph g =
      tools::load_graph(args.positional()[0], load_options);
  std::printf("size:        %s\n", tools::summarize(g).c_str());

  if (args.has_flag("memory")) {
    const auto offsets_bytes =
        (static_cast<std::uint64_t>(g.num_vertices()) + 1) *
        sizeof(graph::EdgeOffset);
    const auto neighbors_bytes =
        g.num_directed_edges() * sizeof(graph::VertexId);
    std::printf("memory:      offsets %.1f MiB, neighbors %.1f MiB "
                "(%s)\n",
                static_cast<double>(offsets_bytes) / (1024.0 * 1024.0),
                static_cast<double>(neighbors_bytes) / (1024.0 * 1024.0),
                g.owns_memory() ? "heap-owned"
                                : "zero-copy mapped view");
    if (const auto rss = resident_kib(); rss > 0) {
      std::printf("resident:    %.1f MiB (VmRSS)\n",
                  static_cast<double>(rss) / 1024.0);
    }
  }

  const auto stats = graph::compute_degree_stats(g);
  std::printf("degrees:     min %llu, median %.1f, mean %.2f, max %llu\n",
              static_cast<unsigned long long>(stats.min_degree),
              stats.median_degree, stats.mean_degree,
              static_cast<unsigned long long>(stats.max_degree));
  std::printf("skew:        top-1%% edge share %.2f%%, %.1f%% of vertices "
              "above mean degree\n",
              stats.top1pct_edge_share * 100.0,
              stats.fraction_above_mean * 100.0);
  std::printf("class:       %s\n", graph::looks_power_law(g)
                                       ? "power-law (skewed)"
                                       : "uniform / non-skewed");
  if (!g.empty()) {
    const graph::VertexId hub = g.max_degree_vertex();
    std::printf("hub:         vertex %u (degree %llu)\n", hub,
                static_cast<unsigned long long>(g.degree(hub)));
  }

  if (args.has_flag("histogram")) {
    std::printf("\nlog2 degree histogram:\n");
    const auto histogram = graph::log2_degree_histogram(g);
    for (std::size_t b = 0; b < histogram.size(); ++b) {
      if (histogram[b] == 0) continue;
      std::printf("  deg 2^%-2zu: %llu vertices\n", b,
                  static_cast<unsigned long long>(histogram[b]));
    }
  }

  if (args.has_flag("components") && !g.empty()) {
    const auto result = baselines::reference_cc(g);
    const auto components = core::count_components(result.label_span());
    const auto giant = core::largest_component(result.label_span());
    const graph::Label hub_label =
        result.labels[g.max_degree_vertex()];
    std::printf("\ncomponents:  %llu\n",
                static_cast<unsigned long long>(components));
    std::printf("giant:       %llu vertices (%.2f%%); max-degree vertex "
                "inside: %s\n",
                static_cast<unsigned long long>(giant.size),
                100.0 * static_cast<double>(giant.size) / g.num_vertices(),
                hub_label == giant.label ? "yes" : "no");
  }
  return 0;
}

/// Manifest summary for a sharded snapshot.
int run_shards(const std::string& path) {
  const shard::ShardManifest manifest = shard::read_shard_manifest(path);
  std::printf("manifest:    %s\n", path.c_str());
  std::printf("size:        %u vertices, %llu directed edges, %d "
              "shard(s)\n",
              manifest.num_vertices,
              static_cast<unsigned long long>(
                  manifest.num_directed_edges),
              manifest.num_shards());
  const double m =
      std::max<double>(1.0,
                       static_cast<double>(manifest.num_directed_edges));
  std::printf("cut:         %llu pair(s) (%.2f%% of directed edges)\n",
              static_cast<unsigned long long>(manifest.total_cut_pairs()),
              100.0 * static_cast<double>(manifest.total_cut_pairs()) / m);
  std::printf("resident:    max shard CSR %.1f MiB (minimum streaming "
              "window)\n",
              static_cast<double>(manifest.max_shard_csr_bytes()) /
                  (1024.0 * 1024.0));
  for (int k = 0; k < manifest.num_shards(); ++k) {
    const shard::ShardMeta& meta =
        manifest.shards[static_cast<std::size_t>(k)];
    std::printf("  shard %-3d  [%u, %u)  intra %llu  cut %llu  %.1f MiB\n",
                k, meta.begin, meta.end,
                static_cast<unsigned long long>(meta.intra_edges),
                static_cast<unsigned long long>(meta.cut_pair_count),
                static_cast<double>(meta.csr_bytes()) / (1024.0 * 1024.0));
  }
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
