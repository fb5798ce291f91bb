// sharded_stream: the skewed graph as a K-shard snapshot, solved by the
// streaming shard::sharded_cc under a residency budget that fits one shard
// CSR but not two.
#include <array>
#include <string>

#include "cc_baselines/reference_cc.hpp"
#include "core/cc_common.hpp"
#include "graph/validate.hpp"
#include "io/mmap_io.hpp"
#include "shard/manifest.hpp"
#include "shard/solver.hpp"
#include "tools/tool_common.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace graph = thrifty::graph;
namespace shard = thrifty::shard;
using graph::Label;

namespace {

constexpr int kTraceReps = 3;

/// One manifest-path-to-labels run.  sharded_cc returns canonical labels,
/// so they are compared with the reference as they are (untimed).
void pipeline(const std::string& path, std::uint64_t budget,
              std::span<const Label> reference, Track* track, Samples& into,
              shard::ShardedCcStats& stats, Outcome& out) {
  out.attempt("pipeline", [&] {
    shard::ShardedCcResult result;
    const Stopwatch clock;
    {
      const Span root(track, "pipeline");
      shard::ShardManifest manifest;
      {
        const Span call(track, "shard::read_shard_manifest");
        manifest = shard::read_shard_manifest(path);
      }
      shard::ShardedCcOptions options;
      options.memory_budget_bytes = budget;
      const Span call(track, "shard::sharded_cc");
      result = shard::sharded_cc(manifest, options);
    }
    const double ms = clock.ms();
    const auto labels = result.label_span();
    if (!std::equal(labels.begin(), labels.end(), reference.begin(),
                    reference.end())) {
      return false;
    }
    stats = result.stats;
    into.add(ms);
    return true;
  });
}

/// Times one call per shard CSR inside a root span `root_name`.
template <typename Call>
void per_shard(const shard::ShardManifest& manifest, const char* root_name,
               const char* call_name, Track* track, Outcome& out,
               Call&& call) {
  out.attempt(root_name, [&] {
    bool ok = true;
    const Span root(track, root_name);
    for (const shard::ShardMeta& meta : manifest.shards) {
      const Span span(track, call_name);
      ok = call(meta) && ok;
    }
    return ok;
  });
}

}  // namespace

void run_sharded(const Context& ctx, Outcome& out) {
  const std::string path = ctx.file(kShardManifest);
  const std::vector<Label> reference = read_labels(ctx.file(kReferenceLabels));
  const shard::ShardManifest manifest = shard::read_shard_manifest(path);
  // Room for the largest shard CSR, not for two: the sweep must evict.
  const std::uint64_t budget = manifest.max_shard_csr_bytes() * 3 / 2;
  std::uint64_t csr_bytes = 0;
  for (const shard::ShardMeta& meta : manifest.shards) {
    csr_bytes += meta.csr_bytes();
  }
  out.info("shards", manifest.num_shards());
  out.info("memory_budget_bytes", static_cast<double>(budget));
  out.info("shard_csr_mb", static_cast<double>(csr_bytes) / (1 << 20));
  out.info("vertices", static_cast<double>(manifest.num_vertices));
  out.info("directed_edges", static_cast<double>(manifest.num_directed_edges));

  Tracer tracer(ctx.trace);
  Track* track = tracer.new_track();
  shard::ShardedCcStats stats;
  Samples untraced;
  // Warms the page cache; pipeline_ms is defined on a warm cache.
  pipeline(path, budget, reference, nullptr, untraced, stats, out);
  untraced = Samples();

  const auto load_residents = [&](std::vector<graph::CsrGraph>& graphs,
                                  std::vector<std::vector<Label>>& refs) {
    for (const shard::ShardMeta& meta : manifest.shards) {
      graphs.push_back(thrifty::tools::load_graph(meta.csr_path));
      refs.push_back(thrifty::core::canonical_labels(
          thrifty::baselines::reference_cc(graphs.back()).label_span()));
    }
    std::vector<Resident> residents;
    for (std::size_t k = 0; k < graphs.size(); ++k) {
      residents.push_back({&graphs[k], refs[k]});
    }
    return residents;
  };
  // Round 0 of the sharded solve is a local solve per shard; solve_ms
  // times core::thrifty_cc on every shard CSR in turn.
  std::vector<graph::CsrGraph> graphs;
  std::vector<std::vector<Label>> refs;

  if (!ctx.trace) {
    // The streaming solve's footprint, before the shard-local graphs below
    // are loaded whole; the warm-up run above already reached it.
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    const std::vector<Resident> residents = load_residents(graphs, refs);
    Samples solves;
    measure_blocks(
        ctx, 0.8,
        [&] {
          pipeline(path, budget, reference, nullptr, untraced, stats, out);
        },
        [&] { solve_once(residents, solves, out); });
    out.timing("pipeline_ms", untraced);
    out.info("rounds", stats.rounds);
    out.info("shard_loads", static_cast<double>(stats.shard_loads));
    report_solves(solves, out);
    return;
  }

  // Alternating untraced and traced runs keeps drift out of the overhead.
  Samples traced;
  Samples sweep;
  Samples exchange;
  for (int i = 0; i < kTraceReps; ++i) {
    pipeline(path, budget, reference, nullptr, untraced, stats, out);
    pipeline(path, budget, reference, track, traced, stats, out);
    sweep.add(stats.sweep_ms);
    exchange.add(stats.exchange_ms);
  }
  out.metric("shard.manifest_ms",
             tracer.durations("shard::read_shard_manifest", "pipeline")
                 .median(),
             "ms");
  out.metric("shard.sweep_ms", sweep.median(), "ms");
  out.metric("shard.exchange_ms", exchange.median(), "ms");
  out.metric("shard.rounds", stats.rounds, "count");
  out.metric("shard.loads", static_cast<double>(stats.shard_loads), "count");
  out.metric("shard.evictions", static_cast<double>(stats.evictions),
             "count");
  const double visits = static_cast<double>(stats.rounds - 1) *
                        static_cast<double>(manifest.num_shards());
  out.metric("shard.skip_ratio",
             visits > 0.0 ? static_cast<double>(stats.shards_skipped) / visits
                          : 0.0,
             "ratio");
  out.metric("shard.boundary_updates",
             static_cast<double>(stats.boundary_updates), "count");
  out.metric("shard.peak_window_mib",
             static_cast<double>(stats.peak_window_bytes) / (1 << 20), "MiB");
  tracer.counter("sharded_cc_stats.rounds", stats.rounds);
  tracer.counter("sharded_cc_stats.shard_loads",
                 static_cast<double>(stats.shard_loads));
  tracer.counter("sharded_cc_stats.evictions",
                 static_cast<double>(stats.evictions));
  tracer.counter("sharded_cc_stats.peak_window_bytes",
                 static_cast<double>(stats.peak_window_bytes));
  tracer.counter("sharded_cc_stats.shards_skipped",
                 static_cast<double>(stats.shards_skipped));
  tracer.counter("sharded_cc_stats.boundary_updates",
                 static_cast<double>(stats.boundary_updates));

  // io and graph rows over the shard CSR files.
  for (int rep = 0; rep < kTraceReps; ++rep) {
    per_shard(manifest, "load_shards", "tools::load_graph", track, out,
              [](const shard::ShardMeta& meta) {
                return thrifty::tools::load_graph(meta.csr_path)
                           .num_vertices() == meta.num_local();
              });
    per_shard(manifest, "mmap_shards", "io::read_csr_mmap", track, out,
              [](const shard::ShardMeta& meta) {
                return thrifty::io::read_csr_mmap(meta.csr_path)
                           .num_vertices() == meta.num_local();
              });
  }
  out.metric("io.load_ms", tracer.durations("load_shards", "-").median(),
             "ms");
  out.metric("io.mmap_load_ms", tracer.durations("mmap_shards", "-").median(),
             "ms");
  out.metric("io.snapshot_mb", static_cast<double>(csr_bytes) / (1 << 20),
             "MiB");
  const std::vector<Resident> residents = load_residents(graphs, refs);
  for (int rep = 0; rep < kTraceReps; ++rep) {
    out.attempt("graph::validate_csr", [&] {
      graph::ValidateOptions options;
      options.check_symmetry = false;
      bool ok = true;
      const Span root(track, "validate_shards");
      for (const graph::CsrGraph& g : graphs) {
        const Span call(track, "graph::validate_csr");
        ok = graph::validate_csr(g, options).ok() && ok;
      }
      return ok;
    });
  }
  out.metric("graph.validate_ms",
             tracer.durations("validate_shards", "-").median(), "ms");
  const double solve_ms =
      time_solves(residents, kTraceSolves, out).median();
  core_layer(residents, solve_ms, track, tracer, out);
  out.metric("trace.overhead_pct",
             (traced.median() / untraced.median() - 1.0) * 100.0, "%");
  tracer.write_json(ctx.file("trace.json"), out.to_json());
}

}  // namespace perfbench
