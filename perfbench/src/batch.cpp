// skewed_batch and road_batch: snapshot path -> canonical labels, then
// repeated solves on the resident graph.
#include <array>
#include <string>

#include "cc_baselines/registry.hpp"
#include "core/cc_common.hpp"
#include "core/thrifty.hpp"
#include "graph/validate.hpp"
#include "io/mmap_io.hpp"
#include "reorder/reorder.hpp"
#include "tools/tool_common.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = thrifty::core;
namespace graph = thrifty::graph;
using graph::Label;

namespace {

constexpr int kTraceReps = 5;

/// One snapshot-to-labels run: tools::load_graph (the default stream
/// loader), core::thrifty_cc, core::canonical_labels.  The wall time goes
/// into `into`; the O(n) comparison with the reference is untimed.
void pipeline(const std::string& path, std::span<const Label> reference,
              Track* track, Samples& into, Outcome& out) {
  out.attempt("pipeline", [&] {
    graph::CsrGraph g;  // released after the clock stops
    std::vector<Label> canonical;
    const Stopwatch clock;
    {
      const Span root(track, "pipeline");
      {
        const Span call(track, "tools::load_graph");
        g = thrifty::tools::load_graph(path);
      }
      core::CcResult result;
      {
        const Span call(track, "core::thrifty_cc");
        result = core::thrifty_cc(g);
      }
      const Span call(track, "core::canonical_labels");
      canonical = core::canonical_labels(result.label_span());
    }
    const double ms = clock.ms();
    if (!std::equal(canonical.begin(), canonical.end(), reference.begin(),
                    reference.end())) {
      return false;
    }
    into.add(ms);
    return true;
  });
}

struct EngineRow {
  const char* name;
  const char* span;
  const char* metric;
  const char* ratio;
};

constexpr std::array<EngineRow, 5> kEngines = {{
    {"reference", "engine.reference", "engine.reference.solve_ms",
     "engine.reference.vs_thrifty"},
    {"afforest", "engine.afforest", "engine.afforest.solve_ms",
     "engine.afforest.vs_thrifty"},
    {"dolp", "engine.dolp", "engine.dolp.solve_ms", "engine.dolp.vs_thrifty"},
    {"adaptive", "engine.adaptive", "engine.adaptive.solve_ms",
     "engine.adaptive.vs_thrifty"},
    {"async", "engine.async", "engine.async.solve_ms",
     "engine.async.vs_thrifty"},
}};

/// Every engine of the registry row list, each checked against the
/// reference before it is timed.
void engine_rows(const graph::CsrGraph& g, std::span<const Label> reference,
                 double thrifty_ms, Track* track, Tracer& tracer,
                 Outcome& out) {
  namespace baselines = thrifty::baselines;
  for (const EngineRow& row : kEngines) {
    const baselines::AlgorithmEntry* entry =
        baselines::find_algorithm(row.name);
    const bool correct = out.attempt(row.span, [&] {
      if (entry == nullptr) return false;
      return same_partition_as(baselines::run_algorithm(*entry, g).label_span(),
                               reference);
    });
    if (!correct) {
      out.metric(row.metric, 0.0, "ms");
      out.metric(row.ratio, 0.0, "x");
      continue;
    }
    for (int rep = 0; rep < kLayerReps; ++rep) {
      out.attempt(row.span, [&] {
        core::CcResult result;
        {
          const Span root(track, row.span);
          const Span call(track, "baselines::run_algorithm");
          result = baselines::run_algorithm(*entry, g);
        }
        return same_partition_as(result.label_span(), reference);
      });
    }
    const double ms = tracer.durations(row.span, "-").median();
    out.metric(row.metric, ms, "ms");
    out.metric(row.ratio, thrifty_ms > 0.0 ? ms / thrifty_ms : 0.0, "x");
  }
}

/// Degree order + relabelled rebuild, then Thrifty on the reordered graph
/// with its answer mapped back to the original ids.
void reorder_rows(const graph::CsrGraph& g, std::span<const Label> reference,
                  Track* track, Tracer& tracer, Outcome& out) {
  namespace reorder = thrifty::reorder;
  reorder::Permutation perm;
  graph::CsrGraph reordered;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    out.attempt("reorder", [&] {
      const Span root(track, "reorder.degree");
      {
        const Span call(track, "reorder::make_order");
        perm = reorder::make_order(g, reorder::OrderKind::kDegree);
      }
      const Span call(track, "reorder::apply_permutation");
      reordered = reorder::apply_permutation(g, perm);
      return reordered.num_directed_edges() == g.num_directed_edges();
    });
  }
  for (int rep = 0; rep < kLayerReps; ++rep) {
    out.attempt("reorder solve", [&] {
      core::CcResult result;
      {
        const Span root(track, "reorder.degree_solve");
        const Span call(track, "core::thrifty_cc");
        result = core::thrifty_cc(reordered);
      }
      std::vector<Label> original(perm.size());
      for (std::size_t v = 0; v < perm.size(); ++v) {
        original[v] = result.labels[perm[v]];
      }
      return same_partition_as(original, reference);
    });
  }
  out.metric("reorder.degree_ms",
             tracer.durations("reorder.degree", "-").median(), "ms");
  out.metric("reorder.degree_solve_ms",
             tracer.durations("reorder.degree_solve", "-").median(), "ms");
}

}  // namespace

void run_batch(const Context& ctx, Outcome& out) {
  const bool skewed = ctx.workload == kSkewedBatch;
  const std::string path = ctx.file(skewed ? kSkewedSnapshot : kRoadSnapshot);
  const std::vector<Label> reference = read_labels(ctx.file(kReferenceLabels));
  const double snapshot_mb = static_cast<double>(file_bytes(path)) / (1 << 20);
  out.info("snapshot_mb", snapshot_mb);

  // pipeline_ms is defined on a warm page cache; this load warms it.
  graph::CsrGraph resident = thrifty::tools::load_graph(path);
  out.info("vertices", resident.num_vertices());
  out.info("directed_edges",
           static_cast<double>(resident.num_directed_edges()));
  const std::array<Resident, 1> residents = {{{&resident, reference}}};

  if (!ctx.trace) {
    Samples pipelines;
    Samples solves;
    measure_blocks(
        ctx, 0.6, [&] { pipeline(path, reference, nullptr, pipelines, out); },
        [&] { solve_once(residents, solves, out); });
    out.timing("pipeline_ms", pipelines);
    report_solves(solves, out);
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  Tracer tracer(true);
  Track* track = tracer.new_track();
  // Alternating untraced and traced runs keeps drift out of the overhead.
  Samples untraced;
  Samples traced;
  for (int i = 0; i < kTraceReps; ++i) {
    pipeline(path, reference, nullptr, untraced, out);
    pipeline(path, reference, track, traced, out);
  }
  const double solve_ms =
      time_solves(residents, kTraceSolves, out).median();
  out.metric("io.load_ms",
             tracer.durations("tools::load_graph", "pipeline").median(), "ms");
  for (int rep = 0; rep < kLayerReps; ++rep) {
    out.attempt("io::read_csr_mmap", [&] {
      const Span call(track, "io::read_csr_mmap");
      const graph::CsrGraph mapped = thrifty::io::read_csr_mmap(path);
      return mapped.num_directed_edges() == resident.num_directed_edges();
    });
    out.attempt("graph::validate_csr", [&] {
      graph::ValidateOptions options;
      options.check_symmetry = false;
      const Span call(track, "graph::validate_csr");
      return graph::validate_csr(resident, options).ok();
    });
  }
  out.metric("io.mmap_load_ms",
             tracer.durations("io::read_csr_mmap", "-").median(), "ms");
  out.metric("io.snapshot_mb", snapshot_mb, "MiB");
  out.metric("graph.validate_ms",
             tracer.durations("graph::validate_csr", "-").median(), "ms");
  core_layer(residents, solve_ms, track, tracer, out);
  if (skewed) {
    reorder_rows(resident, reference, track, tracer, out);
    engine_rows(resident, reference, solve_ms, track, tracer, out);
  }
  out.metric("trace.overhead_pct",
             (traced.median() / untraced.median() - 1.0) * 100.0, "%");
  tracer.write_json(ctx.file("trace.json"), out.to_json());
}

}  // namespace perfbench
