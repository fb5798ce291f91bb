// Workload definitions and the measurements several workloads share:
// timed Thrifty solves on a resident graph and the traced core-layer rows.
#pragma once

#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "graph/csr_graph.hpp"

namespace perfbench {

inline constexpr std::string_view kSkewedBatch = "skewed_batch";
inline constexpr std::string_view kRoadBatch = "road_batch";
inline constexpr std::string_view kServeMixed = "serve_mixed";
inline constexpr std::string_view kShardedStream = "sharded_stream";

// skewed_batch and sharded_stream: R-MAT scale 20 (the paper's skewed
// target).  serve_mixed: R-MAT scale 16, 60 % base graph, 40 % ingested.
inline constexpr int kRmatEdgeFactor = 16;
inline constexpr int kSkewedScale = 20;
inline constexpr int kServeScale = 16;
inline constexpr double kServeBaseShare = 0.6;
inline constexpr std::size_t kServeBatchEdges = 1024;
// road_batch: 2048 x 2048 grid with 2 % of the edges removed.
inline constexpr thrifty::graph::VertexId kRoadSide = 2048;
inline constexpr double kRoadRemoval = 0.02;
// sharded_stream: K shards.
inline constexpr int kShards = 4;

inline constexpr std::string_view kSkewedSnapshot = "skewed.bin";
inline constexpr std::string_view kRoadSnapshot = "road.bin";
inline constexpr std::string_view kServeBase = "serve_base.bin";
inline constexpr std::string_view kServeIngest = "serve_ingest.edges";
inline constexpr std::string_view kShardManifest = "sharded.shards";
inline constexpr std::string_view kReferenceLabels = "reference.labels";

/// Solves per run: enough that ten samples lie beyond the 90th percentile.
inline constexpr std::size_t kMinSolves = 100;
inline constexpr int kBlocks = 5;
/// Untraced solves behind the traced run's speed-up and engine ratios.
inline constexpr int kTraceSolves = 5;
/// Repetitions of each traced layer call (its metric is their median).
inline constexpr int kLayerReps = 3;

/// One graph the workload keeps in memory, with its reference canonical
/// labels.  A solve sample solves every resident graph once, in order.
struct Resident {
  const thrifty::graph::CsrGraph* graph = nullptr;
  std::span<const thrifty::graph::Label> reference;
};

/// graph::build_csr keeping every id of [0, n), so that ingested edges stay
/// inside the service's vertex space.
[[nodiscard]] thrifty::graph::CsrGraph build_keeping_ids(
    const thrifty::graph::EdgeList& edges, thrifty::graph::VertexId n);

/// Solves every resident once with core::thrifty_cc; adds the summed wall
/// time to `into` when every answer matches its reference (checked
/// untimed).
void solve_once(std::span<const Resident> residents, Samples& into,
                Outcome& out);

/// `count` solve samples.
[[nodiscard]] Samples time_solves(std::span<const Resident> residents,
                                  int count, Outcome& out);

/// The untraced measurement of a run.  The run's seconds are cut into
/// kBlocks equal blocks; each block calls `pipeline` (at least once) for
/// `pipeline_share` of the block and then `solve` until the block's time is
/// up, at least kMinSolves / kBlocks times (so a run with slow solves takes
/// longer than its seconds).  Spreading both metrics over the
/// whole run keeps a burst of outside load from landing on one of them.
void measure_blocks(const Context& ctx, double pipeline_share,
                    const std::function<void()>& pipeline,
                    const std::function<void()>& solve);

/// The traced core-layer rows on the resident graphs: counts from one
/// instrumented solve (never its milliseconds), the single-thread solve,
/// canonical_labels and verify_labels.  `solve_ms` is the untraced median
/// the speed-up is taken against.
void core_layer(std::span<const Resident> residents, double solve_ms,
                Track* track, Tracer& tracer, Outcome& out);

/// Adds solve_ms from solve samples (its 90th percentile goes to info).
void report_solves(const Samples& solves, Outcome& out);

}  // namespace perfbench
