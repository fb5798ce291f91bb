// Adaptive execution planning for the connected-components solvers.
//
// The single-shot pipeline has several interchangeable strategies (pull
// sweeps, frontier push, SIMD pull kernels, an async drain, union-find
// finishing) that were historically selected by static knobs.  Following
// Sutton et al.'s adaptive CC engine and ConnectIt's sampling-then-finish
// decomposition, this subsystem turns the choice into a *per-iteration*
// decision: a Planner observes the graph's structure (degree skew,
// density) once and the frontier trajectory every iteration, and emits a
// PlanStep for the executor (plan/solve.hpp) to run next.
//
// Three planner families share one interface:
//   * AdaptivePlanner — the runtime brain: density-threshold direction
//     switching, a skew-gated async drain, and a sampled
//     giant-component cutover to the union-find finish;
//   * FixedPlanner   — a scripted strategy sequence parsed from a
//     "fixed:<spec>" string (the adversarial plans of the crosscheck
//     matrix), its last step repeated forever;
//   * TracePlanner   — byte-exact replay of a recorded PlanTrace
//     (plan/trace.hpp).
//
// Planners only *advise*: the executor sanitizes every step against its
// correctness invariants (a push needs a materialised frontier;
// convergence is only declared at a fixed point), so a mispredicted or
// adversarial plan degrades performance, never the partition.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "frontier/density.hpp"
#include "graph/csr_graph.hpp"
#include "support/simd.hpp"

namespace thrifty::plan {

/// What the executor runs for one iteration.
enum class StepKind {
  /// Full Jacobi pull sweep (gather-min over every vertex).
  kPull,
  /// Pull sweep that additionally materialises the changed-vertex
  /// frontier, enabling push iterations afterwards.
  kPullFrontier,
  /// Frontier push: propagate each frontier vertex's captured label to
  /// its neighbours with atomic-min.
  kPush,
  /// Union-find finish: hook every edge into a forest seeded from the
  /// current labels, compress, done (terminal, exact).
  kFinish,
  /// Barrier-free async drain (core/async_cc.hpp): edge-balanced
  /// partitions propagate through the shared label array with CAS-min
  /// publishes and per-partition dirty flags until global quiescence
  /// (terminal, exact — the min fixed point is schedule-independent).
  kAsync,
};

[[nodiscard]] const char* to_string(StepKind kind);
/// Parses "pull" | "pullf" | "push" | "finish" | "async"; nullopt
/// otherwise.
[[nodiscard]] std::optional<StepKind> parse_step_kind(std::string_view text);

/// One iteration's full prescription.
struct PlanStep {
  StepKind kind = StepKind::kPull;
  /// Pull iterations: kernel instruction-set ceiling for the gather-min
  /// sweep (resolved against host support by the executor).
  support::SimdLevel simd = support::SimdLevel::kAuto;

  friend bool operator==(const PlanStep&, const PlanStep&) = default;
};

/// What a planner can see when deciding iteration `iteration`.  All
/// fields are deterministic functions of (graph, options, previous plan
/// steps) — the executor's Jacobi/captured-label discipline keeps them
/// independent of thread count and schedule.
struct Observation {
  int iteration = 0;
  /// Vertices whose label changed in the previous iteration (every
  /// vertex before the first).
  std::uint64_t active_vertices = 0;
  /// Combined degree of those vertices.
  std::uint64_t active_edges = 0;
  /// Frontier density (|F.V| + |F.E|) / |E| those counts imply.
  double density = 0.0;
  /// Fraction of a seeded label sample covered by the most frequent
  /// label — the ConnectIt giant-component estimate.  Negative when the
  /// executor did not sample this iteration.
  double giant_fraction = -1.0;
  /// Whether a materialised frontier from the previous iteration exists
  /// (a push step is only executable when it does).
  bool have_frontier = false;
};

/// Structure profile sampled once at solve start (seeded, O(samples)).
struct GraphProfile {
  graph::VertexId num_vertices = 0;
  graph::EdgeOffset num_directed_edges = 0;
  double average_degree = 0.0;
  /// Largest degree seen: the vertex sample, anchored by the exact
  /// maximum-degree scan (a sample alone almost surely misses a single
  /// dominant hub).
  graph::EdgeOffset max_sampled_degree = 0;
  /// max_sampled_degree / max(average_degree, 1) — the skew signal that
  /// gates the async drain.
  double skew = 0.0;

  [[nodiscard]] static GraphProfile sample(const graph::CsrGraph& graph,
                                           std::uint64_t seed,
                                           std::uint32_t samples = 1024);
};

/// Knobs of the adaptive planner.
struct PlanOptions {
  /// Push/pull switch point on frontier density.
  double density_threshold = frontier::kThriftyThreshold;
  /// Sampled giant coverage that triggers the union-find finish;
  /// values outside (0, 1] disable the cutover.  The cutover needs at
  /// least one completed sweep first — the giant estimate is
  /// meaningless on identity-initialised labels.
  double finish_cutover = 0.75;
  /// Sampled degree skew at or above which the planner never routes a
  /// mid-density iteration to the async drain.
  double async_max_skew = 8.0;
  /// Vertices sampled for the profile and the giant estimate.
  std::uint32_t sample_size = 1024;
  /// Seed for both sampling streams.
  std::uint64_t seed = 1;
  /// Kernel ceiling stamped into every emitted step.
  support::SimdLevel simd = support::SimdLevel::kAuto;
};

/// The decision interface.  next() is called once per iteration while
/// the solve has not converged; implementations must be deterministic in
/// (construction arguments, observation sequence).
class Planner {
 public:
  virtual ~Planner() = default;
  [[nodiscard]] virtual PlanStep next(const Observation& observation) = 0;
};

/// The runtime brain: density-threshold direction switching, a
/// mid-density barrier-free async drain on moderate-skew profiles,
/// sampled giant-component cutover to the finish.
class AdaptivePlanner : public Planner {
 public:
  AdaptivePlanner(const GraphProfile& profile, const PlanOptions& options);
  [[nodiscard]] PlanStep next(const Observation& observation) override;

 private:
  GraphProfile profile_;
  PlanOptions options_;
};

/// Scripted sequence; the last step repeats forever, so every fixed plan
/// is total (the executor's convergence protocol supplies termination).
class FixedPlanner : public Planner {
 public:
  explicit FixedPlanner(std::vector<PlanStep> steps);
  [[nodiscard]] PlanStep next(const Observation& observation) override;

 private:
  std::vector<PlanStep> steps_;
  std::size_t cursor_ = 0;
};

/// How a solve should be planned, parsed from a --plan / THRIFTY_PLAN
/// value: "auto", "fixed:<spec>", or "replay:<file>".
///
/// A fixed spec is a comma-separated list of `<kind>[*<count>]` items
/// over the kinds pull | pullf | push | finish | async, e.g.
/// "fixed:push", "fixed:pull*2,finish", "fixed:async".  The final item
/// repeats until convergence.
struct PlanSpec {
  enum class Mode { kAuto, kFixed, kReplay };
  Mode mode = Mode::kAuto;
  /// Expanded step sequence (kFixed only).
  std::vector<PlanStep> fixed_steps;
  /// Trace file to replay (kReplay only).
  std::string replay_path;
  /// The spec text this was parsed from ("auto" for the default), kept
  /// verbatim so traces and repro files can round-trip it.
  std::string text = "auto";

  friend bool operator==(const PlanSpec&, const PlanSpec&) = default;
};

/// Parses a plan spec.  Empty input means "auto" (an unset knob).
/// Throws std::runtime_error with a usable message on malformed input
/// (unknown kind, zero/negative repeat, unrecognised prefix); repeat
/// counts are capped at 2^20 steps, far beyond what any solve consumes.
[[nodiscard]] PlanSpec parse_plan_spec(const std::string& text);

}  // namespace thrifty::plan
