// Tests for src/plan: the adaptive planner's decision heuristics, the
// sampled graph profile, step-sequence and label determinism across
// thread counts, the sampling-then-finish cutover, and auto solves on
// every crosscheck family held to the union-find reference while
// reaching every step kind of the executor.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/cc_common.hpp"
#include "plan/plan.hpp"
#include "plan/solve.hpp"
#include "support/parallel.hpp"
#include "testing/oracles.hpp"
#include "testing/scenario.hpp"

namespace thrifty::plan {
namespace {

using graph::CsrGraph;
using graph::Label;
using instrument::Direction;

CsrGraph graph_for(const std::string& scenario_spec) {
  return testing::build_scenario_graph(
      testing::scenario_from_spec(scenario_spec));
}

core::CcOptions base_options() {
  core::CcOptions options;
  options.seed = 7;
  return options;
}

std::vector<Label> labels_of(const core::CcResult& result) {
  const auto span = result.label_span();
  return {span.begin(), span.end()};
}

/// The executed step sequence: one direction per iteration, and each
/// StepKind has its own direction (kFinish runs as kHook).
std::vector<Direction> directions_of(const core::CcResult& result) {
  std::vector<Direction> directions;
  for (const auto& iteration : result.stats.iterations) {
    directions.push_back(iteration.direction);
  }
  return directions;
}

bool has_finish_step(const core::CcResult& result) {
  for (const Direction direction : directions_of(result)) {
    if (direction == Direction::kHook) return true;
  }
  return false;
}

TEST(AdaptivePlanner, DensityThresholdDirectionSwitching) {
  GraphProfile profile;
  profile.num_vertices = 1000;
  profile.num_directed_edges = 10000;
  PlanOptions options;
  options.density_threshold = 0.01;
  AdaptivePlanner planner(profile, options);

  // Iteration 0 always runs the frontier-building pull.
  Observation obs;
  obs.iteration = 0;
  obs.density = 1.0;
  EXPECT_EQ(planner.next(obs), StepKind::kPullFrontier);

  // Sparse + materialised frontier -> push.
  obs.iteration = 1;
  obs.density = 0.005;
  obs.have_frontier = true;
  EXPECT_EQ(planner.next(obs), StepKind::kPush);

  // Sparse without a frontier -> the pull that materialises one.
  obs.have_frontier = false;
  EXPECT_EQ(planner.next(obs), StepKind::kPullFrontier);

  // Near the threshold (dense, but descending) -> pull with frontier so
  // the sparse regime can take over next iteration.
  obs.density = 0.02;
  EXPECT_EQ(planner.next(obs), StepKind::kPullFrontier);

  // Deep-dense -> plain pull, no packing overhead.
  obs.density = 0.9;
  EXPECT_EQ(planner.next(obs), StepKind::kPull);
}

// The async band: mid-density (between the direction threshold and 4x
// it) with moderate skew (>= 1, below async_max_skew) drains
// barrier-free; hub-dominated or degenerate-skew profiles keep the
// synchronous path, as does the deep-dense regime.
TEST(AdaptivePlanner, AsyncFiresOnlyInMidDensityModerateSkewBand) {
  GraphProfile profile;
  profile.num_vertices = 1000;
  profile.num_directed_edges = 10000;
  profile.skew = 3.0;
  PlanOptions options;
  options.density_threshold = 0.01;
  AdaptivePlanner moderate(profile, options);

  Observation obs;
  obs.iteration = 1;
  obs.density = 0.02;  // mid-density: [threshold, 4*threshold)
  EXPECT_EQ(moderate.next(obs), StepKind::kAsync);
  obs.density = 0.9;  // deep-dense: plain pull stays cheapest
  EXPECT_EQ(moderate.next(obs), StepKind::kPull);
  obs.density = 0.005;  // sparse: direction switching owns this regime
  EXPECT_NE(moderate.next(obs), StepKind::kAsync);
  obs.iteration = 0;  // bootstrap pull always runs first
  obs.density = 0.02;
  EXPECT_EQ(moderate.next(obs), StepKind::kPullFrontier);

  profile.skew = 20.0;  // hub-dominated: one hub would pin a partition
  AdaptivePlanner skewed(profile, options);
  obs.iteration = 1;
  EXPECT_EQ(skewed.next(obs), StepKind::kPullFrontier);

  profile.skew = 0.0;  // degenerate profile: signal says nothing
  AdaptivePlanner degenerate(profile, options);
  EXPECT_EQ(degenerate.next(obs), StepKind::kPullFrontier);
}

// The cutover is enabled once the executor samples a giant estimate
// (from iteration 1 on) and fires at kFinishCutover coverage.
TEST(AdaptivePlanner, GiantCutoverTriggersOnlyWhenEnabled) {
  GraphProfile profile;
  profile.num_vertices = 1000;
  profile.num_directed_edges = 10000;
  AdaptivePlanner planner(profile, PlanOptions{});

  Observation obs;
  obs.iteration = 2;
  obs.density = 0.5;
  obs.giant_fraction = 0.8;
  EXPECT_EQ(planner.next(obs), StepKind::kFinish);
  obs.giant_fraction = kFinishCutover;
  EXPECT_EQ(planner.next(obs), StepKind::kFinish);
  obs.giant_fraction = 0.5;
  EXPECT_NE(planner.next(obs), StepKind::kFinish);
  // A negative estimate means "not sampled" and can never cut over.
  obs.giant_fraction = -1.0;
  EXPECT_NE(planner.next(obs), StepKind::kFinish);
}

TEST(GraphProfile, SampleIsDeterministicAndSeesSkew) {
  const CsrGraph star = graph_for("hub_star:3");
  const GraphProfile a = GraphProfile::sample(star, 42);
  const GraphProfile b = GraphProfile::sample(star, 42);
  EXPECT_EQ(a.max_sampled_degree, b.max_sampled_degree);
  EXPECT_DOUBLE_EQ(a.skew, b.skew);
  // A hub star's dominant vertex dwarfs the average degree.
  EXPECT_GT(a.skew, 8.0);
}

// Decision determinism: for a fixed seed the planner must take the same
// steps — and the executor must produce byte-identical labels — at
// every thread count.  all_satellites drives the planner through its
// async band, so the terminal async step's label bytes are held to the
// same bar as the synchronous kinds.
TEST(Determinism, TraceAndLabelsIdenticalAtEveryThreadCount) {
  for (const char* scenario :
       {"permuted_rmat:5", "hub_star:2", "all_satellites:6"}) {
    const CsrGraph graph = graph_for(scenario);
    std::vector<Direction> reference_steps;
    std::vector<Label> reference_labels;
    for (const int threads : {1, 2, 4}) {
      support::ThreadCountGuard guard(threads);
      const core::CcResult result = solve_adaptive(graph, base_options());
      const std::vector<Direction> steps = directions_of(result);
      const std::vector<Label> labels = labels_of(result);
      ASSERT_FALSE(steps.empty()) << scenario;
      if (reference_steps.empty()) {
        reference_steps = steps;
        reference_labels = labels;
      } else {
        EXPECT_EQ(steps, reference_steps)
            << scenario << " steps differ at " << threads << " threads";
        EXPECT_EQ(labels, reference_labels)
            << scenario << " labels differ at " << threads << " threads";
      }
    }
  }
}

// Sampling-then-finish: a planted giant component must trigger the
// union-find cutover; a graph that is nothing but tiny satellites (the
// ClueWeb09 regime) must never trigger it.
TEST(Cutover, TriggersOnPlantedGiantNeverOnAllSatellites) {
  {
    const CsrGraph giant = graph_for("hub_star:6");
    const core::CcResult result = solve_adaptive(giant, base_options());
    EXPECT_TRUE(has_finish_step(result))
        << "giant component never cut over to the finish";
    EXPECT_TRUE(core::same_partition(result.label_span(),
                                     testing::reference_partition(giant)));
  }
  {
    const CsrGraph satellites = graph_for("all_satellites:6");
    const core::CcResult result =
        solve_adaptive(satellites, base_options());
    EXPECT_FALSE(has_finish_step(result))
        << "cutover fired with no giant component";
    EXPECT_TRUE(
        core::same_partition(result.label_span(),
                             testing::reference_partition(satellites)));
  }
}

// The auto planner alone reaches every executor branch: over the five
// crosscheck families and a few seeds it runs each step kind at least
// once, and every solve lands on the union-find reference partition.
TEST(AutoPlan, ReachesEveryStepKindAndMatchesReferenceOnEveryFamily) {
  std::set<Direction> executed;
  for (const std::string& family : testing::scenario_families()) {
    for (const int seed : {1, 2, 3}) {
      const std::string spec = family + ":" + std::to_string(seed);
      const CsrGraph graph = graph_for(spec);
      const std::vector<Label> reference =
          testing::reference_partition(graph);
      for (const int threads : {1, 4}) {
        support::ThreadCountGuard guard(threads);
        const core::CcResult result = solve_adaptive(graph, base_options());
        EXPECT_TRUE(core::same_partition(result.label_span(), reference))
            << spec << " diverged at " << threads << " threads";
        for (const Direction direction : directions_of(result)) {
          executed.insert(direction);
        }
      }
    }
  }
  for (const Direction kind :
       {Direction::kPull, Direction::kPullFrontier, Direction::kPush,
        Direction::kHook, Direction::kAsync}) {
    EXPECT_EQ(executed.count(kind), 1u)
        << instrument::to_string(kind) << " never ran";
  }
}

TEST(Solve, HandlesEmptyGraph) {
  testing::Scenario empty;
  const core::CcResult result = solve_adaptive(
      testing::build_scenario_graph(empty), base_options());
  EXPECT_TRUE(result.stats.iterations.empty());
  EXPECT_EQ(result.label_span().size(), 0u);
}

}  // namespace
}  // namespace thrifty::plan
