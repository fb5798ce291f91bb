// Tests for the metamorphic crosscheck harness itself: scenario specs,
// the perturbation matrix, the delta-debugging minimizer, fault
// injection end-to-end (detect -> minimize -> repro file -> replay), and
// repro parsing errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/cc_common.hpp"
#include "support/run_config.hpp"
#include "testing/crosscheck.hpp"
#include "testing/minimize.hpp"
#include "testing/oracles.hpp"
#include "testing/repro.hpp"
#include "testing/scenario.hpp"

namespace thrifty::testing {
namespace {

using graph::Edge;
using graph::EdgeList;
using graph::VertexId;

TEST(Scenario, SpecsRoundTripForEveryFamily) {
  for (const std::string& family : scenario_families()) {
    const std::string spec = family + ":17";
    const Scenario scenario = scenario_from_spec(spec);
    EXPECT_EQ(scenario.spec, spec);
    EXPECT_GT(scenario.num_vertices, 0u) << spec;
    // Replaying the spec reproduces the scenario byte for byte.
    const Scenario replay = scenario_from_spec(scenario.spec);
    EXPECT_EQ(replay.num_vertices, scenario.num_vertices) << spec;
    ASSERT_EQ(replay.edges.size(), scenario.edges.size()) << spec;
    for (std::size_t i = 0; i < replay.edges.size(); ++i) {
      EXPECT_EQ(replay.edges[i].u, scenario.edges[i].u) << spec;
      EXPECT_EQ(replay.edges[i].v, scenario.edges[i].v) << spec;
    }
  }
}

TEST(Scenario, RejectsMalformedSpecs) {
  EXPECT_THROW((void)scenario_from_spec("no_such_family:1"),
               std::runtime_error);
  EXPECT_THROW((void)scenario_from_spec("hub_star"), std::runtime_error);
  EXPECT_THROW((void)scenario_from_spec("hub_star:notanumber"),
               std::runtime_error);
}

TEST(Scenario, GraphPreservesVertexIds) {
  const Scenario scenario = make_all_satellites(3);
  const graph::CsrGraph graph = build_scenario_graph(scenario);
  // No zero-degree compaction: vertex count survives even with isolated
  // vertices, so oracle label mapping is the identity on ids.
  EXPECT_EQ(graph.num_vertices(), scenario.num_vertices);
}

TEST(Perturbation, MatrixCoversThreadsHubsThresholds) {
  // The hub-split axis is gone (push iterations no longer split hubs);
  // the test keeps its name so its history stays traceable.
  const std::vector<RunSetup> matrix = perturbation_matrix();
  // 3 threads x 3 thresholds + 2 forced-scalar kernel points
  // + 3 vertex-reorder points + 3 adversarial-plan points
  // + 2 async-plan points + 3 shard-count points.
  EXPECT_EQ(matrix.size(), 22u);
  EXPECT_EQ(std::count_if(matrix.begin(), matrix.end(),
                          [](const RunSetup& s) {
                            return s.density_threshold.has_value();
                          }),
            6);
  EXPECT_EQ(std::count_if(matrix.begin(), matrix.end(),
                          [](const RunSetup& s) {
                            return s.simd == support::SimdLevel::kScalar;
                          }),
            2);
  EXPECT_EQ(std::count_if(matrix.begin(), matrix.end(),
                          [](const RunSetup& s) {
                            return s.reorder != reorder::OrderKind::kNone;
                          }),
            3);
  EXPECT_EQ(std::count_if(matrix.begin(), matrix.end(),
                          [](const RunSetup& s) { return s.plan != "auto"; }),
            5);
  EXPECT_EQ(std::count_if(matrix.begin(), matrix.end(),
                          [](const RunSetup& s) {
                            return s.plan == "fixed:async";
                          }),
            2);
  EXPECT_EQ(std::count_if(matrix.begin(), matrix.end(),
                          [](const RunSetup& s) { return s.shards > 1; }),
            3);
  const RunSetup a = sampled_perturbation(5);
  const RunSetup b = sampled_perturbation(5);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.density_threshold, b.density_threshold);
  EXPECT_EQ(a.algorithm_seed, b.algorithm_seed);
}

TEST(Minimizer, ShrinksToSingleEdgeAndRenumbersDensely) {
  // Failure: the graph has at least one non-loop edge (invariant under
  // vertex renumbering, so the dense-id polish can apply).
  const FailurePredicate fails = [](const EdgeList& edges, VertexId) {
    return std::any_of(edges.begin(), edges.end(),
                       [](const Edge& e) { return e.u != e.v; });
  };
  EdgeList edges;
  for (VertexId v = 0; v + 1 < 64; ++v) edges.push_back({v, v + 1});
  const MinimizeResult result = minimize_failure(edges, 64, fails);
  EXPECT_TRUE(result.reached_minimum);
  ASSERT_EQ(result.edges.size(), 1u);
  EXPECT_TRUE(fails(result.edges, result.num_vertices));
  // Renumbering made the witness dense: ids 0 and 1, two vertices.
  EXPECT_EQ(result.num_vertices, 2u);
}

TEST(Minimizer, KeepsOriginalIdsWhenTheFailureDependsOnThem) {
  // Failure: the graph contains the specific edge {3, 7}.  Renumbering
  // would destroy it, so the minimizer must fall back to original ids.
  const FailurePredicate fails = [](const EdgeList& edges, VertexId) {
    return std::any_of(edges.begin(), edges.end(), [](const Edge& e) {
      return (e.u == 3 && e.v == 7) || (e.u == 7 && e.v == 3);
    });
  };
  EdgeList edges;
  for (VertexId v = 0; v + 1 < 64; ++v) edges.push_back({v, v + 1});
  edges.push_back({3, 7});
  const MinimizeResult result = minimize_failure(edges, 64, fails);
  ASSERT_EQ(result.edges.size(), 1u);
  EXPECT_EQ(result.num_vertices, 64u);
  EXPECT_TRUE(fails(result.edges, result.num_vertices));
}

TEST(Minimizer, BudgetExhaustionStillFails) {
  const FailurePredicate fails = [](const EdgeList& edges, VertexId) {
    return !edges.empty();
  };
  EdgeList edges;
  for (VertexId v = 0; v < 200; ++v) edges.push_back({v, v});
  const MinimizeResult result =
      minimize_failure(edges, 200, fails, /*max_evaluations=*/5);
  EXPECT_FALSE(result.reached_minimum);
  EXPECT_TRUE(fails(result.edges, result.num_vertices));
}

TEST(Crosscheck, CleanSweepIsDeterministic) {
  CrosscheckOptions options;
  options.num_scenarios = 15;
  options.base_seed = 3;
  const CrosscheckSummary first = run_crosscheck(options);
  const CrosscheckSummary second = run_crosscheck(options);
  EXPECT_TRUE(first.clean());
  EXPECT_EQ(first.scenarios, 15);
  EXPECT_EQ(first.algorithm_runs, second.algorithm_runs);
  EXPECT_EQ(first.failures.size(), second.failures.size());
}

TEST(Crosscheck, CorpusSpecsRunCleanUnderFullMatrix) {
  CrosscheckOptions options;
  options.num_scenarios = 0;
  options.corpus_specs = {"hub_star:1", "two_clique_bridge:5"};
  options.perturb = CrosscheckOptions::Perturb::kFull;
  const CrosscheckSummary summary = run_crosscheck(options);
  EXPECT_TRUE(summary.clean());
  EXPECT_EQ(summary.scenarios, 2);
  // Per scenario: the default setup and every matrix point run the
  // whole registry, and so does the permutation oracle; each matrix
  // point with shards > 1 adds one sharded solve; monotonicity, service
  // ingest and the seed-rotated sharded leg add one run each.
  const std::vector<RunSetup> matrix = perturbation_matrix();
  const auto sharded_points = static_cast<std::uint64_t>(
      std::count_if(matrix.begin(), matrix.end(),
                    [](const RunSetup& s) { return s.shards > 1; }));
  const std::uint64_t registry = baselines::all_algorithms().size();
  EXPECT_EQ(summary.algorithm_runs,
            2u * ((1u + matrix.size()) * registry + registry +
                  sharded_points + 3u));
}

class InjectedFault : public ::testing::Test {
 protected:
  CrosscheckSummary sweep(FaultKind kind, const std::string& algorithm) {
    CrosscheckOptions options;
    options.num_scenarios = 5;
    options.base_seed = 1;
    options.max_failures = 1;
    options.fault = {kind, algorithm};
    return run_crosscheck(options);
  }
};

TEST_F(InjectedFault, SplitIsDetectedAndMinimized) {
  const CrosscheckSummary summary = sweep(FaultKind::kSplitComponent,
                                          "thrifty");
  ASSERT_EQ(summary.failures.size(), 1u);
  const Repro& repro = summary.failures[0].repro;
  EXPECT_EQ(repro.algorithm, "thrifty");
  EXPECT_EQ(repro.oracle, "cross_algorithm");
  EXPECT_EQ(repro.fault, FaultKind::kSplitComponent);
  // Acceptance bar: the minimized witness is at most 32 edges (a split
  // needs just one).
  EXPECT_LE(repro.edges.size(), 32u);
  EXPECT_GE(repro.edges.size(), 1u);
  EXPECT_TRUE(replay_repro(repro));
  // Clearing the fault clears the discrepancy: the bug lives in the
  // injection, not the algorithm.
  Repro healthy = repro;
  healthy.fault = FaultKind::kNone;
  EXPECT_FALSE(replay_repro(healthy));
}

TEST_F(InjectedFault, MergeIsDetectedAndMinimized) {
  const CrosscheckSummary summary = sweep(FaultKind::kMergeComponents,
                                          "afforest");
  ASSERT_EQ(summary.failures.size(), 1u);
  const Repro& repro = summary.failures[0].repro;
  EXPECT_EQ(repro.algorithm, "afforest");
  EXPECT_EQ(repro.fault, FaultKind::kMergeComponents);
  // A merge needs two components; the minimal witness is two vertices
  // and zero or few edges.
  EXPECT_LE(repro.edges.size(), 32u);
  EXPECT_GE(repro.num_vertices, 2u);
  EXPECT_TRUE(replay_repro(repro));
}

TEST_F(InjectedFault, ReproFileRoundTripsAndReplays) {
  const CrosscheckSummary summary = sweep(FaultKind::kSplitComponent,
                                          "dolp");
  ASSERT_EQ(summary.failures.size(), 1u);
  const Repro& original = summary.failures[0].repro;

  std::ostringstream out;
  write_repro(out, original);
  std::istringstream in(out.str());
  const Repro parsed = read_repro(in);
  EXPECT_EQ(parsed.scenario_spec, original.scenario_spec);
  EXPECT_EQ(parsed.oracle, original.oracle);
  EXPECT_EQ(parsed.algorithm, original.algorithm);
  EXPECT_EQ(parsed.setup.threads, original.setup.threads);
  EXPECT_EQ(parsed.setup.density_threshold,
            original.setup.density_threshold);
  EXPECT_EQ(parsed.setup.algorithm_seed, original.setup.algorithm_seed);
  EXPECT_EQ(parsed.setup.reorder, original.setup.reorder);
  EXPECT_EQ(parsed.fault, original.fault);
  EXPECT_EQ(parsed.num_vertices, original.num_vertices);
  ASSERT_EQ(parsed.edges.size(), original.edges.size());
  EXPECT_TRUE(replay_repro(parsed));

  // The reorder dimension persists through the file and the replayed
  // run still goes through the reorder -> solve -> map-back pipeline.
  Repro reordered = original;
  reordered.setup.reorder = reorder::OrderKind::kHubCluster;
  std::ostringstream reordered_out;
  write_repro(reordered_out, reordered);
  std::istringstream reordered_in(reordered_out.str());
  const Repro reparsed = read_repro(reordered_in);
  EXPECT_EQ(reparsed.setup.reorder, reorder::OrderKind::kHubCluster);
  EXPECT_TRUE(replay_repro(reparsed));

  // Files written before the reorder key existed parse as kNone.
  std::string text = reordered_out.str();
  const auto line_start = text.find("reorder ");
  ASSERT_NE(line_start, std::string::npos);
  text.erase(line_start, text.find('\n', line_start) - line_start + 1);
  std::istringstream legacy_in(text);
  EXPECT_EQ(read_repro(legacy_in).setup.reorder,
            reorder::OrderKind::kNone);
}

TEST_F(InjectedFault, ReproDirReceivesReplayableFiles) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "thrifty_crosscheck_test";
  std::filesystem::remove_all(dir);

  CrosscheckOptions options;
  options.num_scenarios = 5;
  options.base_seed = 1;
  options.max_failures = 1;
  options.fault = {FaultKind::kSplitComponent, "sv"};
  options.repro_dir = dir.string();
  const CrosscheckSummary summary = run_crosscheck(options);
  ASSERT_EQ(summary.failures.size(), 1u);
  ASSERT_FALSE(summary.failures[0].repro_path.empty());

  const Repro loaded = read_repro_file(summary.failures[0].repro_path);
  EXPECT_EQ(loaded.algorithm, "sv");
  EXPECT_TRUE(replay_repro(loaded));
  std::filesystem::remove_all(dir);
}

TEST(Repro, RejectsMalformedInput) {
  {
    std::istringstream in("not a repro\n");
    EXPECT_THROW((void)read_repro(in), std::runtime_error);
  }
  {
    // Truncated edge section.
    std::istringstream in(
        "# cc_crosscheck repro v1\nalgorithm thrifty\nfault none\n"
        "vertices 4\nedges 2\n0 1\n");
    EXPECT_THROW((void)read_repro(in), std::runtime_error);
  }
  {
    // Edge endpoint out of range.
    std::istringstream in(
        "# cc_crosscheck repro v1\nalgorithm thrifty\nfault none\n"
        "vertices 2\nedges 1\n0 5\n");
    EXPECT_THROW((void)read_repro(in), std::runtime_error);
  }
}

TEST(Repro, UnknownKeysAreSkippedNotFatal) {
  // Newer-writer direction: a file carrying keys this reader has never
  // heard of must still parse — the unknown lines are warned about and
  // skipped, and every known key keeps its effect regardless of where
  // the unknown ones appear.
  std::istringstream in(
      "# cc_crosscheck repro v1\n"
      "future_knob enabled\n"
      "algorithm thrifty\n"
      "shiny_new_policy aggressive 3 levels\n"
      "threads 2\n"
      "vertices 3\n"
      "edges 1\n"
      "0 1\n");
  const Repro repro = read_repro(in);
  EXPECT_EQ(repro.algorithm, "thrifty");
  EXPECT_EQ(repro.setup.threads, 2);
  EXPECT_EQ(repro.num_vertices, 3u);
  ASSERT_EQ(repro.edges.size(), 1u);

  // A bad value on a *known* key is still a hard error: skipping it
  // would silently change what the repro replays.
  std::istringstream bad_known(
      "# cc_crosscheck repro v1\nsimd warp9\nvertices 2\nedges 0\n");
  EXPECT_THROW((void)read_repro(bad_known), std::runtime_error);
}

TEST(Repro, LegacyHubSplitDegreeLineParsesAndReplaysClean) {
  // Files written while push iterations still split hubs carry a
  // hub_split_degree line, and files written while placement and steal
  // scope were run knobs carry placement and numa_steal lines.  All
  // three are read and ignored, and the run the file describes replays
  // without a discrepancy.
  std::istringstream in(
      "# cc_crosscheck repro v1\n"
      "spec hub_star:1\n"
      "oracle cross_algorithm\n"
      "algorithm thrifty\n"
      "threads 2\n"
      "hub_split_degree 4\n"
      "density_threshold default\n"
      "placement os\n"
      "numa_steal global\n"
      "fault none\n"
      "vertices 5\n"
      "edges 4\n"
      "0 1\n0 2\n0 3\n0 4\n");
  const Repro repro = read_repro(in);
  EXPECT_EQ(repro.algorithm, "thrifty");
  EXPECT_EQ(repro.setup.threads, 2);
  EXPECT_EQ(repro.num_vertices, 5u);
  ASSERT_EQ(repro.edges.size(), 4u);
  EXPECT_FALSE(replay_repro(repro));

  std::ostringstream out;
  write_repro(out, repro);
  EXPECT_EQ(out.str().find("hub_split"), std::string::npos);
  EXPECT_EQ(out.str().find("placement"), std::string::npos);
  EXPECT_EQ(out.str().find("numa_steal"), std::string::npos);
}

TEST(Repro, RoundTripsForwardAndBackward) {
  Repro repro;
  repro.scenario_spec = "gen:path:n=4";
  repro.oracle = "cross_algorithm";
  repro.algorithm = "thrifty";
  repro.detail = "detail with spaces";
  repro.setup.threads = 2;
  repro.setup.algorithm_seed = 99;
  repro.num_vertices = 4;
  repro.edges = {{0, 1}, {2, 3}};

  // Forward: today's writer + a "newer" key -> today's reader.
  std::ostringstream out;
  write_repro(out, repro);
  std::string text = out.str();
  const auto vertices_at = text.find("vertices ");
  ASSERT_NE(vertices_at, std::string::npos);
  text.insert(vertices_at, "from_the_future 42\n");
  std::istringstream forward(text);
  const Repro reread = read_repro(forward);
  EXPECT_EQ(reread.algorithm, repro.algorithm);
  EXPECT_EQ(reread.detail, repro.detail);
  EXPECT_EQ(reread.setup.threads, repro.setup.threads);
  EXPECT_EQ(reread.setup.algorithm_seed, repro.setup.algorithm_seed);
  EXPECT_EQ(reread.num_vertices, repro.num_vertices);
  ASSERT_EQ(reread.edges.size(), repro.edges.size());

  // Backward: an "older" file missing optional keys parses with the
  // RunSetup defaults filling the gaps.
  std::istringstream backward(
      "# cc_crosscheck repro v1\n"
      "algorithm thrifty\n"
      "vertices 2\n"
      "edges 1\n"
      "0 1\n");
  const Repro legacy = read_repro(backward);
  EXPECT_EQ(legacy.setup.simd, support::SimdLevel::kAuto);
  EXPECT_EQ(legacy.setup.reorder, reorder::OrderKind::kNone);
  EXPECT_EQ(legacy.fault, FaultKind::kNone);
}

TEST(Repro, ReplayRejectsUnknownAlgorithm) {
  Repro repro;
  repro.algorithm = "no_such_algorithm";
  repro.num_vertices = 2;
  repro.edges = {{0, 1}};
  EXPECT_THROW((void)replay_repro(repro), std::runtime_error);
}

TEST(Repro, PlanAndStealScopeRoundTripWithLegacyDefaults) {
  Repro repro;
  repro.algorithm = "adaptive";
  repro.setup.plan = "fixed:pullf,push,finish";
  repro.num_vertices = 2;
  repro.edges = {{0, 1}};
  std::ostringstream out;
  write_repro(out, repro);
  std::istringstream in(out.str());
  const Repro parsed = read_repro(in);
  EXPECT_EQ(parsed.setup.plan, repro.setup.plan);

  // Files from before the plan key existed parse with the RunSetup
  // default.
  std::istringstream legacy(
      "# cc_crosscheck repro v1\nalgorithm thrifty\n"
      "vertices 2\nedges 0\n");
  const Repro old = read_repro(legacy);
  EXPECT_EQ(old.setup.plan, "auto");

  // The steal scope is no longer a run knob: its legacy key is read and
  // ignored whatever its value, so a file carrying one still parses.
  std::istringstream steal(
      "# cc_crosscheck repro v1\nnuma_steal everywhere\n"
      "vertices 2\nedges 0\n");
  const Repro ignored = read_repro(steal);
  EXPECT_EQ(ignored.num_vertices, 2u);
  EXPECT_TRUE(ignored.edges.empty());
}

// Regression: run_under used to inherit the scheduler/plan knobs from
// the ambient process config instead of the RunSetup, so a repro file
// did not pin the full effective configuration — mutating the
// environment between generating a repro and replaying it changed what
// the replay ran.
TEST(RunSetup, SnapshotsFullConfigIgnoringAmbientMutation) {
  const graph::CsrGraph graph = build_scenario_graph(make_hub_star(2));
  const auto* adaptive = baselines::find_algorithm("adaptive");
  ASSERT_NE(adaptive, nullptr);
  const std::vector<graph::Label> reference = reference_partition(graph);

  // The setup's plan reaches the solver: an unparsable plan spec is
  // rejected at solve start, proving the knob came from the setup and
  // not from the (valid) ambient config.
  RunSetup bad_plan;
  bad_plan.plan = "fixed:bogus";
  EXPECT_THROW((void)run_under(*adaptive, graph, bad_plan),
               std::runtime_error);

  // The converse direction — the actual regression: a hostile ambient
  // config mutated after the repro was generated must not leak into the
  // replayed run, because the setup snapshots every knob.
  support::RunConfig hostile = support::run_config();
  hostile.plan = "fixed:bogus";
  const support::RunConfigOverride scope(hostile);
  const RunSetup defaults;
  const core::CcResult result = run_under(*adaptive, graph, defaults);
  EXPECT_TRUE(core::same_partition(result.label_span(), reference));
}

TEST(Fault, ApplyFaultNoOpsWhenNothingToCorrupt) {
  // Split needs a class of >= 2 vertices.
  std::vector<graph::Label> singletons = {0, 1, 2};
  std::vector<graph::Label> copy = singletons;
  apply_fault(FaultKind::kSplitComponent, singletons);
  EXPECT_EQ(singletons, copy);
  // Merge needs >= 2 classes.
  std::vector<graph::Label> one_class = {0, 0, 0};
  copy = one_class;
  apply_fault(FaultKind::kMergeComponents, one_class);
  EXPECT_EQ(one_class, copy);
}

TEST(Fault, SplitAndMergeChangeThePartition) {
  std::vector<graph::Label> labels = {0, 0, 0, 3, 3};
  std::vector<graph::Label> split = labels;
  apply_fault(FaultKind::kSplitComponent, split);
  EXPECT_FALSE(core::same_partition(split, labels));
  EXPECT_EQ(core::count_components(split), 3u);

  std::vector<graph::Label> merged = labels;
  apply_fault(FaultKind::kMergeComponents, merged);
  EXPECT_FALSE(core::same_partition(merged, labels));
  EXPECT_EQ(core::count_components(merged), 1u);
}

}  // namespace
}  // namespace thrifty::testing
