// Tests for the barrier-free async engine (core/async_cc.hpp):
// partition equality against the sequential union-find reference across
// thread counts and scenario families, quiescence termination on a
// giant-free all-satellites graph, in-place drains from partially
// converged states, and a 4-thread stress loop that gives
// ThreadSanitizer a dense interleaving surface over the shared atomic
// label array (the TSan CI leg runs this binary with no suppressions).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cc_baselines/registry.hpp"
#include "core/async_cc.hpp"
#include "core/cc_common.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/csr_graph.hpp"
#include "support/parallel.hpp"
#include "testing/oracles.hpp"
#include "testing/scenario.hpp"

namespace thrifty::core {
namespace {

using graph::CsrGraph;
using graph::Label;
using graph::VertexId;

CsrGraph graph_for(const std::string& scenario_spec) {
  return testing::build_scenario_graph(
      testing::scenario_from_spec(scenario_spec));
}

/// An R-MAT graph with n + m above support::kSerialCutoff, so the drains
/// run on real teams (the scenario graphs are smaller).
CsrGraph large_rmat() {
  gen::RmatParams params;
  params.scale = 12;
  params.edge_factor = 8;
  params.seed = 11;
  return graph::build_csr(gen::rmat_edges(params)).graph;
}

CcOptions base_options() {
  CcOptions options;
  options.seed = 7;
  return options;
}

// The acceptance bar: the async fixed point is the canonical partition,
// independent of schedule — at one thread (pure Gauss–Seidel), two, and
// eight (steal-heavy), over families that stress hubs, many components,
// low-conductance bridges, skewed degrees and random composition.
TEST(AsyncCc, MatchesReferenceAcrossThreadCountsAndFamilies) {
  const std::vector<std::string> scenarios = {
      "hub_star:1",          "all_satellites:2", "two_clique_bridge:3",
      "permuted_rmat:4",     "random:5",         "hub_star:6",
      "all_satellites:6",    "large_rmat"};
  for (const std::string& scenario : scenarios) {
    const CsrGraph graph =
        scenario == "large_rmat" ? large_rmat() : graph_for(scenario);
    const std::vector<Label> reference = testing::reference_partition(graph);
    for (const int threads : {1, 2, 8}) {
      support::ThreadCountGuard guard(threads);
      const CcResult result = async_cc(graph, base_options());
      EXPECT_TRUE(same_partition(result.label_span(), reference))
          << scenario << " diverged at " << threads << " threads";
    }
  }
}

// Quiescence termination with no giant component: an all-satellites
// graph keeps every partition's work tiny and disconnected, so the
// dirty pool drains to empty almost immediately and termination rests
// entirely on the two-phase counter (nothing keeps workers busy long
// enough to paper over a missed hand-off).  The test passing at all
// *is* the termination property; the partition check and the activation
// floor (every partition starts dirty, so each must drain at least
// once) confirm the drain actually did the work.
TEST(AsyncCc, QuiescesOnAllSatellitesGraph) {
  const CsrGraph graph = graph_for("all_satellites:6");
  for (const int threads : {1, 4}) {
    support::ThreadCountGuard guard(threads);
    LabelArray labels = make_label_array(graph.num_vertices());
    support::parallel_for<VertexId>(graph.num_vertices(),
                                    [&](VertexId v) { labels[v] = v; });
    const AsyncStats stats =
        async_propagate(graph, labels.data(), base_options());
    EXPECT_GE(stats.activations, 1u);
    EXPECT_TRUE(same_partition({labels.data(), labels.size()},
                               testing::reference_partition(graph)));
  }
}

// An in-place drain from an already-converged state publishes nothing
// and leaves the labels untouched — the property the plan executor
// relies on when an async step follows synchronous sweeps.
TEST(AsyncCc, ConvergedInputIsAFixedPoint) {
  const CsrGraph graph = graph_for("two_clique_bridge:4");
  support::ThreadCountGuard guard(4);
  const CcResult first = async_cc(graph, base_options());
  LabelArray labels = make_label_array(graph.num_vertices());
  support::parallel_for<VertexId>(graph.num_vertices(), [&](VertexId v) {
    labels[v] = first.labels[v];
  });
  const AsyncStats stats =
      async_propagate(graph, labels.data(), base_options());
  EXPECT_EQ(stats.publishes, 0u);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(labels[v], first.labels[v]);
  }
}

TEST(AsyncCc, HandlesEmptyAndEdgelessGraphs) {
  {
    const CsrGraph empty = testing::build_scenario_graph(testing::Scenario{});
    const CcResult result = async_cc(empty, base_options());
    EXPECT_EQ(result.label_span().size(), 0u);
  }
  {
    testing::Scenario isolated;
    isolated.num_vertices = 17;
    const CsrGraph graph = testing::build_scenario_graph(isolated);
    const CcResult result = async_cc(graph, base_options());
    for (VertexId v = 0; v < 17; ++v) EXPECT_EQ(result.labels[v], v);
  }
}

TEST(AsyncCc, RegisteredAsLabelPropagationAlgorithm) {
  const baselines::AlgorithmEntry* entry =
      baselines::find_algorithm("async");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->function, &async_cc);
  EXPECT_TRUE(entry->is_label_propagation);
}

// TSan stress: repeated 4-thread drains over a skewed graph with a
// single coarse partitioning (one partition per thread) maximise
// cross-partition publish contention on the shared label array.  Any
// non-tagged access to a concurrently-updated slot shows up here as a
// data race; the engine must be clean with no suppressions.
TEST(AsyncCcStress, RepeatedFourThreadDrainsAreRaceFreeAndCorrect) {
  const CsrGraph graph = large_rmat();
  const std::vector<Label> reference = testing::reference_partition(graph);
  support::ThreadCountGuard guard(4);
  CcOptions contended = base_options();
  contended.partitions_per_thread = 1;
  for (int round = 0; round < 8; ++round) {
    CcOptions options = round % 2 == 0 ? base_options() : contended;
    options.seed = static_cast<std::uint64_t>(round + 1);
    const CcResult result = async_cc(graph, options);
    ASSERT_TRUE(same_partition(result.label_span(), reference))
        << "round " << round;
  }
}

}  // namespace
}  // namespace thrifty::core
