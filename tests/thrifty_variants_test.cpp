// Tests of the ablation variants: every combination must stay correct
// (removing an optimisation may cost time, never correctness), and the
// run statistics must reflect exactly which technique was disabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/thrifty.hpp"
#include "core/verify.hpp"
#include "gen/combine.hpp"
#include "gen/grid.hpp"
#include "gen/rmat.hpp"
#include "gen/simple.hpp"
#include "graph/builder.hpp"
#include "instrument/run_stats.hpp"
#include "support/parallel.hpp"

namespace thrifty::core {
namespace {

using graph::CsrGraph;
using graph::VertexId;
using instrument::Direction;

CsrGraph skewed_graph(int scale = 12, int edge_factor = 8) {
  gen::RmatParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  return graph::build_csr(gen::rmat_edges(params)).graph;
}

std::vector<ThriftyVariant> all_variants() {
  std::vector<ThriftyVariant> variants;
  for (const PlantSite site : {PlantSite::kMaxDegree, PlantSite::kRandom,
                               PlantSite::kFirstVertex}) {
    for (const bool push : {true, false}) {
      for (const bool zero : {true, false}) {
        variants.push_back({site, push, zero});
      }
    }
  }
  return variants;
}

class VariantSweep : public ::testing::TestWithParam<int> {};

TEST_P(VariantSweep, EveryVariantProducesCorrectComponents) {
  const ThriftyVariant variant =
      all_variants()[static_cast<std::size_t>(GetParam())];
  // Skewed graph + disconnected mixture.
  const CsrGraph skew = skewed_graph();
  EXPECT_TRUE(
      verify_labels(skew,
                    thrifty_cc_variant(skew, {}, variant).label_span())
          .valid)
      << variant.describe();

  const std::vector<graph::EdgeList> parts{gen::clique_edges(64),
                                           gen::path_edges(64),
                                           gen::star_edges(64)};
  const std::vector<VertexId> sizes{64, 64, 64};
  const CsrGraph mixed =
      graph::build_csr(gen::disjoint_union(parts, sizes), 192).graph;
  EXPECT_TRUE(
      verify_labels(mixed,
                    thrifty_cc_variant(mixed, {}, variant).label_span())
          .valid)
      << variant.describe();
}

INSTANTIATE_TEST_SUITE_P(AllTwelve, VariantSweep,
                         ::testing::Range(0, 12));

TEST(ThriftyVariants, DescribeNamesAreDistinct) {
  std::vector<std::string> names;
  for (const auto& v : all_variants()) names.push_back(v.describe());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
  EXPECT_EQ(ThriftyVariant{}.describe(), "thrifty");
}

// The paper-exact loop (no pointer jump) is its own named variant and,
// combined with every other toggle, lands on the same labels.
TEST(ThriftyVariants, NoJumpVariantsAreNamedAndAgree) {
  EXPECT_EQ(ThriftyVariant{.pointer_jump = false}.describe(),
            "thrifty-nojump");
  const CsrGraph g = skewed_graph(11, 6);
  const auto reference = thrifty_cc(g);
  for (ThriftyVariant v : all_variants()) {
    v.pointer_jump = false;
    const auto result = thrifty_cc_variant(g, {}, v);
    EXPECT_EQ(result.stats.algorithm, v.describe());
    EXPECT_NE(v.describe().find("-nojump"), std::string::npos);
    if (v.plant_site == PlantSite::kMaxDegree) {
      EXPECT_TRUE(std::equal(result.labels.begin(), result.labels.end(),
                             reference.labels.begin(),
                             reference.labels.end()))
          << v.describe();
    } else {
      EXPECT_EQ(canonical_labels(result.label_span()),
                canonical_labels(reference.label_span()))
          << v.describe();
    }
  }
}

TEST(ThriftyVariants, NoInitialPushStartsWithPull) {
  CcOptions options;
  options.instrument = true;
  const ThriftyVariant variant{PlantSite::kMaxDegree, false, true};
  const auto result =
      thrifty_cc_variant(skewed_graph(), options, variant);
  ASSERT_FALSE(result.stats.iterations.empty());
  EXPECT_EQ(result.stats.iterations.front().direction, Direction::kPull);
  for (const auto& it : result.stats.iterations) {
    EXPECT_NE(it.direction, Direction::kInitialPush);
  }
}

TEST(ThriftyVariants, NoZeroConvergenceNeverSkips) {
  CcOptions options;
  options.instrument = true;
  const ThriftyVariant variant{PlantSite::kMaxDegree, true, false};
  const auto result =
      thrifty_cc_variant(skewed_graph(), options, variant);
  EXPECT_EQ(result.stats.events.skipped_converged, 0u);
  EXPECT_EQ(result.stats.events.early_exits, 0u);
}

TEST(ThriftyVariants, ZeroConvergenceReducesEdgeWork) {
  CcOptions options;
  options.instrument = true;
  const CsrGraph g = skewed_graph(13, 12);
  const auto with_zero = thrifty_cc_variant(
      g, options, {PlantSite::kMaxDegree, true, true});
  const auto without_zero = thrifty_cc_variant(
      g, options, {PlantSite::kMaxDegree, true, false});
  EXPECT_LT(with_zero.stats.events.edges_processed,
            without_zero.stats.events.edges_processed);
}

TEST(ThriftyVariants, HubPlantingBeatsFirstVertexOnHubGraph) {
  // Star with the hub at a high id: planting at vertex 0 (a leaf) forces
  // extra propagation compared to planting at the hub.
  const CsrGraph g =
      graph::build_csr(gen::star_edges(10000, 9999)).graph;
  CcOptions options;
  options.instrument = true;
  const auto hub_plant = thrifty_cc_variant(
      g, options, {PlantSite::kMaxDegree, true, true});
  const auto v0_plant = thrifty_cc_variant(
      g, options, {PlantSite::kFirstVertex, true, true});
  EXPECT_LE(hub_plant.stats.num_iterations,
            v0_plant.stats.num_iterations);
  EXPECT_LE(hub_plant.stats.events.edges_processed,
            v0_plant.stats.events.edges_processed);
}

TEST(ThriftyVariants, RandomPlantIsSeedDeterministic) {
  const CsrGraph g = skewed_graph(11, 6);
  CcOptions options;
  options.seed = 1234;
  const ThriftyVariant variant{PlantSite::kRandom, true, true};
  const auto a = thrifty_cc_variant(g, options, variant);
  const auto b = thrifty_cc_variant(g, options, variant);
  EXPECT_TRUE(std::equal(a.labels.begin(), a.labels.end(),
                         b.labels.begin(), b.labels.end()));
}

TEST(ThriftyVariants, AllVariantsAgreeOnPartition) {
  const CsrGraph g = skewed_graph(11, 6);
  const auto reference = thrifty_cc(g);
  const auto canonical = canonical_labels(reference.label_span());
  for (const auto& v : all_variants()) {
    const auto result = thrifty_cc_variant(g, {}, v);
    EXPECT_EQ(canonical, canonical_labels(result.label_span()))
        << v.describe();
  }
}

TEST(ThriftyVariants, VariantWorksOnRoadGrid) {
  gen::GridParams params;
  params.width = 64;  // n + m above support::kSerialCutoff
  params.height = 64;
  const CsrGraph g =
      graph::build_csr(gen::grid_edges(params), 64 * 64).graph;
  for (const auto& v : all_variants()) {
    EXPECT_TRUE(
        verify_labels(g, thrifty_cc_variant(g, {}, v).label_span()).valid)
        << v.describe();
  }
}


TEST(ThriftyPlanting, MaxDegreeSelectionIsDeterministicPerThreadCount) {
  // The maximum-degree plant site (Lines 5-8: degree descending, then id
  // ascending) must not depend on the thread width.  Disjoint stars, the
  // first of them a largest one: its centre is the plant site — uniquely
  // for eight strictly decreasing stars, by the smaller id for two equal
  // stars — so exactly its component holds 0 (every other label is some
  // v+1 > 0).  Both graphs have at least support::kSerialCutoff vertices,
  // so the argmax runs on a team at 2 and 4 threads.
  const std::vector<std::vector<VertexId>> star_sizes{
      {4096, 3840, 3584, 3328, 3072, 2816, 2560, 2304}, {8192, 8192}};
  for (const auto& sizes : star_sizes) {
    std::vector<graph::EdgeList> parts;
    VertexId total = 0;
    for (const VertexId size : sizes) {
      parts.push_back(gen::star_edges(size));
      total += size;
    }
    const CsrGraph g =
        graph::build_csr(gen::disjoint_union(parts, sizes), total).graph;
    for (const int threads : {1, 2, 4}) {
      support::ThreadCountGuard guard(threads);
      const auto result = thrifty_cc_variant(g, {}, {});
      EXPECT_TRUE(verify_labels(g, result.label_span()).valid);
      for (VertexId v = 0; v < total; ++v) {
        EXPECT_EQ(result.labels[v] == 0, v < sizes.front())
            << sizes.size() << " stars, vertex " << v
            << " threads=" << threads;
      }
    }
  }
}

TEST(LabelUtilities, CompactLabelsDense) {
  const std::vector<graph::Label> labels{9, 9, 4, 9, 7, 4};
  const auto compact = compact_labels(labels);
  EXPECT_EQ(compact, (std::vector<graph::Label>{0, 0, 1, 0, 2, 1}));
  EXPECT_TRUE(same_partition(labels, compact));
}

TEST(LabelUtilities, ComponentSizesSortedDescending) {
  const std::vector<graph::Label> labels{1, 1, 1, 5, 5, 9};
  const auto sizes = component_sizes(labels);
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{3, 2, 1}));
  EXPECT_TRUE(component_sizes(std::vector<graph::Label>{}).empty());
}

}  // namespace
}  // namespace thrifty::core
