// End-to-end sweep tying the benchmark substrate to the algorithms: on
// every Table II stand-in (tiny scale) the headline algorithms must
// produce the exact connectivity partition, and the dataset's declared
// structure must show up in the run statistics (giant -> zero label,
// deep web -> many DO-LP iterations).
#include <gtest/gtest.h>

#include <string>

#include "bench_common/datasets.hpp"
#include "cc_baselines/registry.hpp"
#include "core/cc_common.hpp"
#include "core/thrifty.hpp"
#include "core/verify.hpp"
#include "support/env.hpp"

namespace thrifty {
namespace {

using support::Scale;

class DatasetAlgorithmSweep
    : public ::testing::TestWithParam<std::string> {};

TEST_P(DatasetAlgorithmSweep, HeadlineAlgorithmsExactOnStandIn) {
  const bench::DatasetSpec* spec = bench::find_dataset(GetParam());
  ASSERT_NE(spec, nullptr);
  const graph::CsrGraph g = bench::build_dataset(*spec, Scale::kTiny);
  const auto truth = core::true_component_count(g);
  for (const char* name :
       {"thrifty", "dolp", "afforest", "jt", "fastsv", "sampled_lp"}) {
    const auto* entry = baselines::find_algorithm(name);
    const auto result = baselines::run_algorithm(*entry, g);
    const auto verdict = core::verify_labels(g, result.label_span());
    EXPECT_TRUE(verdict.valid)
        << name << " on " << spec->name << ": " << verdict.message;
    EXPECT_EQ(verdict.components, truth) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStandIns, DatasetAlgorithmSweep,
    ::testing::Values("gb_road", "us_road", "pokec", "wiki", "ljournal",
                      "ljgroups", "twitter", "webbase", "friendster",
                      "sk_domain", "webcc", "uk_domain", "clueweb"),
    [](const auto& param_info) { return param_info.param; });

TEST(DatasetStructureShapes, SkewedStandInsConvergeToZero) {
  for (const char* name : {"pokec", "twitter", "sk_domain"}) {
    const graph::CsrGraph g =
        bench::build_dataset(*bench::find_dataset(name), Scale::kTiny);
    const auto result = core::thrifty_cc(g);
    const auto giant = core::largest_component(result.label_span());
    EXPECT_EQ(giant.label, 0u) << name;
    EXPECT_GT(static_cast<double>(giant.size) / g.num_vertices(), 0.9)
        << name;
  }
}

TEST(DatasetStructureShapes, DeepWebStandInForcesManyDolpIterations) {
  const graph::CsrGraph g =
      bench::build_dataset(*bench::find_dataset("webbase"), Scale::kTiny);
  core::CcOptions options;
  options.density_threshold = 0.05;
  const auto dolp =
      baselines::run_algorithm(*baselines::find_algorithm("dolp"), g);
  const auto thrifty_run = core::thrifty_cc(g);
  EXPECT_GT(dolp.stats.num_iterations, 50);
  EXPECT_LT(thrifty_run.stats.num_iterations, 20);
}

}  // namespace
}  // namespace thrifty
