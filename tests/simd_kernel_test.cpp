// Differential tests for the pull's gather kernel (support/simd.hpp).
//
// The kernel's contract is bit-identity: for any input, every vector
// variant returns exactly the value the scalar variant returns.  These
// tests enforce the contract directly — min_gather_u32 is run at every
// level the host supports and compared against the scalar oracle on
// inputs chosen to stress lane boundaries (empty, single element,
// one-below/at/above each vector width, large) — and end-to-end: whole
// CC algorithms must produce byte-identical label arrays and iteration
// counts under THRIFTY_SIMD=scalar and =auto.
//
// On hosts without AVX2/AVX-512 the per-level loops degenerate to
// scalar-vs-scalar, which keeps the suite portable (and still exercises
// the dispatch plumbing).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "cc_baselines/registry.hpp"
#include "core/cc_common.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/run_config.hpp"
#include "support/simd.hpp"
#include "testing/scenario.hpp"

namespace thrifty {
namespace {

using support::SimdLevel;
namespace simd = support::simd;

/// Every concrete level the host can execute, scalar always included.
std::vector<SimdLevel> testable_levels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (simd::max_supported() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  if (simd::max_supported() >= SimdLevel::kAvx512) {
    levels.push_back(SimdLevel::kAvx512);
  }
  return levels;
}

/// Sizes straddling every lane boundary of the 8-wide (AVX2) and
/// 16-wide (AVX-512) paths, plus their remainder tails.
const std::vector<std::size_t>& boundary_sizes() {
  static const std::vector<std::size_t> sizes = {
      0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 1000};
  return sizes;
}

std::vector<std::uint32_t> random_u32(std::size_t count,
                                      std::uint64_t seed,
                                      std::uint64_t bound) {
  support::Xoshiro256StarStar rng(seed);
  std::vector<std::uint32_t> values(count);
  for (auto& v : values) {
    v = static_cast<std::uint32_t>(rng.next_below(bound));
  }
  return values;
}

TEST(SimdKernels, MinGatherMatchesScalarAcrossLevelsAndTails) {
  for (const std::size_t count : boundary_sizes()) {
    const std::size_t table = std::max<std::size_t>(count, 1) * 2;
    const auto values = random_u32(table, 0x11 + count, 1u << 30);
    const auto raw = random_u32(count, 0x22 + count, table);
    const std::vector<std::uint32_t>& indices = raw;
    for (const std::uint32_t init :
         {0u, 5u, 0x7fffffffu, 0xffffffffu}) {
      const std::uint32_t expected = simd::min_gather_u32(
          values.data(), indices.data(), count, init,
          /*stop_at_zero=*/false, SimdLevel::kScalar);
      for (const SimdLevel level : testable_levels()) {
        EXPECT_EQ(simd::min_gather_u32(values.data(), indices.data(),
                                       count, init, false, level),
                  expected)
            << "count=" << count << " init=" << init
            << " level=" << support::to_string(level);
      }
    }
  }
}

TEST(SimdKernels, MinGatherZeroConvergenceEarlyExitNeverChangesResult) {
  // Plant a zero early in the scan: stop_at_zero may skip the rest of
  // the slice but must still return the true minimum (zero).
  for (const std::size_t count : boundary_sizes()) {
    if (count == 0) continue;
    auto values = random_u32(count, 0x33 + count, 1u << 30);
    for (auto& v : values) v += 1;  // no accidental zeros
    values[count / 3] = 0;
    std::vector<std::uint32_t> indices(count);
    std::iota(indices.begin(), indices.end(), 0u);
    for (const SimdLevel level : testable_levels()) {
      for (const bool stop : {false, true}) {
        EXPECT_EQ(simd::min_gather_u32(values.data(), indices.data(),
                                       count, 0xffffffffu, stop, level),
                  0u)
            << "count=" << count << " stop=" << stop
            << " level=" << support::to_string(level);
      }
    }
  }
}

TEST(SimdKernels, MinGatherStarIndexPattern) {
  // A hub adjacency gathers the same (satellite) labels repeatedly and
  // the minimum sits at the very last slot — the worst case for any
  // variant that mishandles its final partial chunk.
  constexpr std::size_t kCount = 257;
  std::vector<std::uint32_t> values(kCount, 1000);
  values[kCount - 1] = 7;
  std::vector<std::uint32_t> indices(kCount);
  std::iota(indices.begin(), indices.end(), 0u);
  for (const SimdLevel level : testable_levels()) {
    EXPECT_EQ(simd::min_gather_u32(values.data(), indices.data(), kCount,
                                   2000, false, level),
              7u)
        << support::to_string(level);
  }
}

TEST(SimdKernels, GatherLevelDemotesHugeIdSpaces) {
  EXPECT_EQ(simd::gather_level(SimdLevel::kAvx2, 1000),
            SimdLevel::kAvx2);
  EXPECT_EQ(simd::gather_level(SimdLevel::kAvx512, simd::kMaxGatherIds),
            SimdLevel::kAvx512);
  EXPECT_EQ(simd::gather_level(SimdLevel::kAvx512,
                               simd::kMaxGatherIds + 1),
            SimdLevel::kScalar);
}

/// Runs one algorithm on `graph` with the given kernel-level request at
/// a deterministic single-thread schedule.
core::CcResult run_at_level(const baselines::AlgorithmEntry& entry,
                            const graph::CsrGraph& graph,
                            SimdLevel request) {
  support::RunConfig config = support::run_config();
  config.simd = request;
  const support::RunConfigOverride scope(config);
  const support::ThreadCountGuard threads(1);
  core::CcOptions options;
  return baselines::run_algorithm(entry, graph, options);
}

TEST(SimdEndToEnd, AlgorithmsAreByteIdenticalScalarVsAuto) {
  // At one thread every algorithm is deterministic, so the bit-identity
  // contract lifts from kernels to whole runs: label arrays must be
  // byte-identical and iteration counts equal between THRIFTY_SIMD=
  // scalar and =auto.  Multi-thread agreement (as partitions) is
  // covered by the crosscheck matrix's forced-scalar points.
  std::vector<testing::Scenario> scenarios = {
      testing::make_hub_star(3),
      testing::make_all_satellites(5),
      testing::make_permuted_rmat(7),
      testing::make_two_clique_bridge(9),
  };
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    scenarios.push_back(testing::make_random(1000 + seed));
  }
  for (const auto& scenario : scenarios) {
    const graph::CsrGraph graph = testing::build_scenario_graph(scenario);
    for (const baselines::AlgorithmEntry& entry :
         baselines::all_algorithms()) {
      const core::CcResult scalar =
          run_at_level(entry, graph, SimdLevel::kScalar);
      const core::CcResult vector =
          run_at_level(entry, graph, SimdLevel::kAuto);
      ASSERT_EQ(scalar.labels.size(), vector.labels.size());
      EXPECT_EQ(std::memcmp(scalar.labels.data(), vector.labels.data(),
                            scalar.labels.size() * sizeof(graph::Label)),
                0)
          << entry.name << " on " << scenario.spec;
      EXPECT_EQ(scalar.stats.num_iterations, vector.stats.num_iterations)
          << entry.name << " on " << scenario.spec;
    }
  }
}

}  // namespace
}  // namespace thrifty
