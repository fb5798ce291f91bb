// Differential tests for the SIMD kernel layer (support/simd.hpp).
//
// The layer's contract is bit-identity: for any input, every vector
// variant of a kernel returns exactly the bytes the scalar variant
// returns.  These tests enforce the contract directly — each kernel is
// run at every level the host supports and compared against the scalar
// oracle on inputs chosen to stress lane boundaries (empty, single
// element, one-below/at/above each vector width, large) — and
// end-to-end: whole CC algorithms must produce byte-identical label
// arrays and iteration counts under THRIFTY_SIMD=scalar and =auto.
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
#include "frontier/bitmap.hpp"
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

TEST(SimdKernels, CountEqualMatchesScalarAcrossLevelsAndTails) {
  for (const std::size_t count : boundary_sizes()) {
    auto a = random_u32(count, 0x44 + count, 8);  // small alphabet:
    auto b = random_u32(count, 0x55 + count, 8);  // plenty of matches
    const std::uint64_t expected =
        simd::count_equal_u32(a.data(), b.data(), count,
                              SimdLevel::kScalar);
    for (const SimdLevel level : testable_levels()) {
      EXPECT_EQ(simd::count_equal_u32(a.data(), b.data(), count, level),
                expected)
          << "count=" << count << " level=" << support::to_string(level);
    }
    // All-equal and all-distinct extremes.
    for (const SimdLevel level : testable_levels()) {
      EXPECT_EQ(simd::count_equal_u32(a.data(), a.data(), count, level),
                count);
    }
  }
}

TEST(SimdKernels, PopcountMatchesScalarAcrossLevelsAndTails) {
  for (const std::size_t count : boundary_sizes()) {
    support::Xoshiro256StarStar rng(0x66 + count);
    std::vector<std::uint64_t> words(count);
    for (auto& w : words) w = rng.next_below(~0ull);
    if (!words.empty()) {
      words.front() = ~0ull;  // saturated word
      words.back() = 1ull << 63;  // single high bit in the tail word
    }
    const std::uint64_t expected =
        simd::popcount_u64(words.data(), count, SimdLevel::kScalar);
    for (const SimdLevel level : testable_levels()) {
      EXPECT_EQ(simd::popcount_u64(words.data(), count, level), expected)
          << "count=" << count << " level=" << support::to_string(level);
    }
  }
}

TEST(SimdKernels, FillZeroAndCopyMatchScalarAcrossLevelsAndTails) {
  for (const std::size_t count : boundary_sizes()) {
    for (const SimdLevel level : testable_levels()) {
      std::vector<std::uint64_t> words(count + 2, ~0ull);
      // Fill the interior only: the sentinel words on either side catch
      // any variant writing past its range.
      simd::fill_zero_u64(words.data() + 1, count, level);
      EXPECT_EQ(words.front(), ~0ull) << support::to_string(level);
      EXPECT_EQ(words.back(), ~0ull) << support::to_string(level);
      EXPECT_TRUE(std::all_of(words.begin() + 1, words.end() - 1,
                              [](std::uint64_t w) { return w == 0; }))
          << "count=" << count << " level=" << support::to_string(level);

      const auto src = random_u32(count, 0x77 + count, ~0u);
      std::vector<std::uint32_t> dst(count + 2, 0xdeadbeefu);
      simd::copy_u32(dst.data() + 1, src.data(), count, level);
      EXPECT_EQ(dst.front(), 0xdeadbeefu);
      EXPECT_EQ(dst.back(), 0xdeadbeefu);
      EXPECT_TRUE(std::equal(src.begin(), src.end(), dst.begin() + 1))
          << "count=" << count << " level=" << support::to_string(level);
    }
  }
}

/// Reference flatten: chase every entry to its root.
std::vector<std::uint32_t> flattened(std::vector<std::uint32_t> parent) {
  for (auto& p : parent) {
    while (p != parent[p]) p = parent[p];
  }
  return parent;
}

/// Random union-find forest: parent[v] <= v, so chains terminate.
std::vector<std::uint32_t> random_forest(std::size_t n,
                                         std::uint64_t seed) {
  support::Xoshiro256StarStar rng(seed);
  std::vector<std::uint32_t> parent(n);
  for (std::size_t v = 0; v < n; ++v) {
    parent[v] = static_cast<std::uint32_t>(rng.next_below(v + 1));
  }
  return parent;
}

TEST(SimdKernels, FlattenReachesFixpointOnChainsStarsAndForests) {
  for (const std::size_t n : boundary_sizes()) {
    std::vector<std::vector<std::uint32_t>> forests;
    // Worst-case chain: v -> v-1 -> ... -> 0.
    std::vector<std::uint32_t> chain(n);
    for (std::size_t v = 0; v < n; ++v) {
      chain[v] = static_cast<std::uint32_t>(v == 0 ? 0 : v - 1);
    }
    forests.push_back(chain);
    // Already-flat star: every entry points at 0.
    forests.push_back(std::vector<std::uint32_t>(n, 0));
    forests.push_back(random_forest(n, 0x88 + n));

    for (const auto& forest : forests) {
      const std::vector<std::uint32_t> expected = flattened(forest);
      const bool expect_changed = forest != expected;
      std::vector<std::uint32_t> parent = forest;
      const bool changed =
          simd::flatten_u32(parent.data(), 0, parent.size());
      EXPECT_EQ(parent, expected) << "n=" << n;
      EXPECT_EQ(changed, expect_changed) << "n=" << n;
      for (std::size_t v = 0; v < parent.size(); ++v) {
        ASSERT_EQ(parent[v], parent[parent[v]]) << "v=" << v;
      }
    }
  }
}

TEST(SimdKernels, FlattenSubrangeTouchesOnlyItsSlice) {
  // Per-thread callers flatten [begin, end) while gathering globally.
  const std::vector<std::uint32_t> forest = random_forest(200, 0x99);
  const std::vector<std::uint32_t> expected_full = flattened(forest);
  std::vector<std::uint32_t> parent = forest;
  simd::flatten_u32(parent.data(), 50, 150);
  for (std::size_t v = 0; v < parent.size(); ++v) {
    if (v >= 50 && v < 150) {
      EXPECT_EQ(parent[v], expected_full[v]) << "v=" << v;
    } else {
      EXPECT_EQ(parent[v], forest[v]) << "v=" << v;
    }
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

TEST(SimdBitmap, CountAndClearAgreeAcrossForcedLevels) {
  // Bit positions straddling word and vector-lane boundaries, on a
  // bitmap whose final word is partial.
  const std::uint64_t num_bits = 64 * 37 + 13;
  const std::vector<std::uint64_t> bits = {0,   1,   63,  64,  127, 128,
                                           255, 256, 511, 512, 1023,
                                           64 * 37,  64 * 37 + 12};
  std::vector<std::uint64_t> counts;
  for (const SimdLevel request :
       {SimdLevel::kScalar, SimdLevel::kAuto}) {
    support::RunConfig config = support::run_config();
    config.simd = request;
    const support::RunConfigOverride scope(config);
    frontier::Bitmap bitmap(num_bits);
    EXPECT_EQ(bitmap.count(), 0u);
    for (const std::uint64_t bit : bits) bitmap.set(bit);
    counts.push_back(bitmap.count());
    bitmap.clear();
    EXPECT_EQ(bitmap.count(), 0u);
    for (const std::uint64_t bit : bits) EXPECT_FALSE(bitmap.get(bit));
  }
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], bits.size());
  EXPECT_EQ(counts[0], counts[1]);
}

TEST(SimdDispatch, CoreSweepsMatchUnderForcedScalar) {
  // copy_labels / count_equal_labels read the level from RunConfig at
  // call time; forced scalar and auto must agree bit for bit.
  const auto a = random_u32(10'000, 0xaa, 64);
  const auto b = random_u32(10'000, 0xbb, 64);
  std::vector<std::uint64_t> equal_counts;
  for (const SimdLevel request :
       {SimdLevel::kScalar, SimdLevel::kAuto}) {
    support::RunConfig config = support::run_config();
    config.simd = request;
    const support::RunConfigOverride scope(config);
    std::vector<std::uint32_t> copied(a.size());
    core::copy_labels({a.data(), a.size()}, {copied.data(), copied.size()});
    EXPECT_TRUE(std::equal(a.begin(), a.end(), copied.begin()));
    equal_counts.push_back(
        core::count_equal_labels({a.data(), a.size()},
                                 {b.data(), b.size()}));
  }
  ASSERT_EQ(equal_counts.size(), 2u);
  EXPECT_EQ(equal_counts[0], equal_counts[1]);
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
