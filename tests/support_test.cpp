// Tests for src/support: timers, PRNGs, math helpers, env configuration,
// parallel wrappers, uninitialised vectors.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <vector>

#include "support/env.hpp"
#include "support/math.hpp"
#include "support/run_config.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"
#include "support/uninit_vector.hpp"

namespace thrifty::support {
namespace {

TEST(Timer, MeasuresElapsedTime) {
  Timer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GE(timer.elapsed_ms(), 0.0);
  EXPECT_GE(timer.elapsed_ns(), 0u);
  EXPECT_GE(timer.elapsed_seconds(), 0.0);
}

TEST(Timer, RestartResetsOrigin) {
  Timer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  const double before = timer.elapsed_seconds();
  timer.restart();
  EXPECT_LE(timer.elapsed_seconds(), before + 1.0);
}

TEST(AccumulatingTimer, SumsIntervals) {
  AccumulatingTimer acc;
  acc.start();
  acc.stop();
  acc.start();
  acc.stop();
  EXPECT_GE(acc.total_ms(), 0.0);
  acc.reset();
  EXPECT_EQ(acc.total_ms(), 0.0);
}

TEST(SplitMix64, DeterministicForSeed) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(HashMix, IsDeterministicAndSpreads) {
  EXPECT_EQ(hash_mix(7, 13), hash_mix(7, 13));
  std::set<std::uint64_t> values;
  for (std::uint64_t i = 0; i < 1000; ++i) values.insert(hash_mix(1, i));
  EXPECT_EQ(values.size(), 1000u);
}

TEST(Xoshiro, NextBelowStaysInRange) {
  Xoshiro256StarStar rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Xoshiro, NextBelowCoversRange) {
  Xoshiro256StarStar rng(4);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Xoshiro, NextDoubleInUnitInterval) {
  Xoshiro256StarStar rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Xoshiro, RoughlyUniform) {
  Xoshiro256StarStar rng(6);
  const int buckets = 10;
  std::vector<int> histogram(buckets, 0);
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) {
    ++histogram[static_cast<int>(rng.next_double() * buckets)];
  }
  for (int count : histogram) {
    EXPECT_NEAR(count, samples / buckets, samples / buckets / 5);
  }
}

TEST(Math, GeomeanOfEqualValues) {
  const std::vector<double> values{2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(geomean(values), 2.0);
}

TEST(Math, GeomeanKnownValue) {
  const std::vector<double> values{1.0, 4.0};
  EXPECT_DOUBLE_EQ(geomean(values), 2.0);
}

TEST(Math, MeanAndPercentile) {
  const std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(values), 2.5);
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 1.0), 4.0);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 8), 1);
  EXPECT_EQ(ceil_div(0, 8), 0);
}

TEST(Env, StringUnsetReturnsNullopt) {
  ::unsetenv("THRIFTY_TEST_UNSET_VAR");
  EXPECT_FALSE(env_string("THRIFTY_TEST_UNSET_VAR").has_value());
}

TEST(Env, StringSetReturnsValue) {
  ::setenv("THRIFTY_TEST_VAR", "hello", 1);
  EXPECT_EQ(env_string("THRIFTY_TEST_VAR").value(), "hello");
  ::unsetenv("THRIFTY_TEST_VAR");
}

TEST(Env, IntParsesAndFallsBack) {
  ::setenv("THRIFTY_TEST_INT", "123", 1);
  EXPECT_EQ(env_int("THRIFTY_TEST_INT", 7), 123);
  ::setenv("THRIFTY_TEST_INT", "bogus", 1);
  EXPECT_EQ(env_int("THRIFTY_TEST_INT", 7), 7);
  ::unsetenv("THRIFTY_TEST_INT");
  EXPECT_EQ(env_int("THRIFTY_TEST_INT", 7), 7);
}

TEST(Env, ScaleParses) {
  EXPECT_EQ(parse_scale("tiny"), Scale::kTiny);
  EXPECT_EQ(parse_scale("large"), Scale::kLarge);
  EXPECT_EQ(parse_scale("garbage"), Scale::kSmall);
  EXPECT_EQ(parse_scale(""), Scale::kSmall);
  EXPECT_STREQ(to_string(Scale::kTiny), "tiny");
  EXPECT_STREQ(to_string(Scale::kSmall), "small");
  EXPECT_STREQ(to_string(Scale::kLarge), "large");
}

TEST(RunConfig, FromEnvReadsKnobsAndFallsBack) {
  // setenv here is safe: these tests run before any parallel region is
  // active in this process, and run_config_from_env is a pure read.
  ::setenv("THRIFTY_SCALE", "large", 1);
  ::setenv("THRIFTY_BENCH_TRIALS", "5", 1);
  ::setenv("THRIFTY_SIMD", "avx2", 1);
  RunConfig config = run_config_from_env();
  EXPECT_EQ(config.scale, Scale::kLarge);
  EXPECT_EQ(config.bench_trials, 5);
  EXPECT_EQ(config.simd, SimdLevel::kAvx2);

  ::setenv("THRIFTY_SCALE", "garbage", 1);
  ::setenv("THRIFTY_BENCH_TRIALS", "0", 1);  // at least one trial
  config = run_config_from_env();
  EXPECT_EQ(config.scale, Scale::kSmall);
  EXPECT_EQ(config.bench_trials, 1);

  ::unsetenv("THRIFTY_SCALE");
  ::unsetenv("THRIFTY_BENCH_TRIALS");
  ::unsetenv("THRIFTY_SIMD");
  config = run_config_from_env();
  EXPECT_EQ(config, RunConfig{});
}

TEST(Simd, LevelParsesAndRoundTrips) {
  EXPECT_EQ(parse_simd_level("auto"), SimdLevel::kAuto);
  EXPECT_EQ(parse_simd_level("scalar"), SimdLevel::kScalar);
  EXPECT_EQ(parse_simd_level("avx2"), SimdLevel::kAvx2);
  EXPECT_EQ(parse_simd_level("avx512"), SimdLevel::kAvx512);
  EXPECT_EQ(parse_simd_level("sse9"), std::nullopt);
  EXPECT_EQ(parse_simd_level(""), std::nullopt);
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2,
                                SimdLevel::kAvx512, SimdLevel::kAuto}) {
    EXPECT_EQ(parse_simd_level(to_string(level)), level);
  }
}

TEST(RunConfig, SimdFromEnvReadsAndFallsBack) {
  ::setenv("THRIFTY_SIMD", "scalar", 1);
  EXPECT_EQ(run_config_from_env().simd, SimdLevel::kScalar);
  ::setenv("THRIFTY_SIMD", "avx2", 1);
  EXPECT_EQ(run_config_from_env().simd, SimdLevel::kAvx2);
  ::setenv("THRIFTY_SIMD", "avx512", 1);
  EXPECT_EQ(run_config_from_env().simd, SimdLevel::kAvx512);
  ::setenv("THRIFTY_SIMD", "auto", 1);
  EXPECT_EQ(run_config_from_env().simd, SimdLevel::kAuto);
  // Invalid spellings warn on stderr and keep the auto default.
  ::setenv("THRIFTY_SIMD", "avx1024", 1);
  EXPECT_EQ(run_config_from_env().simd, SimdLevel::kAuto);
  ::unsetenv("THRIFTY_SIMD");
  EXPECT_EQ(run_config_from_env().simd, SimdLevel::kAuto);
}

TEST(Simd, EffectiveLevelClampsRequestsToHostSupport) {
  const SimdLevel supported = simd::max_supported();
  ASSERT_NE(supported, SimdLevel::kAuto);
  for (const SimdLevel request : {SimdLevel::kScalar, SimdLevel::kAvx2,
                                  SimdLevel::kAvx512, SimdLevel::kAuto}) {
    RunConfig config = run_config();
    config.simd = request;
    const RunConfigOverride scope(config);
    const SimdLevel effective = simd::effective_level();
    // Never kAuto; a forced level the host lacks falls back gracefully
    // to the best supported level, everything else is honoured.
    ASSERT_NE(effective, SimdLevel::kAuto);
    if (request == SimdLevel::kAuto || request > supported) {
      EXPECT_EQ(effective, supported);
    } else {
      EXPECT_EQ(effective, request);
    }
    EXPECT_LE(static_cast<int>(effective), static_cast<int>(supported));
  }
}

TEST(RunConfig, OverridesNestAndRestore) {
  const RunConfig original = run_config();
  {
    RunConfig outer = original;
    outer.bench_trials = 8;
    RunConfigOverride outer_scope(outer);
    EXPECT_EQ(run_config().bench_trials, 8);
    {
      RunConfig inner = run_config();
      inner.bench_trials = 99;
      inner.scale = Scale::kTiny;
      RunConfigOverride inner_scope(inner);
      EXPECT_EQ(run_config().bench_trials, 99);
      EXPECT_EQ(bench_scale(), Scale::kTiny);
    }
    EXPECT_EQ(run_config().bench_trials, 8);
    EXPECT_EQ(run_config().scale, original.scale);
  }
  EXPECT_EQ(run_config(), original);
}

TEST(Parallel, ParallelForVisitsEveryIndex) {
  const int n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(n, [&](int i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Parallel, ParallelSumMatchesSerial) {
  const std::uint64_t n = 100000;
  const std::uint64_t total =
      parallel_sum(n, [](std::uint64_t i) { return i; });
  EXPECT_EQ(total, n * (n - 1) / 2);
}

TEST(Parallel, ParallelRegionRunsEveryThread) {
  std::vector<std::atomic<int>> hits(
      static_cast<std::size_t>(num_threads()));
  parallel_region([&](int tid, int nthreads) {
    EXPECT_LT(tid, nthreads);
    hits[static_cast<std::size_t>(tid)].fetch_add(1);
  });
  int total = 0;
  for (auto& h : hits) total += h.load();
  EXPECT_GE(total, 1);
}

TEST(Parallel, ThreadCountGuardRestores) {
  const int before = num_threads();
  {
    ThreadCountGuard guard(2);
    EXPECT_EQ(num_threads(), 2);
  }
  EXPECT_EQ(num_threads(), before);
}

TEST(UninitVector, BehavesLikeVectorForWrites) {
  UninitVector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
  v.resize(200);
  v[199] = 42;
  EXPECT_EQ(v[199], 42);
}

TEST(UninitVector, ExplicitValueConstructionStillWorks) {
  UninitVector<int> v(50, 7);
  for (int x : v) EXPECT_EQ(x, 7);
}

}  // namespace
}  // namespace thrifty::support
