// Process-wide runtime configuration.
//
// Historically every knob was a separate THRIFTY_* environment variable
// read at its point of use (bench_common/harness.cpp, env.cpp).  That forced "sweep this knob" tests to call ::setenv
// mid-process, which races the C runtime's environ against getenv calls
// from OpenMP worker threads — undefined behaviour that TSan cannot even
// see because environ lives inside libc.  RunConfig snapshots the
// environment exactly once, on first access, into a plain struct; tests
// and harnesses perturb knobs through the explicit RunConfigOverride
// RAII scope instead of mutating environ.
#pragma once

#include <cstdint>

#include "support/env.hpp"
#include "support/simd.hpp"
#include "support/topology.hpp"

namespace thrifty::support {

struct RunConfig {
  /// Inert: push iterations no longer split hubs, so nothing reads this
  /// field and nothing sets it from the environment.  Kept only because
  /// perfbench prints it.
  std::int64_t hub_split_degree = 0;
  /// Synthetic dataset scale for benchmarks (THRIFTY_SCALE).
  Scale scale = Scale::kSmall;
  /// Benchmark harness trial count (THRIFTY_BENCH_TRIALS), >= 1.
  int bench_trials = 3;
  /// Inert: first touch is the only page placement, so nothing reads
  /// this field and nothing sets it.  Printed by perfbench only.
  Placement placement = Placement::kFirstTouch;
  /// Inert: nearest-first is the only steal order, so nothing reads
  /// this field and nothing sets it.  Printed by perfbench only.
  StealScope numa_steal = StealScope::kLocal;
  /// Requested gather-kernel instruction-set ceiling (THRIFTY_SIMD:
  /// auto | scalar | avx2 | avx512).  kAuto resolves to the best level
  /// the host supports; a forced level above host support falls back
  /// with a warning (simd::effective_level).
  SimdLevel simd = SimdLevel::kAuto;

  friend bool operator==(const RunConfig&, const RunConfig&) = default;
};

/// Parses a RunConfig from the THRIFTY_* environment variables; unset or
/// unparsable variables keep their defaults.  Pure read — never caches.
[[nodiscard]] RunConfig run_config_from_env();

/// The current configuration: seeded from the environment on first call,
/// then stable for the life of the process except under an override.
[[nodiscard]] const RunConfig& run_config();

/// RAII explicit override of the process configuration, restoring the
/// previous value on destruction.  Overrides nest.  Install and destroy
/// only between algorithm invocations, from a single thread with no
/// parallel region active: readers inside a running parallel region are
/// not synchronised against the swap (the same contract the setenv idiom
/// had), but plain-struct reads no longer touch environ.
class RunConfigOverride {
 public:
  explicit RunConfigOverride(const RunConfig& config);
  ~RunConfigOverride();
  RunConfigOverride(const RunConfigOverride&) = delete;
  RunConfigOverride& operator=(const RunConfigOverride&) = delete;

 private:
  RunConfig saved_;
};

}  // namespace thrifty::support
