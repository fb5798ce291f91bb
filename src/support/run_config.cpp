#include "support/run_config.hpp"

#include <algorithm>
#include <cstdio>

namespace thrifty::support {

namespace {

RunConfig& storage() {
  // Thread-safe lazy seeding (magic static); afterwards the struct only
  // changes under the single-threaded RunConfigOverride contract.
  static RunConfig config = run_config_from_env();
  return config;
}

}  // namespace

RunConfig run_config_from_env() {
  RunConfig config;
  const auto scale_text = env_string("THRIFTY_SCALE");
  config.scale = scale_text ? parse_scale(*scale_text) : Scale::kSmall;
  config.bench_trials = static_cast<int>(
      std::max<std::int64_t>(1, env_int("THRIFTY_BENCH_TRIALS", 3)));
  if (const auto text = env_string("THRIFTY_SIMD")) {
    if (const auto level = parse_simd_level(*text)) {
      config.simd = *level;
    } else {
      std::fprintf(stderr,
                   "thrifty: invalid THRIFTY_SIMD='%s' "
                   "(expected auto|scalar|avx2|avx512); keeping auto\n",
                   text->c_str());
    }
  }
  if (const auto text = env_string("THRIFTY_PLAN")) {
    config.plan = *text;
  }
  config.plan_cutover = env_double("THRIFTY_PLAN_CUTOVER", 0.75);
  return config;
}

const RunConfig& run_config() { return storage(); }

RunConfigOverride::RunConfigOverride(const RunConfig& config)
    : saved_(storage()) {
  storage() = config;
}

RunConfigOverride::~RunConfigOverride() { storage() = saved_; }

}  // namespace thrifty::support
