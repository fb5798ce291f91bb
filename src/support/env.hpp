// Environment-variable driven configuration for benchmarks and examples.
// The paper's evaluation ran fixed dataset sizes on two servers; on an
// arbitrary host we scale the synthetic stand-ins through THRIFTY_SCALE.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace thrifty::support {

/// Returns the value of environment variable `name`, if set and non-empty.
[[nodiscard]] std::optional<std::string> env_string(const char* name);

/// Returns `name` parsed as a 64-bit integer, or `fallback` when unset or
/// unparsable.
[[nodiscard]] std::int64_t env_int(const char* name, std::int64_t fallback);

/// Dataset scaling selected by THRIFTY_SCALE=tiny|small|large.
enum class Scale { kTiny, kSmall, kLarge };

/// Parses a scale name; unknown values fall back to small.
[[nodiscard]] Scale parse_scale(std::string_view text);

/// The current dataset scale — run_config().scale (seeded from
/// THRIFTY_SCALE once at first access; see run_config.hpp).
[[nodiscard]] Scale bench_scale();

/// Human-readable name of a scale value.
[[nodiscard]] const char* to_string(Scale scale);

}  // namespace thrifty::support
