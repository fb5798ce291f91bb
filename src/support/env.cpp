#include "support/env.hpp"

#include <cstdlib>
#include <string>

#include "support/run_config.hpp"

namespace thrifty::support {

std::optional<std::string> env_string(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return std::nullopt;
  return std::string(value);
}

std::int64_t env_int(const char* name, std::int64_t fallback) {
  const auto text = env_string(name);
  if (!text) return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(text->c_str(), &end, 10);
  if (end == text->c_str() || *end != '\0') return fallback;
  return parsed;
}

Scale parse_scale(std::string_view text) {
  if (text == "tiny") return Scale::kTiny;
  if (text == "large") return Scale::kLarge;
  return Scale::kSmall;
}

Scale bench_scale() { return run_config().scale; }

const char* to_string(Scale scale) {
  switch (scale) {
    case Scale::kTiny:
      return "tiny";
    case Scale::kLarge:
      return "large";
    case Scale::kSmall:
      break;
  }
  return "small";
}

}  // namespace thrifty::support
