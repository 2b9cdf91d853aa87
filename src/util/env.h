// Environment-variable configuration used by benches and examples
// (CLKTUNE_SAMPLES, CLKTUNE_THREADS, ...).
#pragma once

#include <cstdlib>
#include <string>

namespace clktune::util {

inline long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

inline std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : std::string(v);
}

}  // namespace clktune::util
