#include "util/flags.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace mclg {
namespace {

/// "" when `value` is acceptable for `spec`, else why not.
std::string checkValue(const FlagSpec& spec, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  if (spec.kind == FlagKind::Integer) {
    const long long parsed = std::strtoll(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
        parsed < spec.min || parsed > spec.max) {
      return spec.min <= INT_MIN
                 ? "want an integer"
                 : "want an integer >= " + std::to_string(spec.min);
    }
  } else if (spec.kind == FlagKind::Number) {
    const double parsed = std::strtod(value.c_str(), &end);
    // !(parsed <= 1e9) also rejects NaN.
    if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
        parsed < 0.0 || !(parsed <= 1e9)) {
      return "want a number in [0, 1e9]";
    }
  }
  return "";
}

}  // namespace

std::optional<Flags> Flags::parse(const std::string& tool,
                                  std::span<const FlagSpec> specs, int argc,
                                  char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& candidate : specs) {
      if (arg == candidate.name) spec = &candidate;
    }
    if (spec == nullptr) {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", tool.c_str(),
                   arg.c_str());
      return std::nullopt;
    }
    std::vector<std::string>& given = flags.given_[arg];
    if (spec->kind == FlagKind::Switch) continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs a value\n", tool.c_str(),
                   arg.c_str());
      return std::nullopt;
    }
    const std::string value = argv[++i];
    const std::string problem = checkValue(*spec, value);
    if (!problem.empty()) {
      std::fprintf(stderr, "%s: invalid value '%s' for %s (%s)\n",
                   tool.c_str(), value.c_str(), arg.c_str(), problem.c_str());
      return std::nullopt;
    }
    given.push_back(value);
  }
  return flags;
}

bool Flags::has(const std::string& name) const {
  return given_.count(name) > 0;
}

std::optional<std::string> Flags::text(const std::string& name) const {
  const auto it = given_.find(name);
  if (it == given_.end() || it->second.empty()) return std::nullopt;
  return it->second.front();
}

long long Flags::integer(const std::string& name, long long fallback) const {
  const auto value = text(name);
  return value ? std::strtoll(value->c_str(), nullptr, 10) : fallback;
}

double Flags::number(const std::string& name, double fallback) const {
  const auto value = text(name);
  return value ? std::strtod(value->c_str(), nullptr) : fallback;
}

std::vector<std::string> Flags::values(const std::string& name) const {
  const auto it = given_.find(name);
  return it == given_.end() ? std::vector<std::string>{} : it->second;
}

}  // namespace mclg
