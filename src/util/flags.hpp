// Strict command-line flags: the one argv walker of mclg_cli, mclg_batch,
// mclg_serve and the batch worker.
//
// A tool declares every flag it reads. Parsing rejects anything else — an
// unknown argument, a value flag with no value, a malformed or
// out-of-range number — before the tool reads a file or forks a process,
// so the getters below cannot fail.
#pragma once

#include <climits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mclg {

enum class FlagKind {
  Switch,   ///< takes no value
  Text,     ///< any string
  Integer,  ///< a base-10 integer in [min, max]
  Number,   ///< a non-negative, finite decimal number of at most 1e9
};

struct FlagSpec {
  const char* name = "";
  FlagKind kind = FlagKind::Switch;
  /// Integer range. The default is that of the `int` most tools store the
  /// value in.
  long long min = INT_MIN;
  long long max = INT_MAX;
};

class Flags {
 public:
  /// Parse argv[first..argc) against `specs`. On a rejected argument this
  /// prints "<tool>: <reason>" on stderr and returns nothing; the caller
  /// exits with the usage code.
  static std::optional<Flags> parse(const std::string& tool,
                                    std::span<const FlagSpec> specs, int argc,
                                    char** argv, int first);

  /// The switch or value flag was given.
  bool has(const std::string& name) const;
  /// A value flag given twice keeps its first occurrence for these three;
  /// nothing / `fallback` when absent.
  std::optional<std::string> text(const std::string& name) const;
  long long integer(const std::string& name, long long fallback) const;
  double number(const std::string& name, double fallback) const;
  /// Every value of a repeated flag (--inject-fault), in command-line order.
  std::vector<std::string> values(const std::string& name) const;

 private:
  std::map<std::string, std::vector<std::string>> given_;
};

}  // namespace mclg
