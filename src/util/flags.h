#ifndef GRAPE_UTIL_FLAGS_H_
#define GRAPE_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace grape {

/// Minimal command-line flag parser for the examples and benchmark
/// harnesses: `--name=value` or `--name value`; bare `--flag` sets a bool.
class FlagParser {
 public:
  /// Parses argv against the flag names the program accepts: an unknown
  /// `--name` fails with InvalidArgument naming it. Arguments without a
  /// leading "--" are collected as positional arguments.
  Status Parse(int argc, const char* const* argv,
               const std::vector<std::string>& known);

  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace grape

#endif  // GRAPE_UTIL_FLAGS_H_
