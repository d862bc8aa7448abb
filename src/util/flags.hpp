// Minimal command-line flag parsing for the CLI tools and examples.
//
// Grammar: `--name value`, `--name=value`, bare `--name` (boolean true),
// and positional arguments. No external dependencies; unknown-flag
// detection is the caller's job via UnknownFlags().
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace resched {

class FlagError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Flags {
 public:
  /// Parses argv (skipping argv[0]). Throws FlagError on malformed input
  /// (e.g. `--` with empty name).
  static Flags Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  /// Typed getters; throw FlagError when present but unparsable.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  std::int64_t GetInt(const std::string& name, std::int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& Positional() const { return positional_; }

  /// Returns the flags that were parsed but are not in `known` — for
  /// strict CLIs that reject typos.
  std::vector<std::string> UnknownFlags(
      const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace resched
