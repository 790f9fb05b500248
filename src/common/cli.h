// Tiny command-line flag parser for the example and bench binaries.
// Supports --name=value and --name value forms plus bare boolean flags.
#ifndef SPINNER_COMMON_CLI_H_
#define SPINNER_COMMON_CLI_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace spinner {

/// Parses argv into a name->value map and answers typed lookups with
/// defaults. Flags no getter asks for are silently ignored; a binary that
/// must reject one checks Has() or FlagNames() itself.
class CommandLine {
 public:
  /// Parses flags; non-flag arguments are kept in Positional(). Returns an
  /// error on malformed input (e.g. "--" with no name).
  Status Parse(int argc, const char* const* argv);

  /// Typed getters; return `def` when the flag is absent and CHECK-fail on
  /// unparsable values (a typo in a bench invocation should be loud).
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  std::string GetString(const std::string& name, const std::string& def) const;
  bool GetBool(const std::string& name, bool def) const;

  /// True iff the flag appeared on the command line.
  bool Has(const std::string& name) const;

  /// Names of every flag that appeared on the command line, sorted.
  std::vector<std::string> FlagNames() const;

  /// Arguments that are neither a flag nor a flag's value, in order.
  const std::vector<std::string>& Positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace spinner

#endif  // SPINNER_COMMON_CLI_H_
