#include "common/cli.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace spinner {

Status CommandLine::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!StartsWith(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    if (arg.empty()) {
      return Status::InvalidArgument("empty flag name: '--'");
    }
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      values_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      values_[std::string(arg)] = "true";  // bare boolean flag
    }
  }
  return Status::OK();
}

int64_t CommandLine::GetInt(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  int64_t v = 0;
  SPINNER_CHECK(ParseInt64(it->second, &v))
      << "flag --" << name << " is not an integer: " << it->second;
  return v;
}

double CommandLine::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  double v = 0;
  SPINNER_CHECK(ParseDouble(it->second, &v))
      << "flag --" << name << " is not a number: " << it->second;
  return v;
}

std::string CommandLine::GetString(const std::string& name,
                                   const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

bool CommandLine::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

bool CommandLine::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::vector<std::string> CommandLine::FlagNames() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [name, value] : values_) names.push_back(name);
  return names;
}

}  // namespace spinner
