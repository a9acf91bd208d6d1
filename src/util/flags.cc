#include "util/flags.h"

#include <algorithm>

#include "util/string_util.h"

namespace grape {

Status FlagParser::Parse(int argc, const char* const* argv,
                         const std::vector<std::string>& known) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!StartsWith(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    if (arg.empty()) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    const size_t eq = arg.find('=');
    std::string name(arg.substr(0, eq));
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    if (eq != std::string_view::npos) {
      values_[name] = std::string(arg.substr(eq + 1));
      continue;
    }
    // "--name value" form if the next token is not itself a flag;
    // otherwise a boolean switch.
    if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      values_[name] = argv[++i];
    } else {
      values_[name] = "true";
    }
  }
  return Status::OK();
}

bool FlagParser::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

int64_t FlagParser::GetInt(const std::string& name,
                           int64_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  uint64_t v = 0;
  if (it->second.size() > 1 && it->second[0] == '-') {
    if (!ParseUint64(it->second.substr(1), &v)) return default_value;
    return -static_cast<int64_t>(v);
  }
  if (!ParseUint64(it->second, &v)) return default_value;
  return static_cast<int64_t>(v);
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  double v = 0;
  if (!ParseDouble(it->second, &v)) return default_value;
  return v;
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace grape
