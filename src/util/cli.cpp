#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace speedbal {

Cli::Cli(int argc, const char* const* argv, std::vector<std::string> known_flags)
    : known_(std::move(known_flags)) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string_view::npos) {
        flags_.emplace(std::string(arg.substr(2)), "true");
        bare_.emplace(arg.substr(2));
      } else {
        flags_.emplace(std::string(arg.substr(2, eq - 2)),
                       std::string(arg.substr(eq + 1)));
      }
    } else {
      positional_.emplace_back(arg);
    }
  }
}

bool Cli::has(std::string_view name) const {
  return flags_.find(name) != flags_.end();
}

std::string Cli::get(std::string_view name, std::string_view def) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? std::string(def) : it->second;
}

namespace {

/// Throws naming the flag unless the parse that stopped at `end` consumed
/// all of a non-empty, in-range `text`: a partial parse ("12abc"), an
/// empty or bare value is an error, never a silent prefix or 0.
void require_whole(std::string_view name, const std::string& text,
                   const char* end, bool bare, const char* what) {
  const std::string flag = "--" + std::string(name);
  if (bare)
    throw std::invalid_argument(flag + " needs a " + what + ": " + flag +
                                "=<value>");
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE)
    throw std::invalid_argument(flag + ": '" + text + "' is not a " + what);
}

}  // namespace

std::int64_t Cli::get_int(std::string_view name, std::int64_t def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  errno = 0;
  char* end = nullptr;
  const std::int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  require_whole(name, it->second, end, bare_.count(name) != 0, "whole number");
  return v;
}

double Cli::get_double(std::string_view name, double def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  require_whole(name, it->second, end, bare_.count(name) != 0, "number");
  return v;
}

bool Cli::get_bool(std::string_view name, bool def) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> Cli::unknown() const {
  std::vector<std::string> out;
  if (known_.empty()) return out;
  for (const auto& [name, value] : flags_) {
    (void)value;
    if (std::find(known_.begin(), known_.end(), name) == known_.end())
      out.push_back(name);
  }
  return out;
}

}  // namespace speedbal
