#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace speedbal {

/// Tiny command-line flag parser shared by the tools and bench binaries.
/// Accepts "--name=value" and bare "--name" (boolean true); everything else
/// is collected as a positional argument. Unknown flags are kept (callers
/// decide whether to reject them via `unknown()`). `get_int` and
/// `get_double` throw std::invalid_argument naming the flag when its value
/// is not a whole number (or a number), a bare flag included.
class Cli {
 public:
  Cli(int argc, const char* const* argv,
      std::vector<std::string> known_flags = {});

  bool has(std::string_view name) const;
  std::string get(std::string_view name, std::string_view def = "") const;
  std::int64_t get_int(std::string_view name, std::int64_t def) const;
  double get_double(std::string_view name, double def) const;
  bool get_bool(std::string_view name, bool def = false) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were supplied but not in the known set (empty known set
  /// means everything is considered known).
  std::vector<std::string> unknown() const;

 private:
  std::map<std::string, std::string, std::less<>> flags_;
  std::set<std::string, std::less<>> bare_;
  std::vector<std::string> positional_;
  std::vector<std::string> known_;
};

}  // namespace speedbal
