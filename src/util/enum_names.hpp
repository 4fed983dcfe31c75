#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace speedbal {

/// The names of an enum numbered densely from 0: one table per enum,
/// indexed by enumerator value, that every printer, parser and
/// "(available: ...)" list reads. Build one with enum_names and tie its
/// size to the enum with `static_assert(kTable.ends_at(E::Last))`, which
/// keeps the exhaustiveness check a name switch gets from -Wswitch.
template <class E, std::size_t N>
struct EnumNames {
  const char* what;  ///< Noun for parse errors: "dispatch policy".
  std::array<const char*, N> names;

  static constexpr std::size_t size() { return N; }

  /// True when `last` is the final enumerator, i.e. the table names them all.
  constexpr bool ends_at(E last) const {
    return static_cast<std::size_t>(last) + 1 == N;
  }

  /// The enumerator's name; "?" for a value outside the table.
  constexpr const char* operator[](E e) const {
    const auto i = static_cast<std::size_t>(e);
    return i < N ? names[i] : "?";
  }

  constexpr std::optional<E> find(std::string_view name) const {
    for (std::size_t i = 0; i < N; ++i)
      if (name == names[i]) return static_cast<E>(i);
    return std::nullopt;
  }

  /// find, or throw std::invalid_argument naming every valid value.
  E parse(std::string_view name) const {
    if (const auto e = find(name)) return *e;
    throw std::invalid_argument("unknown " + std::string(what) + ": " +
                                std::string(name) + " (available: " +
                                joined() + ")");
  }

  /// "a, b, c" in enumerator order.
  std::string joined() const {
    std::string out;
    for (const char* n : names) {
      if (!out.empty()) out += ", ";
      out += n;
    }
    return out;
  }
};

/// enum_names<E>("noun", "first", "second", ...): the table's size is the
/// number of names given, so no slot can be left empty.
template <class E, class... Names>
constexpr EnumNames<E, sizeof...(Names)> enum_names(const char* what,
                                                    Names... names) {
  return {what, {names...}};
}

}  // namespace speedbal
