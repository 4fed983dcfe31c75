#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace speedbal {

/// Escape a string for inclusion in a JSON string literal (quotes not
/// included).
std::string json_escape(std::string_view s);

/// Minimal streaming JSON writer used by the observability exporters and the
/// bench report emitters. Tracks nesting so commas and keys are placed
/// automatically; misuse (a bare value where a key is required) throws.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit the key of the next object member.
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(std::size_t v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);

  /// Convenience: key + value in one call.
  template <typename T>
  JsonWriter& kv(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

 private:
  void before_value();

  struct Frame {
    bool is_object = false;
    bool first = true;
    bool key_pending = false;
  };

  std::ostream& os_;
  std::vector<Frame> stack_;
};

/// A read-only JSON document, or one value inside it: a type and a range of
/// the document's text, not a tree. `parse` checks the whole document once,
/// so malformed input throws there, wherever it sits, with its offset.
/// Navigation re-scans the checked text: `items` walks an array's elements,
/// `members`, `find` and `at` an object's members, and `as_string`
/// unescapes on demand. Every value shares ownership of the document's text, so a value
/// stays valid after the document it came from is gone.
class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  /// An object's members, built on each call; a repeated key keeps its
  /// last value.
  using Members = std::map<std::string, JsonValue, std::less<>>;

  /// Parse a complete JSON document; throws std::runtime_error on malformed
  /// input (including trailing garbage).
  static JsonValue parse(std::string text);

  Type type() const;

  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const { return static_cast<std::int64_t>(as_number()); }
  std::string as_string() const;

  /// Array access: the elements in document order, found by one walk of
  /// the array's text on every call.
  std::vector<JsonValue> items() const;
  std::size_t size() const { return items().size(); }
  JsonValue operator[](std::size_t i) const { return items().at(i); }

  /// Object access. `find` is empty when the key is absent; `at` throws.
  /// Both return the key's last value when it repeats.
  Members members() const;
  std::optional<JsonValue> find(std::string_view key) const;
  JsonValue at(std::string_view key) const;

 private:
  JsonValue(std::shared_ptr<const std::string> doc, std::string_view text)
      : doc_(std::move(doc)), text_(text) {}

  std::shared_ptr<const std::string> doc_;
  std::string_view text_;  // This value's bytes, within *doc_.
};

// --- Record field lists ---------------------------------------------------
//
// A record written and read as a JSON object names each of its fields once,
// in a static member template `fields(rec, f)` that calls, in document
// order:
//
//   f(key, member)         a number, bool, string, or vector of them;
//   f(key, member, names)  a value spelled as the string `names[v]` and read
//                          back with `names.parse(s)` (an EnumNames table);
//   f(key, value)          a derived value (a temporary): written, skipped
//                          on read.
//
// `rec` is const when writing and mutable when reading. A field may sit
// under an `if` on a member listed before it, which the reader has already
// read by then. write_record and read_record walk the list.

/// A field's key. Reading requires it unless it is optional: an optional
/// key missing from the object leaves the member at its default.
struct FieldKey {
  constexpr FieldKey(const char* key, bool opt = false)
      : name(key), optional(opt) {}
  const char* name;
  bool optional;
};

/// A key that older documents lack.
constexpr FieldKey optional_key(const char* key) { return {key, true}; }

namespace json_detail {

/// The spelling of a field without a names table: the value itself.
struct Verbatim {
  template <class T>
  const T& operator[](const T& v) const { return v; }
};

struct FieldWriter {
  JsonWriter& w;

  template <class T, class Names = Verbatim>
  void operator()(FieldKey k, const T& v, const Names& names = {}) {
    w.key(k.name);
    put(v, names);
  }

  template <class T, class Names>
  void put(const T& v, const Names& names) {
    w.value(names[v]);
  }
  template <class T, class Names>
  void put(const std::vector<T>& v, const Names& names) {
    w.begin_array();
    for (const auto& x : v) put(x, names);
    w.end_array();
  }
};

struct FieldReader {
  /// The object's members, from one walk of its text.
  JsonValue::Members members;

  template <class T, class Names = Verbatim>
  void operator()(FieldKey k, T& v, const Names& names = {}) {
    if (const auto it = members.find(std::string_view(k.name));
        it != members.end())
      read(it->second, v, names);
    else if (!k.optional)
      throw std::runtime_error(std::string("JSON: missing key '") + k.name +
                               "'");
  }
  /// A derived value: nothing to read it into.
  template <class T>
  void operator()(FieldKey, const T&) {}

  template <class T, class Names>
  static void read(const JsonValue& j, T& v, const Names& names) {
    if constexpr (!std::is_same_v<Names, Verbatim>)
      v = names.parse(j.as_string());
    else if constexpr (std::is_same_v<T, bool>)
      v = j.as_bool();
    else if constexpr (std::is_integral_v<T>)
      v = static_cast<T>(j.as_int());
    else if constexpr (std::is_floating_point_v<T>)
      v = j.as_number();
    else
      v = j.as_string();
  }
  template <class T, class Names>
  static void read(const JsonValue& j, std::vector<T>& v, const Names& names) {
    v.clear();
    for (const JsonValue& item : j.items()) {
      T x{};
      read(item, x, names);
      v.push_back(std::move(x));
    }
  }
};

}  // namespace json_detail

/// Write `rec` as one object, a member per field of its list.
template <class R>
void write_record(JsonWriter& w, const R& rec) {
  w.begin_object();
  R::fields(rec, json_detail::FieldWriter{w});
  w.end_object();
}

/// Read the object `obj` into `rec` through its field list. A missing
/// required key throws "JSON: missing key 'k'"; members the object does
/// not set keep the values `rec` had.
template <class R>
void read_record(const JsonValue& obj, R& rec) {
  R::fields(rec, json_detail::FieldReader{obj.members()});
}

/// An array of records, one object each.
template <class R>
void write_records(JsonWriter& w, const std::vector<R>& recs) {
  w.begin_array();
  for (const R& r : recs) write_record(w, r);
  w.end_array();
}

/// The records of `array`, each read into a default-constructed R; empty
/// when `array` is empty (a report section that was left out).
template <class R>
std::vector<R> read_records(const std::optional<JsonValue>& array) {
  std::vector<R> out;
  if (!array) return out;
  const std::vector<JsonValue> objects = array->items();
  out.reserve(objects.size());
  for (const JsonValue& obj : objects) read_record(obj, out.emplace_back());
  return out;
}

}  // namespace speedbal
