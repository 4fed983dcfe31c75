#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
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

/// Minimal owning JSON document with a recursive-descent parser. Used by the
/// exporter tests to verify that emitted traces/reports are valid JSON and
/// to round-trip counters; not a general-purpose library.
class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  /// Parse a complete JSON document; throws std::runtime_error on malformed
  /// input (including trailing garbage).
  static JsonValue parse(std::string_view text);

  Type type() const { return type_; }

  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;

  /// Array access.
  const std::vector<JsonValue>& items() const;
  std::size_t size() const { return items().size(); }
  const JsonValue& operator[](std::size_t i) const { return items().at(i); }

  /// Object access. `find` returns nullptr when absent; `at` throws.
  const std::map<std::string, JsonValue>& members() const;
  const JsonValue* find(std::string_view key) const;
  const JsonValue& at(std::string_view key) const;

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::map<std::string, JsonValue> members_;

  friend class JsonParser;
};

}  // namespace speedbal
