#include "util/json.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace speedbal {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// --- JsonWriter -----------------------------------------------------------

void JsonWriter::before_value() {
  if (stack_.empty()) return;
  Frame& top = stack_.back();
  if (top.is_object) {
    if (!top.key_pending)
      throw std::logic_error("JsonWriter: value in object without key");
    top.key_pending = false;
    return;
  }
  if (!top.first) os_ << ',';
  top.first = false;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  os_ << '{';
  stack_.push_back({/*is_object=*/true, /*first=*/true, /*key_pending=*/false});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || !stack_.back().is_object)
    throw std::logic_error("JsonWriter: end_object outside object");
  os_ << '}';
  stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  os_ << '[';
  stack_.push_back({/*is_object=*/false, /*first=*/true, /*key_pending=*/false});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back().is_object)
    throw std::logic_error("JsonWriter: end_array outside array");
  os_ << ']';
  stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  if (stack_.empty() || !stack_.back().is_object)
    throw std::logic_error("JsonWriter: key outside object");
  Frame& top = stack_.back();
  if (top.key_pending) throw std::logic_error("JsonWriter: duplicate key call");
  if (!top.first) os_ << ',';
  top.first = false;
  top.key_pending = true;
  os_ << '"' << json_escape(k) << "\":";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  os_ << '"' << json_escape(v) << '"';
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  if (!std::isfinite(v)) {
    os_ << "null";  // JSON has no NaN/Inf.
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  os_ << buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
  return *this;
}

// --- JsonValue -------------------------------------------------------------

namespace {

// The grammar, once. A Scanner reads JSON text from its start. With `check`
// set it also converts every number it meets, so a run over a whole
// document rejects everything the grammar rejects, throwing
// "JSON parse error at offset N: why". Walks over text already checked
// leave `check` off and cannot fail: they find a container's members and
// unescape strings with the same code, so a value reads back what the
// check accepted.
class Scanner {
 public:
  Scanner(std::string_view text, bool check) : text_(text), check_(check) {}

  /// Checks the whole text as one document; returns its value's text.
  std::string_view document() {
    skip_space();
    const std::size_t begin = pos_;
    value();
    const std::string_view doc = text_.substr(begin, pos_ - begin);
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return doc;
  }

  /// Calls f(key, value) for each member of the object, or element of the
  /// array, at the offset, in document order: `key` is a member's quoted
  /// key, still escaped (empty for an element), and `value` its text.
  template <class F>
  void container(F&& f) {
    const char close = text_[pos_++] == '{' ? '}' : ']';
    skip_space();
    if (peek() == close) return expect(close);
    while (true) {
      skip_space();
      const std::size_t key = pos_;
      if (close == '}') string(nullptr);
      const std::size_t key_end = pos_;
      if (close == '}') {
        skip_space();
        expect(':');
        skip_space();
      }
      const std::size_t begin = pos_;
      value();
      f(text_.substr(key, key_end - key), text_.substr(begin, pos_ - begin));
      skip_space();
      if (peek() != ',') return expect(close);
      ++pos_;
    }
  }

  /// The string literal at the offset, unescaped into `*out` when `out` is
  /// not null.
  void string(std::string* out) {
    expect('"');
    const auto put = [out](char c) {
      if (out != nullptr) *out += c;
    };
    while (true) {
      // The bytes before the next quote or backslash stand for themselves.
      const std::size_t end = std::min(text_.find('"', pos_), text_.size());
      const std::size_t stop =
          std::min(text_.substr(0, end).find('\\', pos_), end);
      if (out != nullptr) out->append(text_.substr(pos_, stop - pos_));
      pos_ = stop;
      if (pos_ >= text_.size()) fail("unterminated string");
      if (text_[pos_++] == '"') return;
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      constexpr std::string_view kShort = "\"\\/bfnrt";
      constexpr std::string_view kMeans = "\"\\/\b\f\n\r\t";
      if (const std::size_t i = kShort.find(e); i != std::string_view::npos) {
        put(kMeans[i]);
        continue;
      }
      if (e != 'u') fail("unknown escape");
      if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
      unsigned code = 0;
      for (int i = 0; i < 4; ++i) {
        const char h = text_[pos_++];
        code <<= 4;
        if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
        else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
        else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
        else fail("bad \\u escape");
      }
      // Exporters only emit \u for control characters; decode the BMP
      // subset as UTF-8 without surrogate-pair handling.
      if (code < 0x80) {
        put(static_cast<char>(code));
      } else if (code < 0x800) {
        put(static_cast<char>(0xC0 | (code >> 6)));
        put(static_cast<char>(0x80 | (code & 0x3F)));
      } else {
        put(static_cast<char>(0xE0 | (code >> 12)));
        put(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
        put(static_cast<char>(0x80 | (code & 0x3F)));
      }
    }
  }

  /// The number token at the offset: the bytes a number may hold, then,
  /// when checking, std::stod, which must take them all.
  double number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected value");
    if (!check_) return 0.0;
    const std::string token(text_.substr(start, pos_ - start));
    try {
      std::size_t used = 0;
      const double v = std::stod(token, &used);
      if (used != token.size()) fail("bad number");
      return v;
    } catch (const std::logic_error&) {
      fail("bad number '" + token + "'");
    }
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + why);
  }

  void skip_space() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  void value() {
    skip_space();
    const char c = peek();
    if (c == '{' || c == '[')
      return container([](std::string_view, std::string_view) {});
    if (c == '"') return string(nullptr);
    if (consume_literal("true") || consume_literal("false") ||
        consume_literal("null"))
      return;
    number();
  }

  std::string_view text_;
  bool check_;
  std::size_t pos_ = 0;
};

/// Throws "JSON: not <what>" unless `v` has type `t`.
void require(const JsonValue& v, JsonValue::Type t, const char* what) {
  if (v.type() != t) throw std::runtime_error(std::string("JSON: not ") + what);
}

std::string unescape(std::string_view literal) {
  std::string out;
  Scanner(literal, false).string(&out);
  return out;
}

}  // namespace

JsonValue JsonValue::parse(std::string text) {
  auto doc = std::make_shared<const std::string>(std::move(text));
  const std::string_view value = Scanner(*doc, true).document();
  return JsonValue(std::move(doc), value);
}

JsonValue::Type JsonValue::type() const {
  switch (text_[0]) {
    case '{': return Type::Object;
    case '[': return Type::Array;
    case '"': return Type::String;
    case 't': case 'f': return Type::Bool;
    case 'n': return Type::Null;
    default: return Type::Number;
  }
}

bool JsonValue::as_bool() const {
  require(*this, Type::Bool, "a bool");
  return text_[0] == 't';
}

double JsonValue::as_number() const {
  require(*this, Type::Number, "a number");
  return Scanner(text_, true).number();
}

std::string JsonValue::as_string() const {
  require(*this, Type::String, "a string");
  return unescape(text_);
}

std::vector<JsonValue> JsonValue::items() const {
  require(*this, Type::Array, "an array");
  std::vector<JsonValue> out;
  Scanner(text_, false).container([&](std::string_view, std::string_view v) {
    out.push_back(JsonValue(doc_, v));
  });
  return out;
}

JsonValue::Members JsonValue::members() const {
  require(*this, Type::Object, "an object");
  Members out;
  Scanner(text_, false).container([&](std::string_view k, std::string_view v) {
    out.insert_or_assign(unescape(k), JsonValue(doc_, v));
  });
  return out;
}

std::optional<JsonValue> JsonValue::find(std::string_view key) const {
  const Members all = members();
  const auto it = all.find(key);
  if (it == all.end()) return std::nullopt;
  return it->second;
}

JsonValue JsonValue::at(std::string_view key) const {
  if (std::optional<JsonValue> v = find(key)) return std::move(*v);
  throw std::runtime_error("JSON: missing key '" + std::string(key) + "'");
}

}  // namespace speedbal
