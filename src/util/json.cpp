#include "util/json.hpp"

#include <cctype>
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

// --- JsonValue parser -----------------------------------------------------

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON parse error at offset " +
                             std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
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

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonValue v;
      v.type_ = JsonValue::Type::String;
      v.str_ = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      JsonValue v;
      v.type_ = JsonValue::Type::Bool;
      v.bool_ = true;
      return v;
    }
    if (consume_literal("false")) {
      JsonValue v;
      v.type_ = JsonValue::Type::Bool;
      v.bool_ = false;
      return v;
    }
    if (consume_literal("null")) return JsonValue{};
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members_[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
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
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    try {
      JsonValue v;
      v.type_ = JsonValue::Type::Number;
      std::size_t used = 0;
      v.num_ = std::stod(token, &used);
      if (used != token.size()) fail("bad number");
      return v;
    } catch (const std::logic_error&) {
      fail("bad number '" + token + "'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

bool JsonValue::as_bool() const {
  if (type_ != Type::Bool) throw std::runtime_error("JSON: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::Number) throw std::runtime_error("JSON: not a number");
  return num_;
}

std::int64_t JsonValue::as_int() const {
  return static_cast<std::int64_t>(as_number());
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::String) throw std::runtime_error("JSON: not a string");
  return str_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::Array) throw std::runtime_error("JSON: not an array");
  return items_;
}

const std::map<std::string, JsonValue>& JsonValue::members() const {
  if (type_ != Type::Object) throw std::runtime_error("JSON: not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  const auto& m = members();
  const auto it = m.find(std::string(key));
  return it == m.end() ? nullptr : &it->second;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr)
    throw std::runtime_error("JSON: missing key '" + std::string(key) + "'");
  return *v;
}

}  // namespace speedbal
