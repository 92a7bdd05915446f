#include "support/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace pts::json {

void Value::set(std::string key, Value v) {
  for (auto& [existing, value] : object_) {
    if (existing == key) {
      value = std::move(v);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(v));
}

const Value* Value::find(std::string_view key) const {
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

// -- dump -------------------------------------------------------------------

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out += '"';
}

void dump_number(double v, std::string& out) {
  if (!std::isfinite(v)) {
    // JSON has no NaN/Inf; the codec never emits them, but a defensive
    // writer must not produce unparseable text.
    out += "null";
    return;
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;  // 32 bytes always suffice for shortest-round-trip doubles
  out.append(buf, end);
}

void dump_value(const Value& value, std::string& out) {
  switch (value.kind()) {
    case Value::Kind::Null: out += "null"; break;
    case Value::Kind::Bool: out += value.as_bool() ? "true" : "false"; break;
    case Value::Kind::Number: dump_number(value.as_number(), out); break;
    case Value::Kind::String: dump_string(value.as_string(), out); break;
    case Value::Kind::Array: {
      out += '[';
      bool first = true;
      for (const auto& item : value.items()) {
        if (!first) out += ',';
        first = false;
        dump_value(item, out);
      }
      out += ']';
      break;
    }
    case Value::Kind::Object: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.members()) {
        if (!first) out += ',';
        first = false;
        dump_string(key, out);
        out += ':';
        dump_value(member, out);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string dump(const Value& value) {
  std::string out;
  dump_value(value, out);
  return out;
}

// -- parse ------------------------------------------------------------------

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Value> run(std::string* error) {
    Value value;
    if (!parse_value(value, 0)) {
      report(error);
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      error_ = "trailing characters after document";
      report(error);
      return std::nullopt;
    }
    return value;
  }

 private:
  void report(std::string* error) const {
    if (error == nullptr) return;
    *error = error_.empty() ? "malformed JSON" : error_;
    *error += " (at byte " + std::to_string(pos_) + ")";
  }

  bool fail(const char* why) {
    if (error_.empty()) error_ = why;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return fail("invalid literal");
    }
    pos_ += literal.size();
    return true;
  }

  bool parse_value(Value& out, int depth) {
    if (depth >= kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        out = Value();
        return parse_literal("null");
      case 't':
        out = Value(true);
        return parse_literal("true");
      case 'f':
        out = Value(false);
        return parse_literal("false");
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Value(std::move(s));
        return true;
      }
      case '[': return parse_array(out, depth);
      case '{': return parse_object(out, depth);
      default: return parse_number(out);
    }
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc() || end != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      return fail("invalid number");
    }
    out = Value(value);
    return true;
  }

  bool parse_hex4(std::uint32_t& out) {
    if (text_.size() - pos_ < 4) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("invalid \\u escape");
      }
    }
    return true;
  }

  void append_utf8(std::uint32_t cp, std::string& s) {
    if (cp < 0x80) {
      s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      s += static_cast<char>(0xE0 | (cp >> 12));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      s += static_cast<char>(0xF0 | (cp >> 18));
      s += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (text_.substr(pos_, 2) != "\\u") return fail("lone surrogate");
            pos_ += 2;
            std::uint32_t low = 0;
            if (!parse_hex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) return fail("lone surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("lone surrogate");
          }
          append_utf8(cp, out);
          break;
        }
        default: return fail("invalid escape character");
      }
    }
  }

  bool parse_array(Value& out, int depth) {
    consume('[');
    out = Value::array();
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      Value item;
      if (!parse_value(item, depth + 1)) return false;
      out.push_back(std::move(item));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
  }

  bool parse_object(Value& out, int depth) {
    consume('{');
    out = Value::object();
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':' in object");
      Value member;
      if (!parse_value(member, depth + 1)) return false;
      out.set(std::move(key), std::move(member));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

}  // namespace pts::json
