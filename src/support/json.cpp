#include "support/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>

namespace pts::json {

// -- Value ------------------------------------------------------------------

bool Value::as_bool() const {
  const bool* b = std::get_if<bool>(&data_);
  return b != nullptr && *b;
}

double Value::as_number() const {
  const double* n = std::get_if<double>(&data_);
  return n != nullptr ? *n : 0.0;
}

const std::string& Value::as_string() const {
  static const std::string kEmpty;
  const std::string* s = std::get_if<std::string>(&data_);
  return s != nullptr ? *s : kEmpty;
}

const std::vector<Value>& Value::items() const {
  static const Array kEmpty;
  const Array* a = std::get_if<Array>(&data_);
  return a != nullptr ? *a : kEmpty;
}

const std::vector<Member>& Value::members() const {
  static const Object kEmpty;
  const Object* o = std::get_if<Object>(&data_);
  return o != nullptr ? *o : kEmpty;
}

void Value::push_back(Value v) {
  if (Array* a = std::get_if<Array>(&data_)) a->push_back(std::move(v));
}

void Value::append(std::string key, Value v) {
  if (Object* o = std::get_if<Object>(&data_)) {
    o->emplace_back(std::move(key), std::move(v));
  }
}

const Value* Value::find(std::string_view key) const {
  for (const auto& [name, value] : members()) {
    if (name == key) return &value;
  }
  return nullptr;
}

// -- Writer -----------------------------------------------------------------

namespace {

/// Writes integral `v` (|v| <= 2^53) exactly as std::to_chars(double)
/// would: the shortest round-trip digits of an integer in that range are
/// its decimal digits minus trailing zeros, and to_chars picks plain ("f")
/// notation unless scientific ("e") is strictly shorter. Returns the end.
char* write_integral(double v, char* out) {
  if (std::signbit(v)) *out++ = '-';
  const auto magnitude = static_cast<std::uint64_t>(std::fabs(v));
  // Up to four digits the plain form is never longer than "de+XX".
  if (magnitude < 10000) return std::to_chars(out, out + 4, magnitude).ptr;
  char digits[20];
  const auto [digits_end, ec] =
      std::to_chars(digits, digits + sizeof(digits), magnitude);
  (void)ec;  // 2^53 has 16 digits
  const auto n = static_cast<std::size_t>(digits_end - digits);
  std::size_t significant = n;
  while (significant > 1 && digits[significant - 1] == '0') --significant;
  // "d[.ddd]e+XX": the exponent n - 1 <= 15 always takes two digits.
  const std::size_t sci_length = significant + (significant > 1 ? 1 : 0) + 4;
  if (n <= sci_length) return std::copy(digits, digits_end, out);
  const std::size_t exponent = n - 1;
  *out++ = digits[0];
  if (significant > 1) {
    *out++ = '.';
    out = std::copy(digits + 1, digits + significant, out);
  }
  *out++ = 'e';
  *out++ = '+';
  *out++ = static_cast<char>('0' + exponent / 10);
  *out++ = static_cast<char>('0' + exponent % 10);
  return out;
}

}  // namespace

Writer& Writer::key(std::string_view name) {
  value(name);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

Writer& Writer::null() {
  separate();
  out_ += "null";
  return *this;
}

Writer& Writer::value(bool b) {
  separate();
  out_ += b ? "true" : "false";
  return *this;
}

Writer& Writer::value(double n) {
  // One append per number: separator and digits go through a local buffer
  // (a comma plus 24 characters covers every shortest-round-trip double).
  char buf[40];
  char* end = buf;
  if (need_comma_) *end++ = ',';
  need_comma_ = true;
  if (std::fabs(n) <= static_cast<double>(kMaxExactInteger) &&
      static_cast<double>(static_cast<std::int64_t>(n)) == n) {
    end = write_integral(n, end);
  } else if (std::isfinite(n)) {
    end = std::to_chars(end, buf + sizeof(buf), n).ptr;
  } else {
    // JSON has no NaN/Inf; the codec never emits them, but a defensive
    // writer must not produce unparseable text.
    end = std::copy_n("null", 4, end);
  }
  out_.append(buf, end);
  return *this;
}

Writer& Writer::value(std::string_view s) {
  separate();
  out_ += '"';
  std::size_t run = 0;  // start of the pending verbatim run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;  // UTF-8 passes verbatim
    out_.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\b': out_ += "\\b"; break;
      case '\f': out_ += "\\f"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out_.append(escape, sizeof(escape));
      }
    }
  }
  out_.append(s.data() + run, s.size() - run);
  out_ += '"';
  return *this;
}

namespace {

void write_value(const Value& value, Writer& w) {
  switch (value.kind()) {
    case Value::Kind::Null: w.null(); break;
    case Value::Kind::Bool: w.value(value.as_bool()); break;
    case Value::Kind::Number: w.value(value.as_number()); break;
    case Value::Kind::String: w.value(value.as_string()); break;
    case Value::Kind::Array:
      w.begin_array();
      for (const auto& item : value.items()) write_value(item, w);
      w.end_array();
      break;
    case Value::Kind::Object:
      w.begin_object();
      for (const auto& [key, member] : value.members()) {
        w.key(key);
        write_value(member, w);
      }
      w.end_object();
      break;
  }
}

}  // namespace

std::string dump(const Value& value) {
  Writer w;
  write_value(value, w);
  return w.take();
}

// -- parse ------------------------------------------------------------------

namespace {

constexpr int kMaxDepth = 64;

bool is_digit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

/// Recursive descent over `text`, building each node in place (it is a
/// friend of Value).
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

  bool fail(std::string why) {
    if (error_.empty()) error_ = std::move(why);
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
      case 'n': return parse_literal("null");  // `out` starts null
      case 't':
        out.data_ = true;
        return parse_literal("true");
      case 'f':
        out.data_ = false;
        return parse_literal("false");
      case '"': return parse_string(out.data_.emplace<std::string>());
      case '[': return parse_array(out, depth);
      case '{': return parse_object(out, depth);
      default: return parse_number(out);
    }
  }

  std::size_t skip_digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    return pos_ - start;
  }

  /// RFC 8259: [ "-" ] ( "0" / digit1-9 *digit ) [ "." 1*digit ]
  /// [ ( "e" / "E" ) [ "+" / "-" ] 1*digit ].
  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    const auto invalid = [&] {
      pos_ = start;
      return fail("invalid number");
    };
    consume('-');
    const std::size_t int_start = pos_;
    const std::size_t int_digits = skip_digits();
    if (int_digits == 0 || (int_digits > 1 && text_[int_start] == '0')) {
      return invalid();
    }
    if (consume('.') && skip_digits() == 0) return invalid();
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (!consume('+')) consume('-');
      if (skip_digits() == 0) return invalid();
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc() || end != text_.data() + pos_) {
      return invalid();  // out of double range
    }
    out.data_ = value;
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
      // Copy the run up to the next quote, backslash or control byte.
      const std::size_t run = pos_;
      while (pos_ < text_.size()) {
        const auto c = static_cast<unsigned char>(text_[pos_]);
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') return fail("raw control character in string");
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

  // Elements and members are parsed straight into their container slot.
  bool parse_array(Value& out, int depth) {
    consume('[');
    auto& items = out.data_.emplace<Value::Array>();
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      if (!parse_value(items.emplace_back(), depth + 1)) return false;
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
  }

  bool parse_object(Value& out, int depth) {
    consume('{');
    auto& members = out.data_.emplace<Value::Object>();
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      Member& member = members.emplace_back();  // O(1): checked at the close
      if (!parse_string(member.first)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':' in object");
      if (!parse_value(member.second, depth + 1)) return false;
      skip_ws();
      if (consume('}')) return unique_keys(members);
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
  }

  /// Refuses an object that repeats a key, so no copy silently wins.
  /// O(n log n) in the member count; `keys_` is reused because a nested
  /// object is checked before its parent closes.
  bool unique_keys(const std::vector<Member>& members) {
    keys_.clear();
    for (const auto& member : members) keys_.push_back(member.first);
    std::sort(keys_.begin(), keys_.end());
    const auto dup = std::adjacent_find(keys_.begin(), keys_.end());
    if (dup == keys_.end()) return true;
    return fail("duplicate key '" + std::string(*dup) + "'");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
  std::vector<std::string_view> keys_;
};

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

// -- conversions ------------------------------------------------------------

bool convert(const Value& v, std::string& out) {
  out = v.as_string();
  return v.is_string();
}

bool convert(const Value& v, bool& out) {
  out = v.as_bool();
  return v.is_bool();
}

bool convert(const Value& v, double& out) {
  out = v.as_number();
  return v.is_number() && std::isfinite(out);
}

bool convert(const Value& v, std::optional<double>& out) {
  if (v.is_null()) {
    out.reset();
    return true;
  }
  return convert(v, out.emplace());
}

// -- Reader -----------------------------------------------------------------

Reader::Reader(const Value& value, std::string_view context, Presence presence,
               std::string& error)
    : value_(&value), name_(context), presence_(presence), error_(error) {
  if (!value.is_object()) fail("expected an object");
}

Reader::Reader(Reader& parent, std::string_view key)
    : value_(parent.member(key)),
      parent_(&parent),
      name_(key),
      presence_(parent.presence_),
      error_(parent.error_) {
  if (value_ != nullptr && !value_->is_object()) {
    parent.fail("'" + std::string(key) + "' must be an object");
    value_ = nullptr;
  }
}

const Value* Reader::member(std::string_view key) {
  if (value_ == nullptr || !ok()) return nullptr;
  const std::vector<Member>& members = value_->members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (members[i].first != key) continue;
    ++matched_;
    if (i < 64) matched_mask_ |= std::uint64_t{1} << i;
    return &members[i].second;
  }
  if (presence_ == Presence::Required) {
    fail("'" + std::string(key) + "' is required");
  }
  return nullptr;
}

void Reader::fail(std::string_view why) {
  if (!ok()) return;
  error_ = path();
  error_ += ": ";
  error_ += why;
}

void Reader::finish() {
  if (value_ == nullptr || !ok()) return;
  const std::vector<Member>& members = value_->members();
  if (matched_ == members.size()) return;
  // Some member went unread; the first one sits below index 64 because
  // fewer than 64 were matched (parse() already refused repeated keys).
  std::size_t first = 0;
  while (first < members.size() && first < 64 &&
         (matched_mask_ >> first & 1) != 0) {
    ++first;
  }
  fail("unknown key '" + members[first].first + "'");
}

std::string Reader::path() const {
  if (parent_ == nullptr) return std::string(name_);
  return parent_->path() + "." + std::string(name_);
}

}  // namespace pts::json
