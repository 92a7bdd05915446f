// Minimal JSON document model, parser, and writer.
//
// The daemon and the pts_client CLI exchange SolveSpec / SolveResult as
// JSON (service/codec.hpp maps them), and solve checkpoints are JSON too
// (solver/checkpoint.hpp); this file is the dependency-free JSON core. It
// lives in support/ so both layers can use it without the solver reaching
// up into the service layer. Every served result crosses the wire through
// this file, so it is built for the serving path:
//
//  - One serializer. `Writer` is an append-only byte sink; encoders stream
//    their fields straight into it, and dump(Value) is a walk over the same
//    Writer, so there is exactly one place that formats JSON text.
//  - Doubles round-trip exactly: numbers print as std::to_chars(double)
//    prints them (shortest text that parses back to the same bits), so a
//    SolveResult that crosses the wire compares bit-identical to the
//    in-process one. Integral values up to 2^53 take a fast path that
//    reproduces to_chars' choice between "100" and "1e+05" exactly.
//  - A lean node. `Value` is a tagged std::variant (40 bytes on LP64): the
//    decoders build a strict DOM and read it through checked accessors.
//  - parse() never aborts on malformed text: it returns nullopt with a
//    position-tagged error. Numbers follow RFC 8259's grammar exactly (no
//    leading zeros, no bare '.', digits on both sides of the point). Input
//    depth is capped so a hostile document cannot blow the stack.
//  - parse() runs in near-linear time: object members are appended in O(1)
//    in document order, and each object's keys are checked once, by a sort,
//    when it closes. A repeated key fails the parse, so no decoder ever
//    sees one and the last copy never silently wins.
//
// Object lookup is linear (documents here are small structs, not
// databases). Numbers are always doubles, which covers every field the
// codec moves: the largest integer field (a u64 seed) is accepted only up
// to 2^53, the range where doubles are exact.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace pts::json {

class Value;
class Parser;
using Member = std::pair<std::string, Value>;

class Value {
 public:
  /// The variant's alternative index, in declaration order.
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() = default;                                   // null
  Value(bool b) : data_(b) {}                          // NOLINT(runtime/explicit)
  Value(double n) : data_(n) {}                        // NOLINT(runtime/explicit)
  Value(std::string s) : data_(std::move(s)) {}        // NOLINT(runtime/explicit)
  Value(const char* s) : Value(std::string(s)) {}      // NOLINT(runtime/explicit)

  static Value array() { return Value(Array{}); }
  static Value object() { return Value(Object{}); }

  Kind kind() const { return static_cast<Kind>(data_.index()); }
  bool is_null() const { return kind() == Kind::Null; }
  bool is_bool() const { return kind() == Kind::Bool; }
  bool is_number() const { return kind() == Kind::Number; }
  bool is_string() const { return kind() == Kind::String; }
  bool is_array() const { return kind() == Kind::Array; }
  bool is_object() const { return kind() == Kind::Object; }

  // Accessors expect the matching kind (callers check first; the codec
  // layer turns mismatches into error strings). On a mismatch they return
  // false / 0 / an empty string or container, never abort.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Value>& items() const;
  const std::vector<Member>& members() const;

  /// Array append.
  void push_back(Value v);
  /// Object append in O(1). It does not check for a repeated key; parse()
  /// refuses one, so a document built with a repeat does not read back.
  void append(std::string key, Value v);
  /// Object lookup (first match); nullptr when absent (or not an object).
  const Value* find(std::string_view key) const;

 private:
  friend class Parser;  // builds nodes in place
  using Array = std::vector<Value>;
  using Object = std::vector<Member>;

  explicit Value(Array a) : data_(std::move(a)) {}
  explicit Value(Object o) : data_(std::move(o)) {}

  std::variant<std::monostate, bool, double, std::string, Array, Object> data_;
};

/// Append-only JSON text builder: the one serializer. Calls mirror the
/// document's shape — begin/end brackets, key() before each object member,
/// one value() per scalar — and commas are inserted automatically. The
/// caller is responsible for well-formed nesting. Non-finite numbers print
/// as null (JSON has no NaN/Inf).
class Writer {
 public:
  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }
  Writer& key(std::string_view name);

  Writer& null();
  Writer& value(bool b);
  Writer& value(double n);
  Writer& value(std::string_view s);
  Writer& value(const char* s) { return value(std::string_view(s)); }
  /// Integers are written as the double they convert to (exact up to 2^53).
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Writer& value(T n) {
    return value(static_cast<double>(n));
  }

  /// key(name) followed by value(v).
  template <typename T>
  Writer& field(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  /// Moves out the text written so far (call once, when done).
  std::string take() { return std::move(out_); }

 private:
  void separate() {
    if (need_comma_) out_ += ',';
    need_comma_ = true;
  }
  Writer& open(char bracket) {
    separate();
    out_ += bracket;
    need_comma_ = false;
    return *this;
  }
  Writer& close(char bracket) {
    out_ += bracket;
    need_comma_ = true;
    return *this;
  }

  std::string out_;
  bool need_comma_ = false;
};

/// Compact serialization (no whitespace) through Writer.
std::string dump(const Value& value);

/// Parses one JSON document (trailing garbage is an error). On failure
/// returns nullopt and, when `error` is non-null, a byte-offset-tagged
/// description. Nesting deeper than 64 levels and an object that repeats a
/// key are rejected.
std::optional<Value> parse(std::string_view text, std::string* error);

}  // namespace pts::json
