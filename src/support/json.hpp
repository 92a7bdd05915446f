// Minimal JSON document model, parser, and writer.
//
// The daemon and the pts_client CLI exchange SolveSpec / SolveResult as
// JSON (service/codec.hpp maps them), and solve checkpoints are JSON too
// (solver/checkpoint.hpp); this file is the dependency-free JSON core. It
// lives in support/ so both layers can use it without the solver reaching
// up into the service layer. Two properties matter more than generality:
//
//  - Doubles round-trip exactly: dump() emits the shortest decimal that
//    parses back to the same bits (std::to_chars), so a SolveResult that
//    crosses the wire compares bit-identical to the in-process one.
//  - parse() never aborts on malformed text: it returns nullopt with a
//    position-tagged error. Input depth is capped so a hostile document
//    cannot blow the stack.
//
// Objects preserve insertion order (lookup is linear — documents here are
// small structs, not databases). Numbers are always doubles, which covers
// every field the codec moves: the largest integer field (a u64 seed) is
// accepted only up to 2^53, the range where doubles are exact.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pts::json {

class Value;
using Member = std::pair<std::string, Value>;

class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() = default;                                   // null
  Value(bool b) : kind_(Kind::Bool), bool_(b) {}       // NOLINT(runtime/explicit)
  Value(double n) : kind_(Kind::Number), number_(n) {} // NOLINT(runtime/explicit)
  Value(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
  Value(const char* s) : Value(std::string(s)) {}

  static Value array() { return Value(Kind::Array); }
  static Value object() { return Value(Kind::Object); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_object() const { return kind_ == Kind::Object; }

  // Accessors assume the matching kind (callers check first; the codec
  // layer turns mismatches into error strings, never aborts).
  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<Value>& items() const { return array_; }
  const std::vector<Member>& members() const { return object_; }

  /// Array append.
  void push_back(Value v) { array_.push_back(std::move(v)); }
  /// Object append (no dedup; set() replaces).
  void set(std::string key, Value v);
  /// Object lookup; nullptr when absent (or not an object).
  const Value* find(std::string_view key) const;

 private:
  explicit Value(Kind kind) : kind_(kind) {}

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<Member> object_;
};

/// Compact serialization (no whitespace). Doubles print shortest-round-trip;
/// integral doubles in the exact range print without a fraction.
std::string dump(const Value& value);

/// Parses one JSON document (trailing garbage is an error). On failure
/// returns nullopt and, when `error` is non-null, a byte-offset-tagged
/// description. Nesting deeper than 64 levels is rejected.
std::optional<Value> parse(std::string_view text, std::string* error);

}  // namespace pts::json
