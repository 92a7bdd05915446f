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
//    decoders build a DOM and read it through one strict `Reader`.
//  - parse() never aborts on malformed text: it returns nullopt with a
//    position-tagged error. Numbers follow RFC 8259's grammar exactly (no
//    leading zeros, no bare '.', digits on both sides of the point). Input
//    depth is capped so a hostile document cannot blow the stack.
//  - parse() runs in near-linear time: object members are appended in O(1)
//    in document order, and each object's keys are checked once, by a sort,
//    when it closes. A repeated key fails the parse, so no decoder ever
//    sees one and the last copy never silently wins.
//  - One reader. `Reader` serves every decoder (spec, result, checkpoint):
//    the first error wins and carries the object's path, unknown keys are
//    refused, values pass convert()'s checks, and each document sets
//    whether an absent member defaults or is refused.
//
// Object lookup is linear (documents here are small structs, not
// databases). Numbers are always doubles, exact to 2^53 (kMaxExactInteger):
// the reader refuses a larger integer, Client::submit refuses a larger
// seed before sending, and checkpoints carry u64s as hex strings.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>
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

/// The largest integer a JSON number carries exactly (numbers are doubles).
inline constexpr std::uint64_t kMaxExactInteger = std::uint64_t{1} << 53;

/// The largest `U` a JSON number can carry.
template <std::unsigned_integral U>
inline constexpr std::uint64_t kUintLimit =
    std::min<std::uint64_t>(kMaxExactInteger, std::numeric_limits<U>::max());

// Conversions out of a Value, one per type the decoders read; each returns
// false when `v` breaks that type's rule (`out` is then unspecified).
bool convert(const Value& v, std::string& out);
bool convert(const Value& v, bool& out);
/// Finite only: the grammar has no NaN/Inf, but an in-process Value can.
bool convert(const Value& v, double& out);
/// A finite number, or null for nullopt.
bool convert(const Value& v, std::optional<double>& out);
/// A whole number in [0, kUintLimit<U>]: a u64 stops at 2^53, a u32 cell
/// id at 2^32 - 1.
template <std::unsigned_integral U>
  requires(!std::same_as<U, bool>)
bool convert(const Value& v, U& out) {
  const double n = v.as_number();
  if (!v.is_number() || !(n >= 0.0 && n <= static_cast<double>(kUintLimit<U>)) ||
      n != static_cast<double>(static_cast<std::uint64_t>(n))) {
    return false;
  }
  out = static_cast<U>(n);
  return true;
}
template <typename T>
  requires requires(const Value& v, T& item) { convert(v, item); }
bool convert(const Value& v, std::vector<T>& out) {
  out.clear();
  out.reserve(v.items().size());
  for (const Value& item : v.items()) {
    if (!convert(item, out.emplace_back())) return false;
  }
  return v.is_array();
}

/// Strict reader over one JSON object: the one reader behind every decoder
/// (specs and results in service/codec, checkpoints in solver/checkpoint).
///  - The first error wins and later reads do nothing. Each error starts
///    with the object's path: "spec.tabu.compound: 'batch' must be ...".
///  - finish() refuses the first member no read asked about, so a typo
///    ("iteratons") is an error, never a silent default.
///  - Values follow convert(): finite numbers, whole numbers within 2^53
///    and their type.
///  - Presence is set per document: Optional leaves the target untouched
///    when the key is absent (clients send partial specs), Required
///    refuses the absence (checkpoints).
class Reader {
 public:
  enum class Presence { Optional, Required };

  /// Reads the object `value`, named `context` in errors; `error` must
  /// outlive the reader and collects the first error.
  Reader(const Value& value, std::string_view context, Presence presence,
         std::string& error);
  /// Reads member `key` of `parent` as a nested object. When it is absent
  /// the reader is empty: every read leaves its target untouched.
  Reader(Reader& parent, std::string_view key);

  /// Marks `key` as known and returns its value; nullptr when the key is
  /// absent (an error under Presence::Required) or an error is already set.
  const Value* member(std::string_view key);

  /// Reads member `key` through convert(); a refused value is an error.
  template <typename T>
    requires requires(const Value& v, T& out) { convert(v, out); }
  void read(std::string_view key, T& out) {
    if (const Value* v = member(key); v != nullptr && !convert(*v, out)) {
      fail("'" + std::string(key) + "' must be " + expected<T>());
    }
  }

  /// Records "<path>: `why`" unless an error is already set.
  void fail(std::string_view why);
  /// Call last: refuses the first member no read asked about.
  void finish();

 private:
  bool ok() const { return error_.empty(); }
  /// What convert() requires of a `T`, for error messages.
  template <typename T>
  static std::string expected() {
    if constexpr (std::same_as<T, std::string>) {
      return "a string";
    } else if constexpr (std::same_as<T, bool>) {
      return "a boolean";
    } else if constexpr (std::same_as<T, double>) {
      return "a finite number";
    } else if constexpr (std::same_as<T, std::optional<double>>) {
      return "a finite number or null";
    } else if constexpr (std::unsigned_integral<T>) {
      return "a whole number in [0, " + std::to_string(kUintLimit<T>) + "]";
    } else {
      return "an array, each item " + expected<typename T::value_type>();
    }
  }
  std::string path() const;

  const Value* value_;  ///< null for an absent nested object
  const Reader* parent_ = nullptr;
  std::string_view name_;  ///< context (root) or key (nested)
  Presence presence_;
  std::string& error_;
  /// Members matched so far, and which of the first 64 they were: enough
  /// to name the first unknown member, since no schema object has 64 keys.
  std::size_t matched_ = 0;
  std::uint64_t matched_mask_ = 0;
};

}  // namespace pts::json
