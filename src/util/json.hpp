// Minimal self-contained JSON value model, parser and writer.
//
// Supports the full JSON grammar (objects, arrays, strings with escapes,
// numbers, booleans, null). Numbers are stored as double plus an exact
// int64 when the literal is integral — schedule times are integers and must
// round-trip exactly. Used by src/io for instance serialization; no external
// dependency is required anywhere in the library.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/common.hpp"

namespace resched {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
/// std::map keeps key order deterministic, which keeps serialized
/// instances diff-able across runs.
using JsonObject = std::map<std::string, JsonValue>;

/// Error thrown on malformed JSON input or type-mismatched access.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Limits enforced while parsing. The defaults are generous for trusted
/// on-disk files; callers parsing untrusted input (the reschedd request
/// path) should tighten them. A violated limit raises JsonError — the
/// parser never recurses past max_depth, so a hostile deeply-nested
/// document cannot overflow the stack.
struct JsonParseLimits {
  /// Maximum container nesting depth (objects + arrays).
  std::size_t max_depth = 96;
  /// Maximum document size in bytes.
  std::size_t max_bytes = 256u << 20;  // 256 MiB
  /// When set, a repeated key inside one object raises JsonError instead
  /// of silently keeping the first occurrence. Off by default for
  /// compatibility with trusted on-disk files; the reschedd request path
  /// turns it on — a duplicate key in a hostile request would otherwise
  /// make "what the server validated" and "what the server executed"
  /// diverge silently.
  bool reject_duplicate_keys = false;
};

class JsonValue {
 public:
  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(std::int64_t i) : value_(i) {}
  JsonValue(int i) : value_(static_cast<std::int64_t>(i)) {}
  JsonValue(std::size_t i) : value_(static_cast<std::int64_t>(i)) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(JsonArray a) : value_(std::move(a)) {}
  JsonValue(JsonObject o) : value_(std::move(o)) {}

  bool IsNull() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool IsBool() const { return std::holds_alternative<bool>(value_); }
  bool IsInt() const { return std::holds_alternative<std::int64_t>(value_); }
  bool IsDouble() const { return std::holds_alternative<double>(value_); }
  bool IsNumber() const { return IsInt() || IsDouble(); }
  bool IsString() const { return std::holds_alternative<std::string>(value_); }
  bool IsArray() const { return std::holds_alternative<JsonArray>(value_); }
  bool IsObject() const { return std::holds_alternative<JsonObject>(value_); }

  bool AsBool() const;
  std::int64_t AsInt() const;    // accepts integral doubles
  double AsDouble() const;       // accepts ints
  const std::string& AsString() const;
  const JsonArray& AsArray() const;
  JsonArray& AsArray();
  const JsonObject& AsObject() const;
  JsonObject& AsObject();

  /// Object member access; throws JsonError when missing.
  const JsonValue& At(const std::string& key) const;
  /// True when this is an object containing key.
  bool Contains(const std::string& key) const;
  /// Returns At(key) or fallback when absent.
  std::int64_t GetInt(const std::string& key, std::int64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  std::string GetString(const std::string& key, std::string fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  /// Serializes; indent < 0 means compact single-line output.
  std::string Dump(int indent = 2) const;

  /// Parses a complete JSON document (throws JsonError on any syntax error
  /// or trailing garbage) under the default JsonParseLimits.
  static JsonValue Parse(const std::string& text);

  /// As above with explicit limits (untrusted-input path).
  static JsonValue Parse(const std::string& text,
                         const JsonParseLimits& limits);

  friend bool operator==(const JsonValue& a, const JsonValue& b) {
    return a.value_ == b.value_;
  }

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               JsonArray, JsonObject>
      value_;
};

// Append helpers behind JsonValue::Dump, shared with the direct writers
// in src/io (the canonical instance text) so both emit the same bytes for
// the same value.

/// A quoted string literal: `"` and `\` escaped, control bytes as \b \f
/// \n \r \t or \u00xx, every other byte (UTF-8 included) verbatim.
void AppendJsonString(std::string& out, std::string_view s);
/// A decimal integer literal.
void AppendJsonInt(std::string& out, std::int64_t v);
/// `%.17g`, plus ".0" when that would read back as an integer, so the value
/// stays a double through a round trip. Throws JsonError on inf/NaN.
void AppendJsonDouble(std::string& out, double d);

}  // namespace resched
