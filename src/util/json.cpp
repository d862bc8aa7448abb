#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace resched {

bool JsonValue::AsBool() const {
  if (!IsBool()) throw JsonError("JSON value is not a bool");
  return std::get<bool>(value_);
}

std::int64_t JsonValue::AsInt() const {
  if (IsInt()) return std::get<std::int64_t>(value_);
  if (IsDouble()) {
    const double d = std::get<double>(value_);
    if (std::nearbyint(d) == d) return static_cast<std::int64_t>(d);
  }
  throw JsonError("JSON value is not an integer");
}

double JsonValue::AsDouble() const {
  if (IsInt()) return static_cast<double>(std::get<std::int64_t>(value_));
  if (IsDouble()) return std::get<double>(value_);
  throw JsonError("JSON value is not a number");
}

const std::string& JsonValue::AsString() const {
  if (!IsString()) throw JsonError("JSON value is not a string");
  return std::get<std::string>(value_);
}

const JsonArray& JsonValue::AsArray() const {
  if (!IsArray()) throw JsonError("JSON value is not an array");
  return std::get<JsonArray>(value_);
}

JsonArray& JsonValue::AsArray() {
  if (!IsArray()) throw JsonError("JSON value is not an array");
  return std::get<JsonArray>(value_);
}

const JsonObject& JsonValue::AsObject() const {
  if (!IsObject()) throw JsonError("JSON value is not an object");
  return std::get<JsonObject>(value_);
}

JsonObject& JsonValue::AsObject() {
  if (!IsObject()) throw JsonError("JSON value is not an object");
  return std::get<JsonObject>(value_);
}

const JsonValue& JsonValue::At(const std::string& key) const {
  const auto& obj = AsObject();
  const auto it = obj.find(key);
  if (it == obj.end()) throw JsonError("missing JSON key: " + key);
  return it->second;
}

bool JsonValue::Contains(const std::string& key) const {
  return IsObject() && AsObject().count(key) > 0;
}

std::int64_t JsonValue::GetInt(const std::string& key,
                               std::int64_t fallback) const {
  return Contains(key) ? At(key).AsInt() : fallback;
}

double JsonValue::GetDouble(const std::string& key, double fallback) const {
  return Contains(key) ? At(key).AsDouble() : fallback;
}

std::string JsonValue::GetString(const std::string& key,
                                 std::string fallback) const {
  return Contains(key) ? At(key).AsString() : std::move(fallback);
}

bool JsonValue::GetBool(const std::string& key, bool fallback) const {
  return Contains(key) ? At(key).AsBool() : fallback;
}

// ---------------------------------------------------------------- writing

void AppendJsonString(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  std::size_t run = 0;  // start of the pending run of verbatim bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(s, run, s.size() - run);
  out += '"';
}

void AppendJsonInt(std::string& out, std::int64_t v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;  // 24 bytes hold any int64
  out.append(buf, end);
}

void AppendJsonDouble(std::string& out, double d) {
  if (!std::isfinite(d)) throw JsonError("cannot serialize non-finite number");
  char buf[40];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", d);
  const std::string_view text(buf, static_cast<std::size_t>(n));
  out += text;
  // "34" would parse back as an integer.
  if (text.find_first_of(".eE") == std::string_view::npos) out += ".0";
}

namespace {

void AppendNewlineIndent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

}  // namespace

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

void JsonValue::DumpTo(std::string& out, int indent, int depth) const {
  if (IsNull()) {
    out += "null";
  } else if (IsBool()) {
    out += std::get<bool>(value_) ? "true" : "false";
  } else if (IsInt()) {
    AppendJsonInt(out, std::get<std::int64_t>(value_));
  } else if (IsDouble()) {
    AppendJsonDouble(out, std::get<double>(value_));
  } else if (IsString()) {
    AppendJsonString(out, std::get<std::string>(value_));
  } else if (IsArray()) {
    const auto& arr = std::get<JsonArray>(value_);
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i != 0) out += ',';
      AppendNewlineIndent(out, indent, depth + 1);
      arr[i].DumpTo(out, indent, depth + 1);
    }
    AppendNewlineIndent(out, indent, depth);
    out += ']';
  } else {
    const auto& obj = std::get<JsonObject>(value_);
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [k, v] : obj) {
      if (!first) out += ',';
      first = false;
      AppendNewlineIndent(out, indent, depth + 1);
      AppendJsonString(out, k);
      out += indent < 0 ? ":" : ": ";
      v.DumpTo(out, indent, depth + 1);
    }
    AppendNewlineIndent(out, indent, depth);
    out += '}';
  }
}

// ---------------------------------------------------------------- parsing

namespace {

class Parser {
 public:
  Parser(const std::string& text, const JsonParseLimits& limits)
      : text_(text), limits_(limits) {}

  JsonValue ParseDocument() {
    if (text_.size() > limits_.max_bytes) {
      throw JsonError("JSON document exceeds the size limit (" +
                      std::to_string(text_.size()) + " > " +
                      std::to_string(limits_.max_bytes) + " bytes)");
    }
    JsonValue v = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& msg) {
    // Report line:column (both 1-based) rather than a raw byte offset:
    // instance and fault-scenario files are hand-edited, and editors
    // navigate by line. The scan is O(n) but only runs on the error path.
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw JsonError("JSON parse error at line " + std::to_string(line) +
                    ":" + std::to_string(column) + ": " + msg);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool ConsumeLiteral(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue ParseValue() {
    SkipWhitespace();
    const char c = Peek();
    switch (c) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': return JsonValue(ParseString());
      case 't':
        if (!ConsumeLiteral("true")) Fail("invalid literal");
        return JsonValue(true);
      case 'f':
        if (!ConsumeLiteral("false")) Fail("invalid literal");
        return JsonValue(false);
      case 'n':
        if (!ConsumeLiteral("null")) Fail("invalid literal");
        return JsonValue(nullptr);
      default: return ParseNumber();
    }
  }

  /// RAII depth guard: ParseObject/ParseArray recurse through ParseValue,
  /// so the container nesting depth bounds the C++ stack depth. Enforcing
  /// limits_.max_depth turns a hostile "[[[[..." document into a JsonError
  /// instead of a stack overflow.
  class DepthGuard {
   public:
    explicit DepthGuard(Parser& p) : parser_(p) {
      if (++parser_.depth_ > parser_.limits_.max_depth) {
        parser_.Fail("nesting depth exceeds the limit (" +
                     std::to_string(parser_.limits_.max_depth) + ")");
      }
    }
    ~DepthGuard() { --parser_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    Parser& parser_;
  };

  JsonValue ParseObject() {
    const DepthGuard guard(*this);
    Expect('{');
    JsonObject obj;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return JsonValue(std::move(obj));
    }
    for (;;) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      const auto [it, inserted] = obj.try_emplace(std::move(key));
      if (inserted) {
        it->second = ParseValue();
      } else if (limits_.reject_duplicate_keys) {
        Fail("duplicate object key \"" + it->first + "\"");
      } else {
        (void)ParseValue();  // the first occurrence wins
      }
      SkipWhitespace();
      const char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return JsonValue(std::move(obj));
      }
      Fail("expected ',' or '}' in object");
    }
  }

  JsonValue ParseArray() {
    const DepthGuard guard(*this);
    Expect('[');
    JsonArray arr;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return JsonValue(std::move(arr));
    }
    for (;;) {
      arr.push_back(ParseValue());
      SkipWhitespace();
      const char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return JsonValue(std::move(arr));
      }
      Fail("expected ',' or ']' in array");
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    for (;;) {
      // Copy the run up to the next quote, backslash or control byte in
      // one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size()) {
        const auto b = static_cast<unsigned char>(text_[pos_]);
        if (b == '"' || b == '\\' || b < 0x20) break;
        ++pos_;
      }
      out.append(text_, run, pos_ - run);
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) Fail("unterminated escape");
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
          case 'u': AppendUnicodeEscape(out); break;
          default: Fail("invalid escape character");
        }
      } else {
        Fail("raw control character in string");
      }
    }
  }

  unsigned ParseHex4() {
    if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else Fail("invalid hex digit in \\u escape");
    }
    return v;
  }

  void AppendUnicodeEscape(std::string& out) {
    unsigned cp = ParseHex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need a low one
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        Fail("unpaired surrogate");
      }
      pos_ += 2;
      const unsigned lo = ParseHex4();
      if (lo < 0xDC00 || lo > 0xDFFF) Fail("invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      Fail("unpaired low surrogate");
    }
    // UTF-8 encode.
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      Fail("invalid number");
    }
    const std::string_view token(text_.data() + start, pos_ - start);
    if (integral) {
      std::int64_t iv = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), iv);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return JsonValue(iv);
      }
      // Integer overflow: fall through to double.
    }
    double dv = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), dv);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      Fail("invalid number");
    }
    return JsonValue(dv);
  }

  const std::string& text_;
  const JsonParseLimits& limits_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

JsonValue JsonValue::Parse(const std::string& text) {
  return Parse(text, JsonParseLimits{});
}

JsonValue JsonValue::Parse(const std::string& text,
                           const JsonParseLimits& limits) {
  return Parser(text, limits).ParseDocument();
}

}  // namespace resched
