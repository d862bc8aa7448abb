#include "util/json.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <set>
#include <stdexcept>

#include "util/check.hpp"

namespace resched {

// ---------------------------------------------------------------- strings

namespace json_detail {

bool Less(const StrRep& a, const StrRep& b) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    if (a.IsInline() && b.IsInline()) {
      // Zero padding keeps byte order; equal padded bytes leave the
      // shorter string first (it is a prefix followed by NULs).
      const std::uint64_t a0 = __builtin_bswap64(a.Word(0));
      const std::uint64_t b0 = __builtin_bswap64(b.Word(0));
      if (a0 != b0) return a0 < b0;
      constexpr std::uint64_t kNoLength = ~(std::uint64_t{0xFF} << 56);
      const std::uint64_t a1 = __builtin_bswap64(a.Word(1) & kNoLength);
      const std::uint64_t b1 = __builtin_bswap64(b.Word(1) & kNoLength);
      if (a1 != b1) return a1 < b1;
      return a.bytes[15] < b.bytes[15];
    }
  }
  return a.view() < b.view();
}

}  // namespace json_detail

JsonString::JsonString(std::string_view s) : rep_(Own(s)) {}

json_detail::StrRep JsonString::Own(std::string_view s) {
  if (s.size() <= Rep::kMaxInline) return Rep::Inline(s);
  // Built strings longer than 4 GiB do not occur: documents are capped
  // far below that (JsonParseLimits::max_bytes).
  RESCHED_CHECK_MSG(s.size() <= UINT32_MAX, "JSON string longer than 4 GiB");
  char* p = std::allocator<char>().allocate(s.size());
  std::memcpy(p, s.data(), s.size());
  return Rep::OutOfLine(p, s.size(), Rep::kHeap);
}

void JsonString::Release(const Rep& rep) noexcept {
  if (rep.bytes[15] == Rep::kHeap) {
    const std::string_view bytes = rep.view();
    std::allocator<char>().deallocate(const_cast<char*>(bytes.data()),
                                      bytes.size());
  }
}

// ----------------------------------------------------------------- values

JsonValue::JsonValue(JsonArray a) : kind_(Kind::kArray), owned_(true) {
  u_.a = new JsonArray(std::move(a));
}

JsonValue::JsonValue(JsonObject o) : kind_(Kind::kObject), owned_(true) {
  u_.o = new JsonObject(std::move(o));
}

JsonValue::JsonValue(const json_detail::Node& node) noexcept {
  using json_detail::Node;
  const std::uint64_t word = node.bits.Word(0);
  switch (node.bits.bytes[15]) {
    case Node::kTagNull: break;
    case Node::kTagFalse:
    case Node::kTagTrue:
      u_.b = node.bits.bytes[15] == Node::kTagTrue;
      kind_ = Kind::kBool;
      break;
    case Node::kTagInt:
      u_.i = static_cast<std::int64_t>(word);
      kind_ = Kind::kInt;
      break;
    case Node::kTagDouble:
      u_.d = std::bit_cast<double>(word);
      kind_ = Kind::kDouble;
      break;
    case Node::kTagArray:
      u_.a = reinterpret_cast<JsonArray*>(word);
      kind_ = Kind::kArray;
      break;
    case Node::kTagObject:
      u_.o = reinterpret_cast<JsonObject*>(word);
      kind_ = Kind::kObject;
      break;
    default:  // a string rep
      u_.s = node.bits;
      kind_ = Kind::kString;
      break;
  }
}

JsonValue::JsonValue(const JsonValue& other) {
  const JsonValue& src = other.Self();
  switch (src.kind_) {
    case Kind::kString: u_.s = JsonString::Own(src.u_.s.view()); break;
    case Kind::kArray:
      u_.a = new JsonArray(*src.u_.a);
      owned_ = true;
      break;
    case Kind::kObject:
      u_.o = new JsonObject(*src.u_.o);
      owned_ = true;
      break;
    default: u_ = src.u_; break;  // scalars (Self() is never a document)
  }
  kind_ = src.kind_;
}

JsonValue& JsonValue::operator=(const JsonValue& other) {
  JsonValue copy(other);
  Destroy();
  MoveFrom(copy);
  return *this;
}

JsonValue& JsonValue::operator=(JsonValue&& other) noexcept {
  // Via a temporary: `other` may live inside this value.
  JsonValue moved(std::move(other));
  Destroy();
  MoveFrom(moved);
  return *this;
}

void JsonValue::Release() noexcept {
  switch (kind_) {
    case Kind::kString: JsonString::Release(u_.s); break;
    case Kind::kArray:
      if (owned_) delete u_.a;
      break;
    case Kind::kObject:
      if (owned_) delete u_.o;
      break;
    case Kind::kDocument: delete u_.doc; break;
    default: break;
  }
}

void JsonValue::Thaw() {
  JsonValue copy(u_.doc->root);
  Destroy();
  MoveFrom(copy);
}

bool JsonValue::Equal(const JsonValue& a, const JsonValue& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Kind::kNull: return true;
    case Kind::kBool: return a.u_.b == b.u_.b;
    case Kind::kInt: return a.u_.i == b.u_.i;
    case Kind::kDouble: return a.u_.d == b.u_.d;
    case Kind::kString: return json_detail::Equal(a.u_.s, b.u_.s);
    case Kind::kArray: return *a.u_.a == *b.u_.a;
    case Kind::kObject: return *a.u_.o == *b.u_.o;
    case Kind::kDocument: break;
  }
  return false;
}

bool JsonValue::AsBool() const {
  const JsonValue& v = Self();
  if (v.kind_ != Kind::kBool) throw JsonError("JSON value is not a bool");
  return v.u_.b;
}

std::int64_t JsonValue::AsInt() const {
  const JsonValue& v = Self();
  if (v.kind_ == Kind::kInt) return v.u_.i;
  if (v.kind_ == Kind::kDouble && std::nearbyint(v.u_.d) == v.u_.d) {
    return static_cast<std::int64_t>(v.u_.d);
  }
  throw JsonError("JSON value is not an integer");
}

double JsonValue::AsDouble() const {
  const JsonValue& v = Self();
  if (v.kind_ == Kind::kInt) return static_cast<double>(v.u_.i);
  if (v.kind_ == Kind::kDouble) return v.u_.d;
  throw JsonError("JSON value is not a number");
}

std::string_view JsonValue::AsString() const {
  const JsonValue& v = Self();
  if (v.kind_ != Kind::kString) throw JsonError("JSON value is not a string");
  return v.u_.s.view();
}

const JsonArray& JsonValue::AsArray() const {
  const JsonValue& v = Self();
  if (v.kind_ != Kind::kArray) throw JsonError("JSON value is not an array");
  return *v.u_.a;
}

JsonArray& JsonValue::AsArray() {
  if (!IsArray()) throw JsonError("JSON value is not an array");
  if (kind_ == Kind::kDocument) Thaw();
  RESCHED_DCHECK_MSG(owned_, "mutable access to a node inside a document");
  return *u_.a;
}

const JsonObject& JsonValue::AsObject() const {
  const JsonValue& v = Self();
  if (v.kind_ != Kind::kObject) throw JsonError("JSON value is not an object");
  return *v.u_.o;
}

JsonObject& JsonValue::AsObject() {
  if (!IsObject()) throw JsonError("JSON value is not an object");
  if (kind_ == Kind::kDocument) Thaw();
  RESCHED_DCHECK_MSG(owned_, "mutable access to a node inside a document");
  return *u_.o;
}

void JsonValue::ThrowMissingKey(std::string_view key) {
  throw JsonError("missing JSON key: " + std::string(key));
}

// ---------------------------------------------------------------- objects

JsonObject::JsonObject(
    std::initializer_list<std::pair<std::string_view, JsonValue>> members) {
  for (const auto& [key, value] : members) try_emplace(key, value);
}

std::size_t JsonObject::LowerBound(json_detail::StrRep key) const {
  const auto it = std::lower_bound(
      members_.begin(), members_.end(), key,
      [](const JsonMember& m, const json_detail::StrRep& k) {
        return json_detail::Less(m.first.rep_, k);
      });
  return static_cast<std::size_t>(it - members_.begin());
}

const JsonValue* JsonObject::FindRep(json_detail::StrRep key) const {
  // Most objects are small: a scan of two-word compares beats a binary
  // search of ordered compares.
  constexpr std::size_t kScan = 8;
  if (members_.size() <= kScan) {
    for (const JsonMember& m : members_) {
      if (json_detail::Equal(m.first.rep_, key)) return &m.second;
    }
    return nullptr;
  }
  const std::size_t at = LowerBound(key);
  if (at < members_.size() && json_detail::Equal(members_[at].first.rep_, key)) {
    return &members_[at].second;
  }
  return nullptr;
}

const JsonValue& JsonObject::at(std::string_view key) const {
  const JsonValue* found = Find(key);
  if (found == nullptr) {
    throw std::out_of_range("JsonObject::at: no member " + std::string(key));
  }
  return *found;
}

JsonObject::const_iterator JsonObject::find(std::string_view key) const {
  const json_detail::StrRep probe = json_detail::Probe(key);
  const std::size_t at = LowerBound(probe);
  if (at < members_.size() && json_detail::Equal(members_[at].first.rep_, probe)) {
    return members_.begin() + static_cast<std::ptrdiff_t>(at);
  }
  return members_.end();
}

JsonMember& JsonObject::Insert(std::size_t at, std::string_view key,
                               JsonValue value) {
  // Most built objects have a handful of members: one block up front
  // instead of growing through 1, 2, 4 and 8.
  if (members_.capacity() == 0) members_.reserve(8);
  return *members_.insert(
      members_.begin() + static_cast<std::ptrdiff_t>(at),
      JsonMember{JsonString(key), std::move(value)});
}

std::size_t JsonObject::erase(std::string_view key) {
  const auto it = find(key);
  if (it == members_.end()) return 0;
  members_.erase(it);
  return 1;
}

bool operator==(const JsonObject& a, const JsonObject& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.members_.size(); ++i) {
    if (!(a.members_[i].first == b.members_[i].first) ||
        !(a.members_[i].second == b.members_[i].second)) {
      return false;
    }
  }
  return true;
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
  switch (kind_) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool: out += u_.b ? "true" : "false"; return;
    case Kind::kInt: AppendJsonInt(out, u_.i); return;
    case Kind::kDouble: AppendJsonDouble(out, u_.d); return;
    case Kind::kString: AppendJsonString(out, u_.s.view()); return;
    case Kind::kDocument: u_.doc->root.DumpTo(out, indent, depth); return;
    case Kind::kArray: {
      const JsonArray& arr = *u_.a;
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
      return;
    }
    case Kind::kObject: {
      const JsonObject& obj = *u_.o;
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
        AppendJsonString(out, k.view());
        out += indent < 0 ? ":" : ": ";
        v.DumpTo(out, indent, depth + 1);
      }
      AppendNewlineIndent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

// ---------------------------------------------------------------- parsing

/// Recursive-descent parser writing one document's nodes into its arena.
/// Containers are collected on two scratch stacks (element values, object
/// members) and copied into exact-size arena storage when they close, so
/// the only heap allocations of a parse are the document, its arena slabs
/// and the scratch stacks' growth.
///
/// While a container is open its elements are Nodes: 16 trivially copyable
/// bytes, so every parse function returns its value in registers rather
/// than through a stack slot that the caller would reload at once (a
/// partial-width store followed by a full-width load stalls the core).
/// Containers are built in place from the nodes, with no temporary values.
class JsonParser {
  using Node = json_detail::Node;

  static Node Tagged(unsigned char tag, std::uint64_t word) noexcept {
    Node n{};
    std::memcpy(n.bits.bytes, &word, sizeof word);
    n.bits.bytes[15] = tag;
    return n;
  }

  struct NodeMember {
    json_detail::StrRep key;
    Node value;
  };

 public:
  JsonParser(std::string_view text, const JsonParseLimits& limits)
      : text_(text), limits_(limits) {}

  JsonValue ParseDocument() {
    if (text_.size() > limits_.max_bytes) {
      throw JsonError("JSON document exceeds the size limit (" +
                      std::to_string(text_.size()) + " > " +
                      std::to_string(limits_.max_bytes) + " bytes)");
    }
    // A compact document takes about five times its text in nodes (24-byte
    // values, 40-byte members), so one slab usually holds it all; the arena
    // grows geometrically past that.
    auto doc = std::make_unique<JsonValue::Document>(6 * text_.size() + 256);
    arena_ = &doc->arena;
    const Node root = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing characters after JSON document");
    const unsigned char tag = root.bits.bytes[15];
    if (tag != Node::kTagArray && tag != Node::kTagObject) {
      // A scalar needs no arena: return a copy, which owns its bytes.
      const JsonValue scalar(root);
      return JsonValue(scalar);
    }
    doc->root = JsonValue(root);
    JsonValue out;
    out.u_.doc = doc.release();
    out.kind_ = JsonValue::Kind::kDocument;
    return out;
  }

 private:
  /// Objects up to this many members look for a duplicate key by a linear
  /// scan; larger ones through an ordered index, so a hostile object with
  /// very many keys stays O(n log n).
  static constexpr std::size_t kLinearKeys = 16;

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

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.compare(pos_, lit.size(), lit) == 0) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Node ParseValue() {
    SkipWhitespace();
    const char c = Peek();
    switch (c) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': return Node{ParseString()};
      case 't':
        if (!ConsumeLiteral("true")) Fail("invalid literal");
        return Tagged(Node::kTagTrue, 0);
      case 'f':
        if (!ConsumeLiteral("false")) Fail("invalid literal");
        return Tagged(Node::kTagFalse, 0);
      case 'n':
        if (!ConsumeLiteral("null")) Fail("invalid literal");
        return Tagged(Node::kTagNull, 0);
      default: return ParseNumber();
    }
  }

  /// RAII depth guard: ParseObject/ParseArray recurse through ParseValue,
  /// so the container nesting depth bounds the C++ stack depth. Enforcing
  /// limits_.max_depth turns a hostile "[[[[..." document into a JsonError
  /// instead of a stack overflow.
  class DepthGuard {
   public:
    explicit DepthGuard(JsonParser& p) : parser_(p) {
      if (++parser_.depth_ > parser_.limits_.max_depth) {
        parser_.Fail("nesting depth exceeds the limit (" +
                     std::to_string(parser_.limits_.max_depth) + ")");
      }
    }
    ~DepthGuard() { --parser_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    JsonParser& parser_;
  };

  /// Orders member indices of the object being parsed by key; lookups take
  /// the key itself.
  struct KeyLess {
    using is_transparent = void;
    using Rep = json_detail::StrRep;
    const std::vector<NodeMember>* members;
    const Rep& Key(std::size_t i) const { return (*members)[i].key; }
    bool operator()(std::size_t a, std::size_t b) const {
      return json_detail::Less(Key(a), Key(b));
    }
    bool operator()(std::size_t a, const Rep& b) const {
      return json_detail::Less(Key(a), b);
    }
    bool operator()(const Rep& a, std::size_t b) const {
      return json_detail::Less(a, Key(b));
    }
  };

  Node ParseObject() {
    const DepthGuard guard(*this);
    Expect('{');
    const std::size_t base = members_.size();
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return FinishObject(base);
    }
    std::optional<std::set<std::size_t, KeyLess>> index;
    for (;;) {
      SkipWhitespace();
      const json_detail::StrRep key = ParseString();
      SkipWhitespace();
      Expect(':');
      bool duplicate = false;
      if (members_.size() - base <= kLinearKeys) {
        for (std::size_t i = base; i < members_.size() && !duplicate; ++i) {
          duplicate = json_detail::Equal(members_[i].key, key);
        }
      } else {
        if (!index) {
          index.emplace(KeyLess{&members_});
          for (std::size_t i = base; i < members_.size(); ++i) index->insert(i);
        }
        duplicate = index->count(key) != 0;
      }
      if (!duplicate) {
        const Node value = ParseValue();
        // Filled in place: copying a just-returned node through a stack
        // temporary would reload it at a width it was not stored at.
        NodeMember& member = members_.emplace_back();
        member.key = key;
        member.value = value;
        if (index) index->insert(members_.size() - 1);
      } else if (limits_.reject_duplicate_keys) {
        Fail("duplicate object key \"" + std::string(key.view()) + "\"");
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
        return FinishObject(base);
      }
      Fail("expected ',' or '}' in object");
    }
  }

  /// Places members_[base..] into a sorted arena object.
  Node FinishObject(std::size_t base) {
    const auto first = members_.begin() + static_cast<std::ptrdiff_t>(base);
    const auto by_key = [](const NodeMember& a, const NodeMember& b) {
      return json_detail::Less(a.key, b.key);
    };
    if (!std::is_sorted(first, members_.end(), by_key)) {
      std::sort(first, members_.end(), by_key);
    }
    auto* obj = new (arena_->Allocate(sizeof(JsonObject), alignof(JsonObject)))
        JsonObject(JsonObject::Members(json_detail::Alloc<JsonMember>(arena_)));
    obj->members_.reserve(members_.size() - base);
    for (auto it = first; it != members_.end(); ++it) {
      obj->members_.emplace_back(it->key, it->value);
    }
    members_.erase(first, members_.end());
    return Tagged(Node::kTagObject, reinterpret_cast<std::uintptr_t>(obj));
  }

  Node ParseArray() {
    const DepthGuard guard(*this);
    Expect('[');
    const std::size_t base = values_.size();
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return FinishArray(base);
    }
    for (;;) {
      const Node value = ParseValue();
      values_.emplace_back() = value;  // in place, as in ParseObject
      SkipWhitespace();
      const char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return FinishArray(base);
      }
      Fail("expected ',' or ']' in array");
    }
  }

  /// Places values_[base..] into an arena array.
  Node FinishArray(std::size_t base) {
    const auto first = values_.begin() + static_cast<std::ptrdiff_t>(base);
    auto* arr = new (arena_->Allocate(sizeof(JsonArray), alignof(JsonArray)))
        JsonArray(json_detail::Alloc<JsonValue>(arena_));
    arr->reserve(values_.size() - base);
    for (auto it = first; it != values_.end(); ++it) arr->emplace_back(*it);
    values_.erase(first, values_.end());
    return Tagged(Node::kTagArray, reinterpret_cast<std::uintptr_t>(arr));
  }

  /// Advances pos_ to the next '"', '\\' or control byte (or the end).
  void SkipPlainStringBytes() {
    if constexpr (std::endian::native == std::endian::little) {
      // Eight bytes at a time. Each test sets the high bit of a matching
      // byte; borrows can only flag bytes after a true match, so the
      // lowest set bit marks the first byte to look at.
      constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
      constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
      while (text_.size() - pos_ >= 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, text_.data() + pos_, sizeof w);
        const std::uint64_t quote = w ^ (kOnes * '"');
        const std::uint64_t backslash = w ^ (kOnes * '\\');
        const std::uint64_t hits = (((quote - kOnes) & ~quote) |
                                    ((backslash - kOnes) & ~backslash) |
                                    ((w - kOnes * 0x20) & ~w)) &
                                   kHigh;
        if (hits != 0) {
          pos_ += static_cast<std::size_t>(std::countr_zero(hits)) / 8;
          return;
        }
        pos_ += 8;
      }
    }
    while (pos_ < text_.size()) {
      const auto b = static_cast<unsigned char>(text_[pos_]);
      if (b == '"' || b == '\\' || b < 0x20) return;
      ++pos_;
    }
  }

  /// text_[begin, begin + n) as the document keeps it.
  json_detail::StrRep StoreSlice(std::size_t begin, std::size_t n) {
    using json_detail::StrRep;
    if constexpr (std::endian::native == std::endian::little) {
      if (n <= StrRep::kMaxInline && text_.size() - begin >= 16) {
        // Two fixed-size loads instead of a variable-length copy, with the
        // bytes past the string masked to the zero padding.
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        std::memcpy(&lo, text_.data() + begin, sizeof lo);
        std::memcpy(&hi, text_.data() + begin + 8, sizeof hi);
        if (n < 8) {
          lo &= (std::uint64_t{1} << (8 * n)) - 1;
          hi = 0;
        } else {
          hi &= (std::uint64_t{1} << (8 * (n - 8))) - 1;
        }
        StrRep r{};
        std::memcpy(r.bytes, &lo, sizeof lo);
        std::memcpy(r.bytes + 8, &hi, sizeof hi);
        r.bytes[15] = static_cast<unsigned char>(n);
        return r;
      }
    }
    return Store(text_.substr(begin, n));
  }

  /// A string's bytes as the document keeps them: inline when short, else
  /// copied into the arena.
  json_detail::StrRep Store(std::string_view s) {
    using json_detail::StrRep;
    if (s.size() <= StrRep::kMaxInline) return StrRep::Inline(s);
    char* p = static_cast<char*>(arena_->Allocate(s.size(), 1));
    std::memcpy(p, s.data(), s.size());
    return StrRep::OutOfLine(p, s.size(), StrRep::kBorrowed);
  }

  json_detail::StrRep ParseString() {
    Expect('"');
    // Until the first escape the string is a slice of the text; from then
    // on it is decoded into scratch_.
    bool decoded = false;
    std::size_t run = pos_;  // start of the pending run of verbatim bytes
    for (;;) {
      SkipPlainStringBytes();
      if (decoded) scratch_.append(text_, run, pos_ - run);
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') {
        return decoded ? Store(scratch_) : StoreSlice(run, pos_ - 1 - run);
      }
      if (c == '\\') {
        if (!decoded) {
          scratch_.assign(text_, run, pos_ - 1 - run);
          decoded = true;
        }
        if (pos_ >= text_.size()) Fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': scratch_ += '"'; break;
          case '\\': scratch_ += '\\'; break;
          case '/': scratch_ += '/'; break;
          case 'b': scratch_ += '\b'; break;
          case 'f': scratch_ += '\f'; break;
          case 'n': scratch_ += '\n'; break;
          case 'r': scratch_ += '\r'; break;
          case 't': scratch_ += '\t'; break;
          case 'u': AppendUnicodeEscape(scratch_); break;
          default: Fail("invalid escape character");
        }
        run = pos_;
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

  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }

  void SkipDigits() {
    while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
  }

  Node ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    SkipDigits();
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      SkipDigits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      SkipDigits();
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      Fail("invalid number");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (integral) {
      // Up to 18 digits cannot overflow an int64: sum them directly.
      const bool negative = token.front() == '-';
      const std::string_view digits = token.substr(negative ? 1 : 0);
      if (digits.size() <= 18) {
        std::int64_t iv = 0;
        for (const char c : digits) iv = iv * 10 + (c - '0');
        return Tagged(Node::kTagInt, static_cast<std::uint64_t>(negative ? -iv : iv));
      }
      std::int64_t iv = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), iv);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return Tagged(Node::kTagInt, static_cast<std::uint64_t>(iv));
      }
      // Integer overflow: fall through to double.
    }
    double dv = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), dv);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      Fail("invalid number");
    }
    return Tagged(Node::kTagDouble, std::bit_cast<std::uint64_t>(dv));
  }

  std::string_view text_;
  const JsonParseLimits& limits_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  MonotonicArena* arena_ = nullptr;
  std::vector<Node> values_;          ///< elements of the open arrays
  std::vector<NodeMember> members_;  ///< members of the open objects
  std::string scratch_;              ///< the string being unescaped
};

JsonValue JsonValue::Parse(std::string_view text) {
  return Parse(text, JsonParseLimits{});
}

JsonValue JsonValue::Parse(std::string_view text,
                           const JsonParseLimits& limits) {
  return JsonParser(text, limits).ParseDocument();
}

}  // namespace resched
