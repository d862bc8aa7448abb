// Minimal self-contained JSON value model, parser and writer.
//
// Supports the full JSON grammar (objects, arrays, strings with escapes,
// numbers, booleans, null). Numbers are stored as double plus an exact
// int64 when the literal is integral — schedule times are integers and must
// round-trip exactly. Used by src/io for instance serialization; no external
// dependency is required anywhere in the library.
//
// Storage and lifetime
// --------------------
// There is one DOM with two kinds of storage behind it:
//
//  * Built values (JsonObject / JsonArray / JsonValue constructed by code)
//    own their storage on the heap. Strings and keys of up to 15 bytes —
//    most of them — sit inline in a 16-byte rep, longer ones in one
//    exact-size heap block.
//  * A parsed document (JsonValue::Parse) owns one MonotonicArena that holds
//    every node, every container's element storage and the copied bytes of
//    every string longer than 15 bytes. Parsing performs no allocation per
//    member or per string; the arena is released as a whole when the
//    document value is destroyed. A parsed value never refers to the input
//    text, so it outlives the string it was parsed from.
//
// Nodes inside a parsed document are reachable only through const
// references (At, Find, AsObject/AsArray on a const value, iteration).
// Copying any value — a whole document or a node inside one — makes a
// deep, heap-owned copy that outlives the document. The non-const
// AsObject()/AsArray() of a parsed document first converts the whole
// document to built (heap-owned) storage, so it can be edited like any
// built value; read-only callers should use a const reference.
//
// Objects keep their members sorted by key bytes (the order std::string
// comparison gives), so iteration and Dump output are deterministic and
// identical for parsed and built values. Lookups compare keys as
// std::string_view by binary search; no std::string is built for a key.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/arena.hpp"
#include "util/common.hpp"

namespace resched {

class JsonValue;
class JsonObject;
class JsonParser;

namespace json_detail {

/// Element storage of a JSON container: the heap for built values, the
/// document arena for parsed ones (deallocation there is a no-op; the
/// arena is freed whole). A copy of a container always gets the heap, so
/// copies never point into a document they might outlive.
template <class T>
class Alloc {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::false_type;
  using propagate_on_container_move_assignment = std::false_type;
  using propagate_on_container_swap = std::false_type;
  using is_always_equal = std::false_type;

  Alloc() noexcept = default;
  explicit Alloc(MonotonicArena* arena) noexcept : arena_(arena) {}
  template <class U>
  Alloc(const Alloc<U>& other) noexcept : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->Allocate(n * sizeof(T), alignof(T)));
    }
    return std::allocator<T>().allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (arena_ == nullptr) std::allocator<T>().deallocate(p, n);
  }
  Alloc select_on_container_copy_construction() const { return Alloc(); }

  MonotonicArena* arena() const noexcept { return arena_; }

  template <class U>
  bool operator==(const Alloc<U>& other) const noexcept {
    return arena_ == other.arena();
  }

 private:
  MonotonicArena* arena_ = nullptr;
};

}  // namespace json_detail

using JsonArray = std::vector<JsonValue, json_detail::Alloc<JsonValue>>;

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

namespace json_detail {

/// The 16 bytes behind every JSON string and object key. Up to 15 bytes
/// sit inline, zero-padded, with the length in byte 15; a longer string is
/// a pointer and a 32-bit length, byte 15 telling whether the bytes are
/// owned (a heap block) or borrowed (a document arena). Trivially
/// copyable: ownership is managed by JsonString and JsonValue.
struct StrRep {
  static constexpr std::size_t kMaxInline = 15;
  static constexpr unsigned char kHeap = 0x40;
  static constexpr unsigned char kBorrowed = 0x41;

  alignas(8) unsigned char bytes[16];

  /// An inline rep of s (s.size() <= kMaxInline).
  static StrRep Inline(std::string_view s) noexcept {
    StrRep r{};
    if constexpr (std::endian::native == std::endian::little) {
      // Assembled as two words, not byte stores read back as words (that
      // stalls the load); a literal key folds to two constants.
      std::uint64_t words[2] = {0, std::uint64_t{s.size()} << 56};
      for (std::size_t i = 0; i < s.size(); ++i) {
        words[i / 8] |= std::uint64_t{static_cast<unsigned char>(s[i])}
                        << (8 * (i % 8));
      }
      std::memcpy(r.bytes, words, sizeof words);
    } else {
      if (!s.empty()) std::memcpy(r.bytes, s.data(), s.size());
      r.bytes[15] = static_cast<unsigned char>(s.size());
    }
    return r;
  }
  /// A rep pointing at n bytes it does not copy; `tag` is kHeap or
  /// kBorrowed.
  static StrRep OutOfLine(const char* p, std::size_t n,
                          unsigned char tag) noexcept {
    StrRep r{};
    const auto length = static_cast<std::uint32_t>(n);
    std::memcpy(r.bytes, &p, sizeof p);
    std::memcpy(r.bytes + sizeof p, &length, sizeof length);
    r.bytes[15] = tag;
    return r;
  }

  bool IsInline() const noexcept { return bytes[15] <= kMaxInline; }
  std::string_view view() const noexcept {
    if (IsInline()) return {reinterpret_cast<const char*>(bytes), bytes[15]};
    const char* p = nullptr;
    std::uint32_t n = 0;
    std::memcpy(&p, bytes, sizeof p);
    std::memcpy(&n, bytes + sizeof p, sizeof n);
    return {p, n};
  }
  std::uint64_t Word(std::size_t i) const noexcept {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes + 8 * i, sizeof w);
    return w;
  }
};

/// Byte-wise equality; two inline reps compare as two words.
inline bool Equal(const StrRep& a, const StrRep& b) noexcept {
  if (a.IsInline() && b.IsInline()) {
    return a.Word(0) == b.Word(0) && a.Word(1) == b.Word(1);
  }
  return a.view() == b.view();
}

/// A value as the parser hands it to its document: 16 trivially copyable
/// bytes (so the parser returns it in registers), byte 15 a tag — a string
/// rep's own, or one of the kTag* below with the scalar bits or the arena
/// container in bytes 0-7.
struct Node {
  static constexpr unsigned char kTagNull = 0x80;
  static constexpr unsigned char kTagFalse = 0x81;
  static constexpr unsigned char kTagTrue = 0x82;
  static constexpr unsigned char kTagInt = 0x83;
  static constexpr unsigned char kTagDouble = 0x84;
  static constexpr unsigned char kTagArray = 0x85;
  static constexpr unsigned char kTagObject = 0x86;

  StrRep bits;
};

/// `key` as a rep to compare stored keys against, without copying a long
/// key. Inline, so a literal key folds to a constant.
inline StrRep Probe(std::string_view key) noexcept {
  return key.size() <= StrRep::kMaxInline
             ? StrRep::Inline(key)
             : StrRep::OutOfLine(key.data(), key.size(), StrRep::kBorrowed);
}

/// Byte-wise (std::string) order; two inline reps compare as big-endian
/// words of their zero-padded bytes, then by length.
bool Less(const StrRep& a, const StrRep& b) noexcept;

}  // namespace json_detail

/// An object key: the bytes of a JSON string, up to 15 of them inline,
/// longer ones in an owned heap block or (inside a parsed document) in its
/// arena. Converts to std::string_view.
class JsonString {
  using Rep = json_detail::StrRep;

 public:
  JsonString() noexcept : rep_(Rep::Inline({})) {}
  explicit JsonString(std::string_view s);
  /// Adopts a parsed key's rep (inline, or borrowed from a document arena).
  JsonString(const json_detail::StrRep& rep) noexcept : rep_(rep) {}
  JsonString(const JsonString& other) : JsonString(other.view()) {}
  JsonString(JsonString&& other) noexcept : rep_(other.rep_) {
    other.rep_ = Rep::Inline({});
  }
  JsonString& operator=(const JsonString& other) {
    if (this != &other) *this = JsonString(other);
    return *this;
  }
  JsonString& operator=(JsonString&& other) noexcept {
    if (this != &other) {
      Release(rep_);
      rep_ = other.rep_;
      other.rep_ = Rep::Inline({});
    }
    return *this;
  }
  ~JsonString() { Release(rep_); }

  std::string_view view() const noexcept { return rep_.view(); }
  operator std::string_view() const noexcept { return view(); }
  std::size_t size() const noexcept { return view().size(); }
  bool empty() const noexcept { return size() == 0; }

  friend bool operator==(const JsonString& a, std::string_view b) noexcept {
    return a.view() == b;
  }
  friend bool operator==(const JsonString& a, const JsonString& b) noexcept {
    return json_detail::Equal(a.rep_, b.rep_);
  }

 private:
  friend class JsonParser;
  friend class JsonValue;
  friend class JsonObject;

  /// A rep owning a copy of s (inline when it fits).
  static Rep Own(std::string_view s);
  /// Frees an owned rep's heap block.
  static void Release(const Rep& rep) noexcept;

  Rep rep_;
};

class JsonValue {
 public:
  JsonValue() noexcept = default;
  JsonValue(std::nullptr_t) noexcept {}
  JsonValue(bool b) noexcept : kind_(Kind::kBool) { u_.b = b; }
  JsonValue(std::int64_t i) noexcept : kind_(Kind::kInt) { u_.i = i; }
  JsonValue(int i) noexcept : JsonValue(static_cast<std::int64_t>(i)) {}
  JsonValue(std::size_t i) noexcept
      : JsonValue(static_cast<std::int64_t>(i)) {}
  JsonValue(double d) noexcept : kind_(Kind::kDouble) { u_.d = d; }
  JsonValue(const char* s) : JsonValue(std::string_view(s)) {}
  JsonValue(const std::string& s) : JsonValue(std::string_view(s)) {}
  JsonValue(std::string_view s) : kind_(Kind::kString) {
    u_.s = JsonString::Own(s);
  }
  JsonValue(JsonArray a);
  JsonValue(JsonObject o);
  /// Places a parser node (its containers and long strings borrowed from
  /// the document arena).
  JsonValue(const json_detail::Node& node) noexcept;

  JsonValue(const JsonValue& other);
  JsonValue(JsonValue&& other) noexcept { MoveFrom(other); }
  JsonValue& operator=(const JsonValue& other);
  JsonValue& operator=(JsonValue&& other) noexcept;
  ~JsonValue() { Destroy(); }

  bool IsNull() const { return Self().kind_ == Kind::kNull; }
  bool IsBool() const { return Self().kind_ == Kind::kBool; }
  bool IsInt() const { return Self().kind_ == Kind::kInt; }
  bool IsDouble() const { return Self().kind_ == Kind::kDouble; }
  bool IsNumber() const { return IsInt() || IsDouble(); }
  bool IsString() const { return Self().kind_ == Kind::kString; }
  bool IsArray() const { return Self().kind_ == Kind::kArray; }
  bool IsObject() const { return Self().kind_ == Kind::kObject; }

  bool AsBool() const;
  std::int64_t AsInt() const;    // accepts integral doubles
  double AsDouble() const;       // accepts ints
  /// The string's bytes; valid while this value is alive and unmodified.
  std::string_view AsString() const;
  const JsonArray& AsArray() const;
  /// Mutable access; a parsed document is first converted to heap storage.
  JsonArray& AsArray();
  const JsonObject& AsObject() const;
  /// Mutable access; a parsed document is first converted to heap storage.
  JsonObject& AsObject();

  /// The member `key` of an object, or nullptr when this is not an object
  /// or has no such member.
  const JsonValue* Find(std::string_view key) const;
  /// Object member access; throws JsonError when missing.
  const JsonValue& At(std::string_view key) const;
  /// True when this is an object containing key.
  bool Contains(std::string_view key) const { return Find(key) != nullptr; }
  /// Returns At(key) or fallback when absent.
  std::int64_t GetInt(std::string_view key, std::int64_t fallback) const;
  double GetDouble(std::string_view key, double fallback) const;
  std::string GetString(std::string_view key, std::string fallback) const;
  bool GetBool(std::string_view key, bool fallback) const;

  /// Serializes; indent < 0 means compact single-line output.
  std::string Dump(int indent = 2) const;

  /// Parses a complete JSON document (throws JsonError on any syntax error
  /// or trailing garbage) under the default JsonParseLimits.
  static JsonValue Parse(std::string_view text);

  /// As above with explicit limits (untrusted-input path).
  static JsonValue Parse(std::string_view text, const JsonParseLimits& limits);

  friend bool operator==(const JsonValue& a, const JsonValue& b) {
    return Equal(a.Self(), b.Self());
  }
  friend bool operator!=(const JsonValue& a, const JsonValue& b) {
    return !(a == b);
  }

 private:
  friend class JsonParser;
  struct Document;

  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
    kDocument,  ///< a parsed document: u_.doc owns the arena and the root
  };

  /// The value itself, or a parsed document's root.
  const JsonValue& Self() const noexcept;
  static bool Equal(const JsonValue& a, const JsonValue& b);

  /// Every representation is trivially relocatable, so a move copies the
  /// payload and leaves `other` null.
  void MoveFrom(JsonValue& other) noexcept {
    u_ = other.u_;
    kind_ = other.kind_;
    owned_ = other.owned_;
    other.kind_ = Kind::kNull;
    other.owned_ = false;
  }
  void Destroy() noexcept {
    if (kind_ >= Kind::kString) Release();
    kind_ = Kind::kNull;
    owned_ = false;
  }
  [[noreturn]] static void ThrowMissingKey(std::string_view key);
  /// Frees what a string, container or document value owns.
  void Release() noexcept;
  /// Replaces a parsed document by a heap-owned deep copy of its root.
  void Thaw();
  void DumpTo(std::string& out, int indent, int depth) const;

  union Payload {
    bool b;
    std::int64_t i;
    double d;
    json_detail::StrRep s;
    JsonArray* a;
    JsonObject* o;
    Document* doc;
  };
  Payload u_{};
  Kind kind_ = Kind::kNull;
  /// kArray / kObject: the node is heap-allocated and freed with this value
  /// (false for nodes inside a document arena). kString keeps ownership in
  /// the rep's tag.
  bool owned_ = false;
};

/// One object member; iteration yields these in key byte order.
struct JsonMember {
  JsonString first;
  JsonValue second;
};

/// A JSON object: members sorted by key bytes, unique keys. The map-like
/// surface (operator[], emplace, try_emplace, erase, count, find) keeps
/// the order; iteration is read-only.
class JsonObject {
  using Members = std::vector<JsonMember, json_detail::Alloc<JsonMember>>;

 public:
  using const_iterator = Members::const_iterator;
  using iterator = const_iterator;

  JsonObject() = default;
  /// Like std::map's: the first occurrence of a repeated key wins.
  JsonObject(std::initializer_list<std::pair<std::string_view, JsonValue>>
                 members);

  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }
  const_iterator begin() const { return members_.begin(); }
  const_iterator end() const { return members_.end(); }

  /// The member's value, or nullptr when absent.
  const JsonValue* Find(std::string_view key) const {
    return FindRep(json_detail::Probe(key));
  }
  const_iterator find(std::string_view key) const;
  std::size_t count(std::string_view key) const {
    return Find(key) != nullptr ? 1 : 0;
  }
  /// Like std::map::at: throws std::out_of_range when key is absent.
  const JsonValue& at(std::string_view key) const;

  /// The value of `key`, inserting null when absent.
  JsonValue& operator[](std::string_view key) {
    return try_emplace(key).first->second;
  }
  /// Inserts {key, value} unless key is present; never overwrites. Returns
  /// the member with that key and whether it was inserted. The pointer is
  /// valid until the next insertion or erase; do not change its key.
  template <class... Args>
  std::pair<JsonMember*, bool> try_emplace(std::string_view key,
                                           Args&&... args) {
    const json_detail::StrRep probe = json_detail::Probe(key);
    const std::size_t at = LowerBound(probe);
    if (at < members_.size() && json_detail::Equal(members_[at].first.rep_,
                                                   probe)) {
      return {&members_[at], false};
    }
    return {&Insert(at, key, JsonValue(std::forward<Args>(args)...)), true};
  }
  template <class V>
  std::pair<JsonMember*, bool> emplace(std::string_view key, V&& value) {
    return try_emplace(key, std::forward<V>(value));
  }
  /// Removes `key`; returns the number of members removed (0 or 1).
  std::size_t erase(std::string_view key);

  friend bool operator==(const JsonObject& a, const JsonObject& b);

 private:
  friend class JsonParser;

  explicit JsonObject(Members members) : members_(std::move(members)) {}
  // The key rep goes by value: 16 trivially copyable bytes travel in two
  // registers, and a literal key's rep is a pair of constants.
  const JsonValue* FindRep(json_detail::StrRep key) const;
  /// Index of the first member whose key is not less than `key`.
  std::size_t LowerBound(json_detail::StrRep key) const;
  JsonMember& Insert(std::size_t at, std::string_view key, JsonValue value);

  Members members_;
};

struct JsonValue::Document {
  explicit Document(std::size_t arena_bytes) : arena(arena_bytes) {}
  MonotonicArena arena;
  JsonValue root;  ///< a borrowed array or object inside `arena`
};

inline const JsonValue& JsonValue::Self() const noexcept {
  return kind_ == Kind::kDocument ? u_.doc->root : *this;
}

inline const JsonValue* JsonValue::Find(std::string_view key) const {
  const JsonValue& v = Self();
  return v.kind_ == Kind::kObject ? v.u_.o->Find(key) : nullptr;
}

inline const JsonValue& JsonValue::At(std::string_view key) const {
  const JsonValue* found = AsObject().Find(key);
  if (found == nullptr) ThrowMissingKey(key);
  return *found;
}

inline std::int64_t JsonValue::GetInt(std::string_view key,
                                      std::int64_t fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr ? v->AsInt() : fallback;
}

inline double JsonValue::GetDouble(std::string_view key,
                                   double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr ? v->AsDouble() : fallback;
}

inline std::string JsonValue::GetString(std::string_view key,
                                        std::string fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr ? std::string(v->AsString()) : std::move(fallback);
}

inline bool JsonValue::GetBool(std::string_view key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr ? v->AsBool() : fallback;
}

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
