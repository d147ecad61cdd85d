#ifndef GRANULA_COMMON_JSON_H_
#define GRANULA_COMMON_JSON_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace granula {

// A self-contained JSON document model, parser, and writer. Performance
// archives (granula/archive) are serialized through this module, so it must
// roundtrip exactly: Parse(Dump(v)) == v for every value this library emits.
//
// Numbers are stored as either int64 or double; integers that fit int64 are
// kept exact. Unsigned values above INT64_MAX are stored as doubles (losing
// precision past 2^53) rather than wrapping negative.
//
// The value payload is a tagged union: exactly one member is live at a time,
// and arrays/objects live out of line behind an owned pointer. This keeps
// sizeof(Json) at one std::string plus a tag — the log-ingest and archive
// paths materialize millions of these, and the previous all-members-present
// layout (string + vector + map per node) dominated their memory traffic.
class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Array = std::vector<Json>;
  // std::map keeps object keys sorted, which makes serialization
  // deterministic — a property the archive-diff tooling relies on. The
  // transparent comparator lets Find() take a string_view without
  // materializing a std::string per lookup.
  using Object = std::map<std::string, Json, std::less<>>;

  Json() : type_(Type::kNull), int_(0) {}
  Json(std::nullptr_t) : Json() {}                      // NOLINT
  Json(bool b) : type_(Type::kBool), bool_(b) {}        // NOLINT
  Json(int i) : type_(Type::kInt), int_(i) {}           // NOLINT
  Json(int64_t i) : type_(Type::kInt), int_(i) {}       // NOLINT
  Json(uint64_t i) {                                    // NOLINT
    if (i <= static_cast<uint64_t>(INT64_MAX)) {
      type_ = Type::kInt;
      int_ = static_cast<int64_t>(i);
    } else {
      type_ = Type::kDouble;
      double_ = static_cast<double>(i);
    }
  }
  Json(double d) : type_(Type::kDouble), double_(d) {}  // NOLINT
  Json(const char* s) : type_(Type::kString) {          // NOLINT
    new (&string_) std::string(s);
  }
  Json(std::string s) : type_(Type::kString) {          // NOLINT
    new (&string_) std::string(std::move(s));
  }
  Json(std::string_view s) : type_(Type::kString) {     // NOLINT
    new (&string_) std::string(s);
  }
  Json(Array a)                                         // NOLINT
      : type_(Type::kArray), array_(new Array(std::move(a))) {}
  Json(Object o)                                        // NOLINT
      : type_(Type::kObject), object_(new Object(std::move(o))) {}

  Json(const Json& other) { CopyFrom(other); }
  Json(Json&& other) noexcept { MoveFrom(std::move(other)); }
  Json& operator=(const Json& other) {
    if (this != &other) {
      Json tmp(other);  // copy first: `other` may be a descendant of *this
      Destroy();
      MoveFrom(std::move(tmp));
    }
    return *this;
  }
  Json& operator=(Json&& other) noexcept {
    if (this != &other) {
      Destroy();
      MoveFrom(std::move(other));
    }
    return *this;
  }
  ~Json() { Destroy(); }

  static Json MakeArray() { return Json(Array{}); }
  static Json MakeObject() { return Json(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_double() const { return type_ == Type::kDouble; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool() const { return type_ == Type::kBool && bool_; }
  // Doubles saturate to [INT64_MIN, INT64_MAX] (NaN reads as 0) instead of
  // taking the UB raw cast for out-of-range values.
  int64_t AsInt() const {
    if (type_ == Type::kInt) return int_;
    if (type_ == Type::kDouble) return SaturatingInt64(double_);
    return 0;
  }
  double AsDouble() const {
    if (type_ == Type::kInt) return static_cast<double>(int_);
    if (type_ == Type::kDouble) return double_;
    return 0.0;
  }
  // The const accessors return a static empty value when the type does not
  // match, mirroring the old always-present-member behaviour. The mutable
  // AsArray/AsObject convert the value to an empty array/object on
  // mismatch, consistent with operator[] and Append on null.
  const std::string& AsString() const;
  const Array& AsArray() const;
  Array& AsArray();
  const Object& AsObject() const;
  Object& AsObject();

  // Object access. `operator[]` on a null value turns it into an object,
  // mirroring the ergonomics of nlohmann::json for building documents.
  Json& operator[](const std::string& key);
  // Returns nullptr when not an object or the key is absent.
  const Json* Find(std::string_view key) const;

  // Convenience typed getters with defaults, for tolerant readers.
  int64_t GetInt(std::string_view key, int64_t fallback = 0) const;
  double GetDouble(std::string_view key, double fallback = 0.0) const;
  std::string GetString(std::string_view key, std::string fallback = "") const;
  bool GetBool(std::string_view key, bool fallback = false) const;

  // Array building.
  void Append(Json value);
  size_t size() const;

  // Serialization. `indent` <= 0 produces compact single-line output.
  std::string Dump(int indent = 0) const;
  // Appends Dump(indent) to `out` — the allocation-free spelling used by
  // the JSONL fast path (granula/monitor) for free-form payloads.
  void DumpTo(std::string& out, int indent = 0) const;

  // Strict JSON parsing (RFC 8259); rejects trailing garbage and values
  // nested deeper than kMaxParseDepth (the top-level value is depth 0).
  static Result<Json> Parse(std::string_view text);
  static constexpr int kMaxParseDepth = 256;

  bool operator==(const Json& other) const;

 private:
  static int64_t SaturatingInt64(double d) {
    if (std::isnan(d)) return 0;
    if (d >= 9223372036854775808.0) return INT64_MAX;  // 2^63
    if (d < -9223372036854775808.0) return INT64_MIN;
    return static_cast<int64_t>(d);
  }

  void Destroy();
  void CopyFrom(const Json& other);
  void MoveFrom(Json&& other) noexcept;
  void DumpValue(std::string& out, int indent, int depth) const;

  Type type_;
  union {
    bool bool_;
    int64_t int_;
    double double_;
    std::string string_;
    Array* array_;
    Object* object_;
  };
};

static_assert(sizeof(Json) <= 48,
              "Json must stay a compact tagged union; see the class comment");

// Escapes `s` as a JSON string literal body (without surrounding quotes).
std::string JsonEscape(std::string_view s);

// Append-style escape used by the serialization fast paths: clean runs are
// bulk-copied and only bytes that require escaping ('"', '\\', control
// characters) break the run. Escapes are rare in log payloads, so this is
// effectively a single append.
void JsonAppendEscaped(std::string& out, std::string_view s);

// Appends the canonical JSON token for `d` — the shortest representation
// that reparses to the same double, identical to Json(d).Dump(0).
void JsonAppendDouble(std::string& out, double d);

// Advances `pos` past one complete JSON value starting at text[pos]
// (skipping leading whitespace). Structure-aware only — strings and
// bracket nesting are honoured but the content is not validated; callers
// hand the extent to Json::Parse for that. Returns false when no complete
// value is found before the end of `text`.
bool JsonSkipValue(std::string_view text, size_t& pos);

}  // namespace granula

#endif  // GRANULA_COMMON_JSON_H_
