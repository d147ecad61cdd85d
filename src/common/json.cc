#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/strings.h"

namespace granula {

namespace {

void AppendInt64(std::string& out, int64_t v) {
  char buf[24];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;  // int64 always fits
  out.append(buf, static_cast<size_t>(p - buf));
}

}  // namespace

void Json::Destroy() {
  switch (type_) {
    case Type::kString:
      string_.~basic_string();
      break;
    case Type::kArray:
      delete array_;
      break;
    case Type::kObject:
      delete object_;
      break;
    default:
      break;
  }
  type_ = Type::kNull;
  int_ = 0;
}

void Json::CopyFrom(const Json& other) {
  type_ = other.type_;
  switch (type_) {
    case Type::kNull:
      int_ = 0;
      break;
    case Type::kBool:
      bool_ = other.bool_;
      break;
    case Type::kInt:
      int_ = other.int_;
      break;
    case Type::kDouble:
      double_ = other.double_;
      break;
    case Type::kString:
      new (&string_) std::string(other.string_);
      break;
    case Type::kArray:
      array_ = new Array(*other.array_);
      break;
    case Type::kObject:
      object_ = new Object(*other.object_);
      break;
  }
}

void Json::MoveFrom(Json&& other) noexcept {
  type_ = other.type_;
  switch (type_) {
    case Type::kNull:
      int_ = 0;
      break;
    case Type::kBool:
      bool_ = other.bool_;
      break;
    case Type::kInt:
      int_ = other.int_;
      break;
    case Type::kDouble:
      double_ = other.double_;
      break;
    case Type::kString:
      new (&string_) std::string(std::move(other.string_));
      other.string_.~basic_string();
      break;
    case Type::kArray:
      array_ = other.array_;
      break;
    case Type::kObject:
      object_ = other.object_;
      break;
  }
  // The moved-from value becomes null; pointer payloads were stolen above.
  other.type_ = Type::kNull;
  other.int_ = 0;
}

const std::string& Json::AsString() const {
  static const std::string kEmpty;
  return type_ == Type::kString ? string_ : kEmpty;
}

const Json::Array& Json::AsArray() const {
  static const Array kEmpty;
  return type_ == Type::kArray ? *array_ : kEmpty;
}

Json::Array& Json::AsArray() {
  if (type_ != Type::kArray) {
    Destroy();
    array_ = new Array();
    type_ = Type::kArray;
  }
  return *array_;
}

const Json::Object& Json::AsObject() const {
  static const Object kEmpty;
  return type_ == Type::kObject ? *object_ : kEmpty;
}

Json::Object& Json::AsObject() {
  if (type_ != Type::kObject) {
    Destroy();
    object_ = new Object();
    type_ = Type::kObject;
  }
  return *object_;
}

Json& Json::operator[](const std::string& key) {
  return AsObject()[key];
}

const Json* Json::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = object_->find(key);
  if (it == object_->end()) return nullptr;
  return &it->second;
}

int64_t Json::GetInt(std::string_view key, int64_t fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->AsInt() : fallback;
}

double Json::GetDouble(std::string_view key, double fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->AsDouble() : fallback;
}

std::string Json::GetString(std::string_view key, std::string fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->AsString()
                                          : std::move(fallback);
}

bool Json::GetBool(std::string_view key, bool fallback) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->AsBool() : fallback;
}

void Json::Append(Json value) {
  if (type_ == Type::kNull) {
    array_ = new Array();
    type_ = Type::kArray;
  }
  if (type_ != Type::kArray) return;  // matches the old silent no-op
  array_->push_back(std::move(value));
}

size_t Json::size() const {
  switch (type_) {
    case Type::kArray:
      return array_->size();
    case Type::kObject:
      return object_->size();
    default:
      return 0;
  }
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kInt:
      return int_ == other.int_;
    case Type::kDouble:
      return double_ == other.double_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return *array_ == *other.array_;
    case Type::kObject:
      return *object_ == *other.object_;
  }
  return false;
}

void JsonAppendEscaped(std::string& out, std::string_view s) {
  size_t run = 0;  // start of the pending clean run
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c != '"' && c != '\\' && c >= 0x20) continue;
    out.append(s.data() + run, i - run);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        out += StrFormat("\\u%04x", c);
    }
    run = i + 1;
  }
  out.append(s.data() + run, s.size() - run);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  JsonAppendEscaped(out, s);
  return out;
}

void JsonAppendDouble(std::string& out, double d) {
  if (std::isnan(d)) {  // JSON has no NaN; degrade gracefully.
    out += "null";
    return;
  }
  if (std::isinf(d)) {
    out += d > 0 ? "1e999" : "-1e999";
    return;
  }
  // Shortest representation that roundtrips.
  char buf[32];
  int len = 0;
  for (int prec = 15; prec <= 17; ++prec) {
    len = std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
    if (std::strtod(buf, nullptr) == d) break;
  }
  std::string_view token(buf, static_cast<size_t>(len));
  out += token;
  // Ensure the token is recognizably a double on re-parse.
  if (token.find_first_of(".eE") == std::string_view::npos) out += ".0";
}

bool JsonSkipValue(std::string_view text, size_t& pos) {
  const size_t n = text.size();
  size_t i = pos;
  auto is_ws = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  // Skips a string literal; `j` must point at the opening quote.
  auto skip_string = [&text, n](size_t& j) {
    ++j;
    while (j < n) {
      char c = text[j];
      if (c == '\\') {
        j += 2;
        continue;
      }
      ++j;
      if (c == '"') return true;
    }
    return false;
  };
  while (i < n && is_ws(text[i])) ++i;
  if (i >= n) return false;
  char c = text[i];
  if (c == '"') {
    if (!skip_string(i)) return false;
  } else if (c == '{' || c == '[') {
    int depth = 0;
    while (i < n) {
      char d = text[i];
      if (d == '"') {
        if (!skip_string(i)) return false;
        continue;
      }
      if (d == '{' || d == '[') {
        ++depth;
      } else if (d == '}' || d == ']') {
        if (--depth == 0) {
          ++i;
          break;
        }
      }
      ++i;
    }
    if (depth != 0) return false;
  } else {
    // Number or bare literal: runs to the next structural delimiter.
    size_t start = i;
    while (i < n && text[i] != ',' && text[i] != '}' && text[i] != ']' &&
           !is_ws(text[i])) {
      ++i;
    }
    if (i == start) return false;
  }
  pos = i;
  return true;
}

namespace {

void AppendIndent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::DumpValue(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kInt:
      AppendInt64(out, int_);
      break;
    case Type::kDouble:
      JsonAppendDouble(out, double_);
      break;
    case Type::kString:
      out += '"';
      JsonAppendEscaped(out, string_);
      out += '"';
      break;
    case Type::kArray: {
      const Array& arr = *array_;
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (size_t i = 0; i < arr.size(); ++i) {
        if (i > 0) out += ',';
        if (indent > 0) AppendIndent(out, indent, depth + 1);
        arr[i].DumpValue(out, indent, depth + 1);
      }
      if (indent > 0) AppendIndent(out, indent, depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      const Object& obj = *object_;
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : obj) {
        if (!first) out += ',';
        first = false;
        if (indent > 0) AppendIndent(out, indent, depth + 1);
        out += '"';
        JsonAppendEscaped(out, key);
        out += "\":";
        if (indent > 0) out += ' ';
        value.DumpValue(out, indent, depth + 1);
      }
      if (indent > 0) AppendIndent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

void Json::DumpTo(std::string& out, int indent) const {
  DumpValue(out, indent, 0);
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpValue(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> Run() {
    SkipWhitespace();
    GRANULA_ASSIGN_OR_RETURN(Json value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) {
    return Status::Corruption(
        StrFormat("JSON parse error at offset %zu: %s", pos_, what.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<Json> ParseValue(int depth) {
    if (depth > Json::kMaxParseDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        GRANULA_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Json(std::move(s));
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          return Json(true);
        }
        return Error("invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          return Json(false);
        }
        return Error("invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          return Json(nullptr);
        }
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<Json> ParseObject(int depth) {
    ++pos_;  // '{'
    Json::Object obj;
    SkipWhitespace();
    if (Consume('}')) return Json(std::move(obj));
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      GRANULA_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWhitespace();
      GRANULA_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      obj[std::move(key)] = std::move(value);
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Json(std::move(obj));
      return Error("expected ',' or '}' in object");
    }
  }

  Result<Json> ParseArray(int depth) {
    ++pos_;  // '['
    Json::Array arr;
    SkipWhitespace();
    if (Consume(']')) return Json(std::move(arr));
    while (true) {
      SkipWhitespace();
      GRANULA_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      arr.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Json(std::move(arr));
      return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            // Reads 4 hex digits at `at`; -1 when truncated or non-hex.
            auto hex4 = [this](size_t at) -> int {
              if (at + 4 > text_.size()) return -1;
              unsigned value = 0;
              for (int i = 0; i < 4; ++i) {
                char h = text_[at + i];
                value <<= 4;
                if (h >= '0' && h <= '9') {
                  value |= static_cast<unsigned>(h - '0');
                } else if (h >= 'a' && h <= 'f') {
                  value |= static_cast<unsigned>(h - 'a' + 10);
                } else if (h >= 'A' && h <= 'F') {
                  value |= static_cast<unsigned>(h - 'A' + 10);
                } else {
                  return -1;
                }
              }
              return static_cast<int>(value);
            };
            int parsed = hex4(pos_);
            if (parsed < 0) return Error("bad \\u escape");
            pos_ += 4;
            unsigned code = static_cast<unsigned>(parsed);
            // UTF-8 encode the code point. A high surrogate pairs with an
            // immediately following low surrogate; any unpaired surrogate
            // would be invalid UTF-8, so it decodes to U+FFFD instead.
            if (code >= 0xd800 && code <= 0xdbff) {
              int low = -1;
              if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                  text_[pos_ + 1] == 'u') {
                low = hex4(pos_ + 2);
              }
              if (low >= 0xdc00 && low <= 0xdfff) {
                pos_ += 6;
                code = 0x10000 + ((code - 0xd800) << 10) +
                       (static_cast<unsigned>(low) - 0xdc00);
              } else {
                code = 0xfffd;
              }
            } else if (code >= 0xdc00 && code <= 0xdfff) {
              code = 0xfffd;  // lone low surrogate
            }
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else if (code < 0x10000) {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              out += static_cast<char>(0xf0 | (code >> 18));
              out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default:
            return Error("unknown escape character");
        }
      } else {
        out += c;
      }
    }
    return Error("unterminated string");
  }

  Result<Json> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)) {
      ++pos_;
    }
    bool is_double = false;
    if (Consume('.')) {
      is_double = true;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)) {
        ++pos_;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      return Error("invalid number");
    }
    std::string token(text_.substr(start, pos_ - start));
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return Json(static_cast<int64_t>(v));
      }
      // Fall through to double for out-of-range integers.
    }
    char* end = nullptr;
    double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("invalid number");
    return Json(d);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Json> Json::Parse(std::string_view text) { return Parser(text).Run(); }

}  // namespace granula
