#include "server/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace tpcp {

namespace {

constexpr int kMaxDepth = 32;

void EscapeTo(const std::string& text, std::string* out) {
  out->push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

/// Recursive-descent parser over [pos, text.size()).
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Run() {
    TPCP_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Err("trailing bytes after JSON value");
    }
    return value;
  }

 private:
  Status Err(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(const char* word) {
    const size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      TPCP_ASSIGN_OR_RETURN(std::string s, ParseString());
      return JsonValue(std::move(s));
    }
    if (ConsumeWord("true")) return JsonValue(true);
    if (ConsumeWord("false")) return JsonValue(false);
    if (ConsumeWord("null")) return JsonValue();
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    return Err(std::string("unexpected character '") + c + "'");
  }

  Result<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    JsonValue object = JsonValue::Object();
    SkipSpace();
    if (Consume('}')) return object;
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Err("expected object key string");
      }
      TPCP_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipSpace();
      if (!Consume(':')) return Err("expected ':' after object key");
      TPCP_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      object.Set(key, std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return object;
      return Err("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    JsonValue array = JsonValue::Array();
    SkipSpace();
    if (Consume(']')) return array;
    for (;;) {
      TPCP_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      array.Append(std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return array;
      return Err("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Err("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Err("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // needed by this protocol; a lone surrogate encodes as-is).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          return Err(std::string("bad escape '\\") + esc + "'");
      }
    }
    return Err("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    bool integral = true;
    if (Consume('.')) {
      integral = false;
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    const std::string lexeme = text_.substr(start, pos_ - start);
    if (lexeme.empty() || lexeme == "-") return Err("malformed number");
    errno = 0;
    char* end = nullptr;
    if (integral) {
      const long long value = std::strtoll(lexeme.c_str(), &end, 10);
      if (errno == ERANGE || end != lexeme.c_str() + lexeme.size()) {
        return Err("integer out of range: " + lexeme);
      }
      return JsonValue(static_cast<int64_t>(value));
    }
    const double value = std::strtod(lexeme.c_str(), &end);
    if (end != lexeme.c_str() + lexeme.size() || !std::isfinite(value)) {
      return Err("malformed number: " + lexeme);
    }
    return JsonValue(value);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

JsonValue& JsonValue::Set(const std::string& key, JsonValue value) {
  kind_ = Kind::kObject;
  object_[key] = std::move(value);
  return *this;
}

JsonValue& JsonValue::Append(JsonValue value) {
  kind_ = Kind::kArray;
  array_.push_back(std::move(value));
  return *this;
}

std::string JsonValue::Serialize() const {
  std::string out;
  switch (kind_) {
    case Kind::kNull:
      out = "null";
      break;
    case Kind::kBool:
      out = bool_ ? "true" : "false";
      break;
    case Kind::kInt:
      out = std::to_string(int_);
      break;
    case Kind::kDouble: {
      if (!std::isfinite(double_)) {
        out = "null";
        break;
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", double_);
      out = buf;
      break;
    }
    case Kind::kString:
      EscapeTo(string_, &out);
      break;
    case Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const JsonValue& item : array_) {
        if (!first) out.push_back(',');
        first = false;
        out += item.Serialize();
      }
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out.push_back(',');
        first = false;
        EscapeTo(key, &out);
        out.push_back(':');
        out += value.Serialize();
      }
      out.push_back('}');
      break;
    }
  }
  return out;
}

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  return Parser(text).Run();
}

Result<std::string> GetString(const JsonValue& object,
                              const std::string& key) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) {
    return Status::InvalidArgument("missing field '" + key + "'");
  }
  if (!value->is_string()) {
    return Status::InvalidArgument("field '" + key + "' must be a string");
  }
  return value->string_value();
}

Result<std::string> GetStringOr(const JsonValue& object,
                                const std::string& key,
                                std::string fallback) {
  if (object.Find(key) == nullptr) return fallback;
  return GetString(object, key);
}

Result<int64_t> GetInt(const JsonValue& object, const std::string& key) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) {
    return Status::InvalidArgument("missing field '" + key + "'");
  }
  if (!value->is_int()) {
    return Status::InvalidArgument("field '" + key +
                                   "' must be an integer");
  }
  return value->int_value();
}

Result<int64_t> GetIntOr(const JsonValue& object, const std::string& key,
                         int64_t fallback) {
  if (object.Find(key) == nullptr) return fallback;
  return GetInt(object, key);
}

Result<double> GetDoubleOr(const JsonValue& object, const std::string& key,
                           double fallback) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return fallback;
  if (!value->is_number()) {
    return Status::InvalidArgument("field '" + key + "' must be a number");
  }
  return value->number_value();
}

Result<bool> GetBoolOr(const JsonValue& object, const std::string& key,
                       bool fallback) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) return fallback;
  if (!value->is_bool()) {
    return Status::InvalidArgument("field '" + key + "' must be a boolean");
  }
  return value->bool_value();
}

Result<std::map<std::string, std::string>> GetStringMap(
    const JsonValue& object, const std::string& key) {
  std::map<std::string, std::string> out;
  const JsonValue* map = object.Find(key);
  if (map == nullptr) return out;
  if (!map->is_object()) {
    return Status::InvalidArgument("field '" + key + "' must be an object");
  }
  for (const auto& [name, value] : map->object_items()) {
    if (!value.is_string()) {
      return Status::InvalidArgument("field '" + key + "." + name +
                                     "' must be a string");
    }
    out[name] = value.string_value();
  }
  return out;
}

}  // namespace tpcp
