// Minimal strict JSON for the tpcpd wire protocol (server/wire.h).
//
// The daemon speaks length-prefixed JSON frames; this is the value model
// and the parser/serializer behind them. It is deliberately small — the
// protocol uses flat objects of strings, numbers, booleans and one level
// of nesting for options maps — and deliberately strict: a frame either
// parses completely (one JSON value, whole input consumed) or is rejected
// as InvalidArgument, so a malformed client can never half-configure a
// job. Numbers keep their integer identity when they have one (seeds and
// byte budgets are 64-bit; doubles would silently round them).

#ifndef TPCP_SERVER_JSON_H_
#define TPCP_SERVER_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace tpcp {

/// One JSON value. Value-semantic tree; objects keep key order sorted
/// (std::map) so serialization is deterministic.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool value) : kind_(Kind::kBool), bool_(value) {}
  JsonValue(int64_t value) : kind_(Kind::kInt), int_(value) {}
  JsonValue(int value) : kind_(Kind::kInt), int_(value) {}
  JsonValue(uint64_t value)
      : kind_(Kind::kInt), int_(static_cast<int64_t>(value)) {}
  JsonValue(double value) : kind_(Kind::kDouble), double_(value) {}
  JsonValue(std::string value)
      : kind_(Kind::kString), string_(std::move(value)) {}
  JsonValue(const char* value) : kind_(Kind::kString), string_(value) {}

  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  /// Integer value (kInt only; a kDouble is not silently truncated).
  int64_t int_value() const { return int_; }
  /// Numeric value of either number kind.
  double number_value() const {
    return kind_ == Kind::kInt ? static_cast<double>(int_) : double_;
  }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  std::vector<JsonValue>& array_items() { return array_; }
  const std::map<std::string, JsonValue>& object_items() const {
    return object_;
  }

  /// Object field access: the value at `key`, or nullptr when absent (or
  /// when this value is not an object).
  const JsonValue* Find(const std::string& key) const;

  /// Object/array builders.
  JsonValue& Set(const std::string& key, JsonValue value);
  JsonValue& Append(JsonValue value);

  /// Compact serialization (no whitespace, sorted object keys, strings
  /// escaped; non-finite doubles serialize as null).
  std::string Serialize() const;

  /// Strict parse: exactly one JSON value spanning the whole input
  /// (surrounding whitespace allowed). InvalidArgument on anything else —
  /// trailing bytes, unterminated strings, bad escapes, nesting deeper
  /// than 32, numbers out of range.
  static Result<JsonValue> Parse(const std::string& text);

 private:
  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// ---- typed field accessors -------------------------------------------------
//
// Protocol handlers read request fields through these: a missing or
// wrong-type field is a clean InvalidArgument naming the field, never a
// crash or a default silently standing in for a typo.

/// `object[key]` as a string. InvalidArgument when absent or not a string.
Result<std::string> GetString(const JsonValue& object, const std::string& key);
/// `object[key]` as a string, or `fallback` when the key is absent.
Result<std::string> GetStringOr(const JsonValue& object,
                                const std::string& key,
                                std::string fallback);
/// `object[key]` as an integer. InvalidArgument when absent, not a number,
/// or not integral.
Result<int64_t> GetInt(const JsonValue& object, const std::string& key);
/// `object[key]` as an integer, or `fallback` when the key is absent.
Result<int64_t> GetIntOr(const JsonValue& object, const std::string& key,
                         int64_t fallback);
/// `object[key]` as a double, or `fallback` when the key is absent.
Result<double> GetDoubleOr(const JsonValue& object, const std::string& key,
                           double fallback);
/// `object[key]` as a bool, or `fallback` when the key is absent.
Result<bool> GetBoolOr(const JsonValue& object, const std::string& key,
                       bool fallback);
/// `object[key]` as an object of strings, or empty when the key is absent.
/// InvalidArgument naming the field when it is not an object or one of
/// its values is not a string.
Result<std::map<std::string, std::string>> GetStringMap(
    const JsonValue& object, const std::string& key);

}  // namespace tpcp

#endif  // TPCP_SERVER_JSON_H_
