#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace rock::json {

/// A parsed JSON document node. This is the read side of the repo's JSON
/// story: obs::JsonWriter emits, json::Parse reads back — the tests that
/// check FixRecord/ConflictRecord and proof-tree JSON go through here. Numbers are kept as doubles
/// (JSON has no integer type); Int() converts for the id-sized values the
/// fix-record schema uses.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  int64_t AsInt() const { return static_cast<int64_t>(number_); }
  const std::string& AsString() const { return string_; }
  const std::vector<Value>& AsArray() const { return array_; }
  const std::map<std::string, Value>& AsObject() const { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* Find(const std::string& key) const;

  /// Typed member accessors with defaults — the ergonomic path for
  /// deserializers: v.GetString("rule_id"), v.GetInt("tid", -1).
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;
  int64_t GetInt(const std::string& key, int64_t fallback = 0) const;
  double GetNumber(const std::string& key, double fallback = 0.0) const;
  bool GetBool(const std::string& key, bool fallback = false) const;

  static Value MakeNull() { return Value(); }
  static Value MakeBool(bool v);
  static Value MakeNumber(double v);
  static Value MakeString(std::string v);
  static Value MakeArray(std::vector<Value> v);
  static Value MakeObject(std::map<std::string, Value> v);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

/// Parses one JSON document (recursive descent, UTF-8 passthrough, \uXXXX
/// escapes decoded for the BMP). Trailing whitespace is allowed; trailing
/// garbage is an error.
Result<Value> Parse(std::string_view text);

}  // namespace rock::json

