#include "src/storage/value.h"

#include <cmath>
#include <cstdlib>
#include <utility>

#include "src/common/hash.h"
#include "src/common/strings.h"

namespace rock {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
    case ValueType::kTime:
      return "time";
  }
  return "?";
}

Value Value::Int(int64_t v) {
  Value out;
  out.type_ = ValueType::kInt;
  out.int_ = v;
  return out;
}

Value Value::Double(double v) {
  Value out;
  out.type_ = ValueType::kDouble;
  out.double_ = v;
  return out;
}

Value Value::String(std::string v) {
  Value out;
  out.type_ = ValueType::kString;
  out.string_ = std::move(v);
  return out;
}

Value Value::Time(int64_t epoch_seconds) {
  Value out;
  out.type_ = ValueType::kTime;
  out.int_ = epoch_seconds;
  return out;
}

Result<Value> Value::Parse(std::string_view text, ValueType type) {
  std::string_view trimmed = Trim(text);
  if (trimmed.empty() || trimmed == "null") return Value::Null();
  std::string buf(trimmed);
  char* end = nullptr;
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt: {
      long long v = std::strtoll(buf.c_str(), &end, 10);
      if (end == buf.c_str() || *end != '\0') {
        return Status::InvalidArgument("not an int: " + buf);
      }
      return Value::Int(v);
    }
    case ValueType::kDouble: {
      double v = std::strtod(buf.c_str(), &end);
      if (end == buf.c_str() || *end != '\0') {
        return Status::InvalidArgument("not a double: " + buf);
      }
      return Value::Double(v);
    }
    case ValueType::kString:
      return Value::String(std::move(buf));
    case ValueType::kTime: {
      long long v = std::strtoll(buf.c_str(), &end, 10);
      if (end == buf.c_str() || *end != '\0') {
        return Status::InvalidArgument("not a time: " + buf);
      }
      return Value::Time(v);
    }
  }
  return Status::InvalidArgument("unknown value type");
}

bool Value::ComparableWith(const Value& other) const {
  if (type_ == other.type_) return true;
  auto numeric = [](ValueType t) {
    return t == ValueType::kInt || t == ValueType::kDouble;
  };
  return numeric(type_) && numeric(other.type_);
}

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  auto numeric = [](ValueType t) {
    return t == ValueType::kInt || t == ValueType::kDouble;
  };
  if (numeric(type_) && numeric(other.type_)) {
    if (type_ == ValueType::kInt && other.type_ == ValueType::kInt) {
      if (int_ < other.int_) return -1;
      if (int_ > other.int_) return 1;
      return 0;
    }
    double a = AsDouble();
    double b = other.AsDouble();
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (type_ != other.type_) {
    return static_cast<int>(type_) < static_cast<int>(other.type_) ? -1 : 1;
  }
  switch (type_) {
    case ValueType::kString: {
      int c = string_.compare(other.string_);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueType::kTime:
      if (int_ < other.int_) return -1;
      if (int_ > other.int_) return 1;
      return 0;
    default:
      return 0;
  }
}

uint64_t Value::Hash() const {
  switch (type_) {
    case ValueType::kNull:
      return 0x6E756C6Cull;
    case ValueType::kInt:
      return MixHash64(static_cast<uint64_t>(int_));
    case ValueType::kDouble: {
      // Hash integral doubles like ints so 3 == 3.0 hashes identically.
      double rounded = std::nearbyint(double_);
      if (rounded == double_ && std::abs(double_) < 9.2e18) {
        return MixHash64(static_cast<uint64_t>(static_cast<int64_t>(double_)));
      }
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(double_));
      __builtin_memcpy(&bits, &double_, sizeof(bits));
      return MixHash64(bits);
    }
    case ValueType::kString:
      return Hash64(string_);
    case ValueType::kTime:
      return HashCombine(0x74696D65ull, static_cast<uint64_t>(int_));
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type_) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return std::to_string(int_);
    case ValueType::kDouble: {
      // Shortest representation that parses back to the same double, so
      // printed rules round-trip through the parser.
      for (int precision = 6; precision <= 17; ++precision) {
        std::string out = StrFormat("%.*g", precision, double_);
        if (std::strtod(out.c_str(), nullptr) == double_) return out;
      }
      return StrFormat("%.17g", double_);
    }
    case ValueType::kString:
      return string_;
    case ValueType::kTime:
      return std::string(1, '@').append(std::to_string(int_));
  }
  return "?";
}

}  // namespace rock
