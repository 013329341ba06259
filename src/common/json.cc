#include "src/common/json.h"

#include "src/common/strings.h"

#include <cctype>
#include <cstdlib>

namespace rock::json {

const Value* Value::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

std::string Value::GetString(const std::string& key,
                             const std::string& fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->kind() == Kind::kString) ? v->AsString()
                                                      : fallback;
}

int64_t Value::GetInt(const std::string& key, int64_t fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->kind() == Kind::kNumber) ? v->AsInt() : fallback;
}

double Value::GetNumber(const std::string& key, double fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->kind() == Kind::kNumber) ? v->AsNumber()
                                                      : fallback;
}

bool Value::GetBool(const std::string& key, bool fallback) const {
  const Value* v = Find(key);
  return (v != nullptr && v->kind() == Kind::kBool) ? v->AsBool() : fallback;
}

Value Value::MakeBool(bool v) {
  Value out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

Value Value::MakeNumber(double v) {
  Value out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

Value Value::MakeString(std::string v) {
  Value out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}

Value Value::MakeArray(std::vector<Value> v) {
  Value out;
  out.kind_ = Kind::kArray;
  out.array_ = std::move(v);
  return out;
}

Value Value::MakeObject(std::map<std::string, Value> v) {
  Value out;
  out.kind_ = Kind::kObject;
  out.object_ = std::move(v);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> Run() {
    SkipWs();
    Value root;
    Status s = ParseValue(&root, 0);
    if (!s.ok()) return s;
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return root;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument(
        StrFormat("json: %s at offset %zu", what.c_str(), pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
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

  Status Expect(char c) {
    if (!Consume(c)) {
      return Error(std::string("expected '") + c + "'");
    }
    return Status::Ok();
  }

  Status ParseValue(Value* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        Status st = ParseString(&s);
        if (!st.ok()) return st;
        *out = Value::MakeString(std::move(s));
        return Status::Ok();
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          *out = Value::MakeBool(true);
          return Status::Ok();
        }
        return Error("invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          *out = Value::MakeBool(false);
          return Status::Ok();
        }
        return Error("invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          *out = Value::MakeNull();
          return Status::Ok();
        }
        return Error("invalid literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(Value* out, int depth) {
    ROCK_RETURN_IF_ERROR(Expect('{'));
    std::map<std::string, Value> members;
    SkipWs();
    if (Consume('}')) {
      *out = Value::MakeObject(std::move(members));
      return Status::Ok();
    }
    while (true) {
      SkipWs();
      std::string key;
      ROCK_RETURN_IF_ERROR(ParseString(&key));
      SkipWs();
      ROCK_RETURN_IF_ERROR(Expect(':'));
      SkipWs();
      Value member;
      ROCK_RETURN_IF_ERROR(ParseValue(&member, depth + 1));
      members[std::move(key)] = std::move(member);
      SkipWs();
      if (Consume(',')) continue;
      ROCK_RETURN_IF_ERROR(Expect('}'));
      break;
    }
    *out = Value::MakeObject(std::move(members));
    return Status::Ok();
  }

  Status ParseArray(Value* out, int depth) {
    ROCK_RETURN_IF_ERROR(Expect('['));
    std::vector<Value> items;
    SkipWs();
    if (Consume(']')) {
      *out = Value::MakeArray(std::move(items));
      return Status::Ok();
    }
    while (true) {
      SkipWs();
      Value item;
      ROCK_RETURN_IF_ERROR(ParseValue(&item, depth + 1));
      items.push_back(std::move(item));
      SkipWs();
      if (Consume(',')) continue;
      ROCK_RETURN_IF_ERROR(Expect(']'));
      break;
    }
    *out = Value::MakeArray(std::move(items));
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    ROCK_RETURN_IF_ERROR(Expect('"'));
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out->push_back(e);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode (BMP only; surrogate pairs are passed through as
          // two 3-byte sequences — fine for the escaping JsonWriter emits).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(Value* out) {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double parsed = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("malformed number");
    *out = Value::MakeNumber(parsed);
    return Status::Ok();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Value> Parse(std::string_view text) { return Parser(text).Run(); }

}  // namespace rock::json
