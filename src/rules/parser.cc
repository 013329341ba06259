#include "src/rules/parser.h"

#include <cctype>
#include <cstdlib>

#include "src/common/strings.h"

namespace rock::rules {
namespace {

/// Splits on " ^ " at the top level (never inside parentheses or quotes).
std::vector<std::string> SplitParts(std::string_view text) {
  std::vector<std::string> parts;
  std::string current;
  int depth = 0;
  bool in_quote = false;
  char quote_char = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quote) {
      current.push_back(c);
      if (c == quote_char && (i == 0 || text[i - 1] != '\\')) {
        in_quote = false;
      }
      continue;
    }
    if (c == '\'' || c == '"') {
      in_quote = true;
      quote_char = c;
      current.push_back(c);
      continue;
    }
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == '^' && depth == 0) {
      parts.emplace_back(Trim(current));
      current.clear();
      continue;
    }
    current.push_back(c);
  }
  if (!Trim(current).empty()) parts.emplace_back(Trim(current));
  return parts;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

struct ParserState {
  const DatabaseSchema* schema;
  Ree rule;

  Result<int> TupleVar(std::string_view token) const {
    if (token.size() < 2 || token[0] != 't') {
      return Status::InvalidArgument("expected tuple variable, got '" +
                                     std::string(token) + "'");
    }
    char* end = nullptr;
    std::string num(token.substr(1));
    long idx = std::strtol(num.c_str(), &end, 10);
    if (end == num.c_str() || *end != '\0' || idx < 0 ||
        static_cast<size_t>(idx) >= rule.tuple_vars.size()) {
      return Status::InvalidArgument("unbound tuple variable '" +
                                     std::string(token) + "'");
    }
    return static_cast<int>(idx);
  }

  Result<int> VertexVar(std::string_view token) const {
    if (token.size() < 2 || token[0] != 'x') {
      return Status::InvalidArgument("expected vertex variable, got '" +
                                     std::string(token) + "'");
    }
    char* end = nullptr;
    std::string num(token.substr(1));
    long idx = std::strtol(num.c_str(), &end, 10);
    if (end == num.c_str() || *end != '\0' || idx < 0 ||
        idx >= rule.num_vertex_vars) {
      return Status::InvalidArgument("unbound vertex variable '" +
                                     std::string(token) + "'");
    }
    return static_cast<int>(idx);
  }

  Result<int> Attr(int var, std::string_view name) const {
    if (name == "eid") return kEidAttr;
    int rel = rule.tuple_vars[static_cast<size_t>(var)];
    int attr = schema->relation(rel).AttributeIndex(name);
    if (attr < 0) {
      return Status::InvalidArgument(
          "no attribute '" + std::string(name) + "' in relation " +
          schema->relation(rel).name());
    }
    return attr;
  }

  /// Parses "t0.attr" into (var, attr).
  Result<std::pair<int, int>> VarDotAttr(std::string_view text) const {
    size_t dot = text.find('.');
    if (dot == std::string_view::npos) {
      return Status::InvalidArgument("expected t.attr, got '" +
                                     std::string(text) + "'");
    }
    auto var = TupleVar(Trim(text.substr(0, dot)));
    if (!var.ok()) return var.status();
    auto attr = Attr(*var, Trim(text.substr(dot + 1)));
    if (!attr.ok()) return attr.status();
    return std::make_pair(*var, *attr);
  }

  /// Parses "t0[a,b,c]" into (var, attr list).
  Result<std::pair<int, std::vector<int>>> VarBracketAttrs(
      std::string_view text) const {
    size_t open = text.find('[');
    if (open == std::string_view::npos || text.back() != ']') {
      return Status::InvalidArgument("expected t[attrs], got '" +
                                     std::string(text) + "'");
    }
    auto var = TupleVar(Trim(text.substr(0, open)));
    if (!var.ok()) return var.status();
    std::vector<int> attrs;
    for (const std::string& name :
         Split(text.substr(open + 1, text.size() - open - 2), ',')) {
      auto attr = Attr(*var, Trim(name));
      if (!attr.ok()) return attr.status();
      attrs.push_back(*attr);
    }
    return std::make_pair(*var, std::move(attrs));
  }

  /// Parses "x0.(L1,L2)" into (vertex var, path).
  Result<std::pair<int, std::vector<std::string>>> VertexPath(
      std::string_view text) const {
    size_t dot = text.find(".(");
    if (dot == std::string_view::npos || text.back() != ')') {
      return Status::InvalidArgument("expected x.(path), got '" +
                                     std::string(text) + "'");
    }
    auto xv = VertexVar(Trim(text.substr(0, dot)));
    if (!xv.ok()) return xv.status();
    std::vector<std::string> path;
    for (const std::string& label :
         Split(text.substr(dot + 2, text.size() - dot - 3), ',')) {
      path.emplace_back(Trim(label));
    }
    return std::make_pair(*xv, std::move(path));
  }

  Result<Value> Literal(std::string_view text, ValueType hint) const {
    std::string_view t = Trim(text);
    if (t.size() >= 2 && (t.front() == '\'' || t.front() == '"') &&
        t.back() == t.front()) {
      std::string raw(t.substr(1, t.size() - 2));
      std::string out;
      for (size_t i = 0; i < raw.size(); ++i) {
        if (raw[i] == '\\' && i + 1 < raw.size()) ++i;
        out.push_back(raw[i]);
      }
      return Value::String(std::move(out));
    }
    if (!t.empty() && t.front() == '@') {
      return Value::Parse(t.substr(1), ValueType::kTime);
    }
    if (t == "null") return Value::Null();
    if (hint == ValueType::kString) {
      return Value::String(std::string(t));
    }
    // Numeric literal: int unless it contains '.' or 'e'.
    if (t.find('.') != std::string_view::npos ||
        t.find('e') != std::string_view::npos) {
      return Value::Parse(t, ValueType::kDouble);
    }
    return Value::Parse(t, hint == ValueType::kDouble ? ValueType::kDouble
                                                      : ValueType::kInt);
  }
};

/// Finds a top-level comparison operator; returns (position, length, op).
bool FindTopLevelOp(std::string_view text, size_t* pos, size_t* len,
                    CmpOp* op) {
  int depth = 0;
  bool in_quote = false;
  char quote_char = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quote) {
      if (c == quote_char && text[i - 1] != '\\') in_quote = false;
      continue;
    }
    if (c == '\'' || c == '"') {
      in_quote = true;
      quote_char = c;
      continue;
    }
    if (c == '(' || c == '[') ++depth;
    if (c == ')' || c == ']') --depth;
    if (depth != 0) continue;
    auto two = text.substr(i, 2);
    if (two == "!=") {
      *pos = i;
      *len = 2;
      *op = CmpOp::kNe;
      return true;
    }
    if (two == "<=" || two == ">=") {
      // "<=[" is the temporal operator, not a comparison.
      if (i + 2 < text.size() && text[i + 2] == '[') continue;
      *pos = i;
      *len = 2;
      *op = two == "<=" ? CmpOp::kLe : CmpOp::kGe;
      return true;
    }
    if (c == '=' ) {
      *pos = i;
      *len = 1;
      *op = CmpOp::kEq;
      return true;
    }
    if (c == '<' || c == '>') {
      if (i + 1 < text.size() && text[i + 1] == '[') continue;  // temporal
      *pos = i;
      *len = 1;
      *op = c == '<' ? CmpOp::kLt : CmpOp::kGt;
      return true;
    }
  }
  return false;
}

/// Finds the temporal operator " <=[attr] " / " <[attr] " at top level;
/// returns (start of op, op length including "]", attr name, strict).
bool FindTemporalOp(std::string_view text, size_t* pos, size_t* end,
                    std::string* attr, bool* strict) {
  for (size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] != '<') continue;
    size_t bracket;
    bool is_strict;
    if (text[i + 1] == '[') {
      bracket = i + 1;
      is_strict = true;
    } else if (text[i + 1] == '=' && i + 2 < text.size() &&
               text[i + 2] == '[') {
      bracket = i + 2;
      is_strict = false;
    } else {
      continue;
    }
    size_t close = text.find(']', bracket);
    if (close == std::string_view::npos) return false;
    *pos = i;
    *end = close + 1;
    *attr = std::string(Trim(text.substr(bracket + 1, close - bracket - 1)));
    *strict = is_strict;
    return true;
  }
  return false;
}

/// Splits "a, b, c" on top-level commas.
std::vector<std::string> SplitArgs(std::string_view text) {
  std::vector<std::string> out;
  std::string current;
  int depth = 0;
  bool in_quote = false;
  char quote_char = 0;
  for (char c : text) {
    if (in_quote) {
      current.push_back(c);
      if (c == quote_char) in_quote = false;
      continue;
    }
    if (c == '\'' || c == '"') {
      in_quote = true;
      quote_char = c;
      current.push_back(c);
      continue;
    }
    if (c == '(' || c == '[') ++depth;
    if (c == ')' || c == ']') --depth;
    if (c == ',' && depth == 0) {
      out.emplace_back(Trim(current));
      current.clear();
      continue;
    }
    current.push_back(c);
  }
  if (!Trim(current).empty()) out.emplace_back(Trim(current));
  return out;
}

/// Parses a function-call-shaped part "Name(args)" or
/// "Name(args) >= 0.8"; returns false if not call-shaped.
bool SplitCall(std::string_view text, std::string* name, std::string* args,
               std::string* suffix) {
  size_t open = text.find('(');
  if (open == std::string_view::npos || open == 0) return false;
  for (size_t i = 0; i < open; ++i) {
    if (!IsIdentChar(text[i])) return false;
  }
  int depth = 0;
  size_t close = std::string_view::npos;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')') {
      --depth;
      if (depth == 0) {
        close = i;
        break;
      }
    }
  }
  if (close == std::string_view::npos) return false;
  *name = std::string(text.substr(0, open));
  *args = std::string(text.substr(open + 1, close - open - 1));
  *suffix = std::string(Trim(text.substr(close + 1)));
  return true;
}

Result<Predicate> ParsePredicate(const std::string& part, ParserState& st);

Result<Predicate> ParseCall(const std::string& name, const std::string& args,
                            const std::string& suffix, ParserState& st) {
  std::vector<std::string> arg_list = SplitArgs(args);
  if (name == "null") {
    if (arg_list.size() != 1) {
      return Status::InvalidArgument("null() takes one argument");
    }
    auto va = st.VarDotAttr(arg_list[0]);
    if (!va.ok()) return va.status();
    return Predicate::IsNull(va->first, va->second);
  }
  if (name == "HER") {
    if (arg_list.size() != 2) {
      return Status::InvalidArgument("HER() takes two arguments");
    }
    auto tv = st.TupleVar(Trim(arg_list[0]));
    if (!tv.ok()) return tv.status();
    auto xv = st.VertexVar(Trim(arg_list[1]));
    if (!xv.ok()) return xv.status();
    return Predicate::Her(*tv, *xv);
  }
  if (name == "match") {
    if (arg_list.size() != 2) {
      return Status::InvalidArgument("match() takes two arguments");
    }
    auto va = st.VarDotAttr(arg_list[0]);
    if (!va.ok()) return va.status();
    auto vp = st.VertexPath(arg_list[1]);
    if (!vp.ok()) return vp.status();
    return Predicate::PathMatch(va->first, va->second, vp->first, vp->second);
  }
  // Ranker-backed temporal: Model(t0, t1, <=[attr]).
  if (arg_list.size() == 3 &&
      (StartsWith(Trim(arg_list[2]), "<=[") ||
       StartsWith(Trim(arg_list[2]), "<["))) {
    auto tv1 = st.TupleVar(Trim(arg_list[0]));
    if (!tv1.ok()) return tv1.status();
    auto tv2 = st.TupleVar(Trim(arg_list[1]));
    if (!tv2.ok()) return tv2.status();
    std::string_view spec = Trim(arg_list[2]);
    bool strict = spec[1] != '=';
    size_t open = spec.find('[');
    size_t close = spec.find(']');
    if (close == std::string_view::npos) {
      return Status::InvalidArgument("bad temporal spec: " +
                                     std::string(spec));
    }
    auto attr =
        st.Attr(*tv1, Trim(spec.substr(open + 1, close - open - 1)));
    if (!attr.ok()) return attr.status();
    return Predicate::Temporal(*tv1, *tv2, *attr, strict, name);
  }
  // ML pair / correlation: Model(t0[...], t1[...]) or
  // Model(t0[...], t0.c[='v']) >= δ.
  if (arg_list.size() == 2) {
    auto lhs = st.VarBracketAttrs(Trim(arg_list[0]));
    if (!lhs.ok()) return lhs.status();
    std::string_view rhs = Trim(arg_list[1]);
    if (!suffix.empty()) {
      // Correlation with threshold suffix ">= δ".
      if (!StartsWith(suffix, ">=")) {
        return Status::InvalidArgument("expected >= after " + name + "(...)");
      }
      double delta = std::strtod(std::string(Trim(suffix.substr(2))).c_str(),
                                 nullptr);
      size_t eq = rhs.find('=');
      if (eq != std::string_view::npos && rhs.find('[') == std::string_view::npos) {
        // t0.c='v' form.
        auto va = st.VarDotAttr(Trim(rhs.substr(0, eq)));
        if (!va.ok()) return va.status();
        int rel = st.rule.tuple_vars[static_cast<size_t>(va->first)];
        ValueType hint = va->second == kEidAttr
                             ? ValueType::kInt
                             : st.schema->relation(rel).AttributeType(
                                   va->second);
        auto lit = st.Literal(Trim(rhs.substr(eq + 1)), hint);
        if (!lit.ok()) return lit.status();
        return Predicate::CorrelationConst(name, lhs->first, lhs->second,
                                           va->second, *lit, delta);
      }
      auto va = st.VarDotAttr(rhs);
      if (!va.ok()) return va.status();
      return Predicate::Correlation(name, lhs->first, lhs->second,
                                    va->second, delta);
    }
    auto rhs_attrs = st.VarBracketAttrs(rhs);
    if (!rhs_attrs.ok()) return rhs_attrs.status();
    return Predicate::MlPair(name, lhs->first, lhs->second, rhs_attrs->first,
                             rhs_attrs->second);
  }
  return Status::InvalidArgument("unrecognized predicate call: " + name);
}

Result<Predicate> ParsePredicate(const std::string& part, ParserState& st) {
  // Temporal predicate t0 <=[attr] t1 (checked first: '<' would otherwise
  // be taken as a comparison).
  {
    size_t pos, end;
    std::string attr_name;
    bool strict;
    if (FindTemporalOp(part, &pos, &end, &attr_name, &strict)) {
      std::string lhs(Trim(std::string_view(part).substr(0, pos)));
      std::string rhs(Trim(std::string_view(part).substr(end)));
      if (lhs.find('(') == std::string::npos &&
          lhs.find('.') == std::string::npos) {
        auto tv1 = st.TupleVar(lhs);
        if (!tv1.ok()) return tv1.status();
        auto tv2 = st.TupleVar(rhs);
        if (!tv2.ok()) return tv2.status();
        auto attr = st.Attr(*tv1, attr_name);
        if (!attr.ok()) return attr.status();
        return Predicate::Temporal(*tv1, *tv2, *attr, strict);
      }
    }
  }
  // Function-call shapes.
  {
    std::string name, args, suffix;
    if (SplitCall(part, &name, &args, &suffix) &&
        part.find('.') > part.find('(')) {
      return ParseCall(name, args, suffix, st);
    }
  }
  // Comparison shapes: lhs OP rhs.
  size_t pos, len;
  CmpOp op;
  if (!FindTopLevelOp(part, &pos, &len, &op)) {
    return Status::InvalidArgument("cannot parse predicate: " + part);
  }
  std::string lhs(Trim(std::string_view(part).substr(0, pos)));
  std::string rhs(Trim(std::string_view(part).substr(pos + len)));
  auto va = st.VarDotAttr(lhs);
  if (!va.ok()) return va.status();

  // rhs: val(x.(path)) | Md(t[...], attr) | t.attr | literal.
  std::string name, args, suffix;
  if (SplitCall(rhs, &name, &args, &suffix) && suffix.empty()) {
    if (name == "val") {
      auto vp = st.VertexPath(args);
      if (!vp.ok()) return vp.status();
      if (op != CmpOp::kEq) {
        return Status::InvalidArgument("val() requires '='");
      }
      return Predicate::ValExtract(va->first, va->second, vp->first,
                                   vp->second);
    }
    std::vector<std::string> arg_list = SplitArgs(args);
    if (arg_list.size() == 2) {
      // t0.b = Md(t0[...], b)
      auto lhs_attrs = st.VarBracketAttrs(Trim(arg_list[0]));
      if (!lhs_attrs.ok()) return lhs_attrs.status();
      if (op != CmpOp::kEq) {
        return Status::InvalidArgument("M_d prediction requires '='");
      }
      return Predicate::PredictValue(name, va->first, lhs_attrs->second,
                                     va->second);
    }
    return Status::InvalidArgument("unrecognized rhs call: " + rhs);
  }
  if (rhs.find('.') != std::string::npos && rhs[0] == 't' &&
      std::isdigit(static_cast<unsigned char>(rhs[1]))) {
    auto vb = st.VarDotAttr(rhs);
    if (!vb.ok()) return vb.status();
    return Predicate::AttrCompare(va->first, va->second, op, vb->first,
                                  vb->second);
  }
  int rel = st.rule.tuple_vars[static_cast<size_t>(va->first)];
  ValueType hint =
      va->second == kEidAttr
          ? ValueType::kInt
          : st.schema->relation(rel).AttributeType(va->second);
  auto lit = st.Literal(rhs, hint);
  if (!lit.ok()) return lit.status();
  return Predicate::Constant(va->first, va->second, op, *lit);
}

}  // namespace

Result<Ree> ParseRee(std::string_view text, const DatabaseSchema& schema) {
  size_t arrow = text.find("->");
  if (arrow == std::string_view::npos) {
    return Status::InvalidArgument("rule has no '->': " + std::string(text));
  }
  ParserState st;
  st.schema = &schema;

  std::vector<std::string> body_parts = SplitParts(text.substr(0, arrow));
  std::vector<std::string> deferred;

  // First pass: bind variables from relation and vertex atoms (they must
  // precede predicate uses, as in the paper's examples).
  for (const std::string& part : body_parts) {
    std::string name, args, suffix;
    bool is_call = SplitCall(part, &name, &args, &suffix);
    if (is_call && suffix.empty() && name == "vertex") {
      std::vector<std::string> arg_list = SplitArgs(args);
      if (arg_list.size() != 2) {
        return Status::InvalidArgument("vertex() takes (x, G)");
      }
      std::string expected = StrFormat("x%d", st.rule.num_vertex_vars);
      if (Trim(arg_list[0]) != expected) {
        return Status::InvalidArgument("vertex variables must be bound in "
                                       "order x0, x1, ...");
      }
      ++st.rule.num_vertex_vars;
      continue;
    }
    if (is_call && suffix.empty() && schema.RelationIndex(name) >= 0 &&
        args.find('.') == std::string::npos &&
        args.find('[') == std::string::npos &&
        args.find(',') == std::string::npos) {
      std::string expected = StrFormat("t%zu", st.rule.tuple_vars.size());
      if (Trim(args) != expected) {
        return Status::InvalidArgument("tuple variables must be bound in "
                                       "order t0, t1, ...; got " + args);
      }
      st.rule.tuple_vars.push_back(schema.RelationIndex(name));
      continue;
    }
    deferred.push_back(part);
  }

  for (const std::string& part : deferred) {
    auto pred = ParsePredicate(part, st);
    if (!pred.ok()) return pred.status();
    st.rule.precondition.push_back(*pred);
  }

  std::string cons(Trim(text.substr(arrow + 2)));
  auto pred = ParsePredicate(cons, st);
  if (!pred.ok()) return pred.status();
  st.rule.consequence = *pred;
  return st.rule;
}

Result<std::vector<Ree>> ParseRules(std::string_view text,
                                    const DatabaseSchema& schema) {
  std::vector<Ree> out;
  for (const std::string& line : Split(text, '\n')) {
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    auto rule = ParseRee(trimmed, schema);
    if (!rule.ok()) return rule.status();
    rule->id = 'r';
    rule->id += std::to_string(out.size());
    out.push_back(std::move(*rule));
  }
  return out;
}

}  // namespace rock::rules
