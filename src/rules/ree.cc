#include "src/rules/ree.h"

#include "src/common/strings.h"

namespace rock::rules {
namespace {

std::string AttrName(const Ree& rule, const DatabaseSchema& schema, int var,
                     int attr) {
  if (attr == kEidAttr) return "eid";
  int rel = rule.tuple_vars[static_cast<size_t>(var)];
  return schema.relation(rel).AttributeName(attr);
}

std::string AttrList(const Ree& rule, const DatabaseSchema& schema, int var,
                     const std::vector<int>& attrs) {
  std::vector<std::string> names;
  names.reserve(attrs.size());
  for (int a : attrs) names.push_back(AttrName(rule, schema, var, a));
  return Join(names, ",");
}

std::string ConstantLiteral(const Value& v) {
  if (v.type() == ValueType::kString) {
    std::string out = "'";
    for (char c : v.AsString()) {
      if (c == '\'') out += "\\'";
      else out.push_back(c);
    }
    out += "'";
    return out;
  }
  return v.ToString();
}

}  // namespace

const char* RuleTaskName(RuleTask task) {
  switch (task) {
    case RuleTask::kEr:
      return "ER";
    case RuleTask::kCr:
      return "CR";
    case RuleTask::kTd:
      return "TD";
    case RuleTask::kMi:
      return "MI";
    case RuleTask::kGeneral:
      return "GEN";
  }
  return "?";
}

RuleTask Ree::Task() const {
  const Predicate& p = consequence;
  switch (p.kind) {
    case PredicateKind::kAttrCompare:
      return p.attr == kEidAttr ? RuleTask::kEr : RuleTask::kCr;
    case PredicateKind::kConstant: {
      // A constant consequence guarded by null(t[A]) is imputation;
      // otherwise it is conflict resolution.
      for (const Predicate& q : precondition) {
        if (q.kind == PredicateKind::kIsNull && q.var == p.var &&
            q.attr == p.attr) {
          return RuleTask::kMi;
        }
      }
      return RuleTask::kCr;
    }
    case PredicateKind::kPoly:
      return RuleTask::kCr;
    case PredicateKind::kTemporal:
      return RuleTask::kTd;
    case PredicateKind::kValExtract:
    case PredicateKind::kPredictValue:
      return RuleTask::kMi;
    case PredicateKind::kMlPair:
    case PredicateKind::kCorrelation:
    case PredicateKind::kHer:
    case PredicateKind::kPathMatch:
    case PredicateKind::kIsNull:
      return RuleTask::kGeneral;
  }
  return RuleTask::kGeneral;
}

bool Ree::UsesMl() const {
  auto is_ml = [](const Predicate& p) {
    switch (p.kind) {
      case PredicateKind::kMlPair:
      case PredicateKind::kHer:
      case PredicateKind::kPathMatch:
      case PredicateKind::kCorrelation:
      case PredicateKind::kPredictValue:
        return true;
      case PredicateKind::kTemporal:
        return !p.model.empty();  // ranker-backed temporal predicate
      default:
        return false;
    }
  };
  for (const Predicate& p : precondition) {
    if (is_ml(p)) return true;
  }
  return is_ml(consequence);
}

std::string PredicateToString(const Predicate& p, const Ree& rule,
                              const DatabaseSchema& schema) {
  auto var_name = [](int v) {
    return std::string(1, 't').append(std::to_string(v));
  };
  auto vertex_name = [](int v) {
    return std::string(1, 'x').append(std::to_string(v));
  };
  switch (p.kind) {
    case PredicateKind::kConstant:
      return var_name(p.var) + "." + AttrName(rule, schema, p.var, p.attr) +
             " " + CmpOpName(p.op) + " " + ConstantLiteral(p.constant);
    case PredicateKind::kAttrCompare:
      return var_name(p.var) + "." + AttrName(rule, schema, p.var, p.attr) +
             " " + CmpOpName(p.op) + " " + var_name(p.var2) + "." +
             AttrName(rule, schema, p.var2, p.attr2);
    case PredicateKind::kMlPair:
      return p.model + "(" + var_name(p.var) + "[" +
             AttrList(rule, schema, p.var, p.attrs_a) + "], " +
             var_name(p.var2) + "[" +
             AttrList(rule, schema, p.var2, p.attrs_b) + "])";
    case PredicateKind::kTemporal: {
      std::string op = p.strict ? "<" : "<=";
      std::string base = var_name(p.var) + " " + op + "[" +
                         AttrName(rule, schema, p.var, p.attr) + "] " +
                         var_name(p.var2);
      if (!p.model.empty()) {
        return p.model + "(" + var_name(p.var) + ", " + var_name(p.var2) +
               ", " + op + "[" + AttrName(rule, schema, p.var, p.attr) + "])";
      }
      return base;
    }
    case PredicateKind::kHer:
      return "HER(" + var_name(p.var) + ", " + vertex_name(p.vertex_var) + ")";
    case PredicateKind::kPathMatch:
      return "match(" + var_name(p.var) + "." +
             AttrName(rule, schema, p.var, p.attr) + ", " +
             vertex_name(p.vertex_var) + ".(" + Join(p.path, ",") + "))";
    case PredicateKind::kValExtract:
      return var_name(p.var) + "." + AttrName(rule, schema, p.var, p.attr) +
             " = val(" + vertex_name(p.vertex_var) + ".(" +
             Join(p.path, ",") + "))";
    case PredicateKind::kCorrelation: {
      std::string target =
          var_name(p.var) + "." + AttrName(rule, schema, p.var, p.attr2);
      if (p.has_constant) {
        target += '=';
        target += ConstantLiteral(p.constant);
      }
      return p.model + "(" + var_name(p.var) + "[" +
             AttrList(rule, schema, p.var, p.attrs_a) + "], " + target +
             ") >= " + StrFormat("%g", p.threshold);
    }
    case PredicateKind::kPredictValue:
      return var_name(p.var) + "." + AttrName(rule, schema, p.var, p.attr2) +
             " = " + p.model + "(" + var_name(p.var) + "[" +
             AttrList(rule, schema, p.var, p.attrs_a) + "], " +
             AttrName(rule, schema, p.var, p.attr2) + ")";
    case PredicateKind::kIsNull:
      return "null(" + var_name(p.var) + "." +
             AttrName(rule, schema, p.var, p.attr) + ")";
    case PredicateKind::kPoly: {
      // %.17g prints each double exactly: the parser reads back the bits.
      std::string out = var_name(p.var) + "." +
                         AttrName(rule, schema, p.var, p.attr) + " " +
                         CmpOpName(p.op) + " poly(" +
                         StrFormat("%.17g", p.poly.bias);
      for (const Polynomial::Term& term : p.poly.terms) {
        out += StrFormat(" + %.17g", term.weight);
        for (int attr : {term.attr_a, term.attr_b}) {
          if (attr < 0) continue;
          out += StrFormat("*t%d.%s", p.var,
                           AttrName(rule, schema, p.var, attr).c_str());
        }
      }
      return out + StrFormat("; %.17g)", p.threshold);
    }
  }
  return "?";
}

std::string Ree::ToString(const DatabaseSchema& schema) const {
  std::vector<std::string> parts;
  for (size_t i = 0; i < tuple_vars.size(); ++i) {
    parts.push_back(StrFormat("%s(t%zu)",
                              schema.relation(tuple_vars[i]).name().c_str(),
                              i));
  }
  for (int j = 0; j < num_vertex_vars; ++j) {
    parts.push_back(StrFormat("vertex(x%d, G)", j));
  }
  for (const Predicate& p : precondition) {
    parts.push_back(PredicateToString(p, *this, schema));
  }
  return Join(parts, " ^ ") + " -> " +
         PredicateToString(consequence, *this, schema);
}

bool Ree::SameRule(const Ree& other) const {
  if (tuple_vars != other.tuple_vars ||
      num_vertex_vars != other.num_vertex_vars ||
      !(consequence == other.consequence) ||
      precondition.size() != other.precondition.size()) {
    return false;
  }
  // Order-insensitive precondition comparison.
  std::vector<bool> used(other.precondition.size(), false);
  for (const Predicate& p : precondition) {
    bool found = false;
    for (size_t j = 0; j < other.precondition.size(); ++j) {
      if (!used[j] && p == other.precondition[j]) {
        used[j] = true;
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace rock::rules
