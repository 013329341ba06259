#include "src/rules/predicate.h"

#include <algorithm>

namespace rock::rules {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

bool EvalCmp(CmpOp op, int three_way) {
  switch (op) {
    case CmpOp::kEq:
      return three_way == 0;
    case CmpOp::kNe:
      return three_way != 0;
    case CmpOp::kLt:
      return three_way < 0;
    case CmpOp::kLe:
      return three_way <= 0;
    case CmpOp::kGt:
      return three_way > 0;
    case CmpOp::kGe:
      return three_way >= 0;
  }
  return false;
}

Predicate Predicate::Constant(int var, int attr, CmpOp op, Value c) {
  Predicate p;
  p.kind = PredicateKind::kConstant;
  p.var = var;
  p.attr = attr;
  p.op = op;
  p.constant = std::move(c);
  p.has_constant = true;
  return p;
}

Predicate Predicate::AttrCompare(int var, int attr, CmpOp op, int var2,
                                 int attr2) {
  Predicate p;
  p.kind = PredicateKind::kAttrCompare;
  p.var = var;
  p.attr = attr;
  p.op = op;
  p.var2 = var2;
  p.attr2 = attr2;
  return p;
}

Predicate Predicate::EidCompare(int var, CmpOp op, int var2) {
  return AttrCompare(var, kEidAttr, op, var2, kEidAttr);
}

Predicate Predicate::MlPair(std::string model, int var,
                            std::vector<int> attrs_a, int var2,
                            std::vector<int> attrs_b) {
  Predicate p;
  p.kind = PredicateKind::kMlPair;
  p.model = std::move(model);
  p.var = var;
  p.attrs_a = std::move(attrs_a);
  p.var2 = var2;
  p.attrs_b = std::move(attrs_b);
  return p;
}

Predicate Predicate::Temporal(int var, int var2, int attr, bool strict,
                              std::string ranker_model) {
  Predicate p;
  p.kind = PredicateKind::kTemporal;
  p.var = var;
  p.var2 = var2;
  p.attr = attr;
  p.strict = strict;
  p.model = std::move(ranker_model);
  return p;
}

Predicate Predicate::Her(int var, int vertex_var) {
  Predicate p;
  p.kind = PredicateKind::kHer;
  p.var = var;
  p.vertex_var = vertex_var;
  return p;
}

Predicate Predicate::PathMatch(int var, int attr, int vertex_var,
                               std::vector<std::string> path) {
  Predicate p;
  p.kind = PredicateKind::kPathMatch;
  p.var = var;
  p.attr = attr;
  p.vertex_var = vertex_var;
  p.path = std::move(path);
  return p;
}

Predicate Predicate::ValExtract(int var, int attr, int vertex_var,
                                std::vector<std::string> path) {
  Predicate p;
  p.kind = PredicateKind::kValExtract;
  p.var = var;
  p.attr = attr;
  p.vertex_var = vertex_var;
  p.path = std::move(path);
  return p;
}

Predicate Predicate::Correlation(std::string model, int var,
                                 std::vector<int> attrs_a, int attr_b,
                                 double threshold) {
  Predicate p;
  p.kind = PredicateKind::kCorrelation;
  p.model = std::move(model);
  p.var = var;
  p.attrs_a = std::move(attrs_a);
  p.attr2 = attr_b;
  p.threshold = threshold;
  return p;
}

Predicate Predicate::CorrelationConst(std::string model, int var,
                                      std::vector<int> attrs_a, int attr_b,
                                      Value candidate, double threshold) {
  Predicate p = Correlation(std::move(model), var, std::move(attrs_a), attr_b,
                            threshold);
  p.constant = std::move(candidate);
  p.has_constant = true;
  return p;
}

Predicate Predicate::PredictValue(std::string model, int var,
                                  std::vector<int> attrs_a, int attr_b) {
  Predicate p;
  p.kind = PredicateKind::kPredictValue;
  p.model = std::move(model);
  p.var = var;
  p.attrs_a = std::move(attrs_a);
  p.attr2 = attr_b;
  return p;
}

Predicate Predicate::IsNull(int var, int attr) {
  Predicate p;
  p.kind = PredicateKind::kIsNull;
  p.var = var;
  p.attr = attr;
  return p;
}

Predicate Predicate::Poly(int var, int attr, CmpOp op, Polynomial poly,
                          double tolerance) {
  Predicate p;
  p.kind = PredicateKind::kPoly;
  p.var = var;
  p.attr = attr;
  p.op = op;
  p.poly = std::move(poly);
  p.threshold = tolerance;
  return p;
}

std::vector<int> Predicate::TupleVars() const {
  std::vector<int> out;
  if (var >= 0) out.push_back(var);
  if (var2 >= 0 && var2 != var) out.push_back(var2);
  return out;
}

bool Predicate::Mentions(int var_index, int attr_index) const {
  auto in = [attr_index](const std::vector<int>& v) {
    return std::find(v.begin(), v.end(), attr_index) != v.end();
  };
  if (var == var_index) {
    if (attr == attr_index) return true;
    if (kind == PredicateKind::kCorrelation ||
        kind == PredicateKind::kPredictValue) {
      if (attr2 == attr_index) return true;
    }
    if (in(attrs_a)) return true;
    for (const Polynomial::Term& term : poly.terms) {
      if (term.attr_a == attr_index || term.attr_b == attr_index) return true;
    }
  }
  if (var2 == var_index) {
    if (kind == PredicateKind::kAttrCompare && attr2 == attr_index) {
      return true;
    }
    if (kind == PredicateKind::kTemporal && attr == attr_index) return true;
    if (in(attrs_b)) return true;
  }
  return false;
}

bool Predicate::operator==(const Predicate& other) const {
  return kind == other.kind && op == other.op && var == other.var &&
         var2 == other.var2 && vertex_var == other.vertex_var &&
         attr == other.attr && attr2 == other.attr2 &&
         has_constant == other.has_constant &&
         (!has_constant || constant == other.constant) &&
         model == other.model && attrs_a == other.attrs_a &&
         attrs_b == other.attrs_b && strict == other.strict &&
         path == other.path && threshold == other.threshold &&
         poly == other.poly;
}

}  // namespace rock::rules
