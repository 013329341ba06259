#pragma once

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/storage/schema.h"
#include "src/storage/value.h"

namespace rock::rules {

/// Comparison operators ⊕ ∈ {=, ≠, <, ≤, >, ≥} (paper §2.1).
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);
bool EvalCmp(CmpOp op, int three_way);

/// Pseudo-attribute index denoting the built-in EID attribute, used by ER
/// predicates t.EID ⊕ s.EID.
inline constexpr int kEidAttr = -2;

/// A polynomial over one tuple's numeric attributes (paper §5.4):
/// bias + Σ weight · t[attr_a] (· t[attr_b] for a product term).
struct Polynomial {
  struct Term {
    int attr_a = -1;
    int attr_b = -1;  // -1 => linear term, else product attr_a * attr_b
    double weight = 0.0;
    bool operator==(const Term&) const = default;
  };
  double bias = 0.0;
  std::vector<Term> terms;

  /// The value at a tuple whose cells `cell(attr)` returns; NotFound when
  /// an input is null.
  template <typename Cell>
  Result<double> Evaluate(Cell&& cell) const {
    double out = bias;
    for (const Term& term : terms) {
      double x = 1.0;
      for (int attr : {term.attr_a, term.attr_b}) {
        if (attr < 0) continue;
        const Value& value = cell(attr);
        if (value.is_null()) return Status::NotFound("null input attribute");
        x *= value.AsDouble();
      }
      out += term.weight * x;
    }
    return out;
  }

  bool operator==(const Polynomial&) const = default;
};

/// The predicate kinds of REE++s. §2.1 contributes the first five, §2.2 the
/// temporal kind, §2.3 the extraction/correlation/prediction kinds, §5.4
/// the polynomial kind.
enum class PredicateKind {
  kConstant,      // t.A ⊕ c
  kAttrCompare,   // t.A ⊕ s.B   (also t.EID ⊕ s.EID via kEidAttr)
  kMlPair,        // M(t[A], s[B])
  kTemporal,      // t ⪯A s  /  t ≺A s
  kHer,           // HER(t, x)
  kPathMatch,     // match(t.A, x.ρ)
  kValExtract,    // t[A] = val(x.ρ)
  kCorrelation,   // Mc(t[A], t[B]) ≥ δ  or  Mc(t[A], t[B]=c) ≥ δ
  kPredictValue,  // t[B] = Md(t[A], B)
  kIsNull,        // null(t[A])  (syntactic sugar, §2.3 example)
  kPoly,          // t[A] = poly(c0 + c1*t.B + ...; tol)  /  !=
};

/// One predicate of an REE++. Tuple variables are indices into the owning
/// rule's variable table; vertex variables index its vertex-variable table.
/// Relation atoms R(t) and vertex atoms vertex(x, G) are represented by the
/// rule's binding tables rather than as predicate objects.
struct Predicate {
  PredicateKind kind = PredicateKind::kConstant;
  CmpOp op = CmpOp::kEq;

  int var = -1;    // t
  int var2 = -1;   // s (kAttrCompare / kMlPair / kTemporal)
  int vertex_var = -1;  // x (kHer / kPathMatch / kValExtract)

  int attr = -1;   // A (or kEidAttr)
  int attr2 = -1;  // B (kAttrCompare / kCorrelation / kPredictValue)

  Value constant;  // c (kConstant; optional candidate in kCorrelation)
  bool has_constant = false;

  std::string model;          // ML model name (kMlPair/kTemporal ranker/
                              // kCorrelation/kPredictValue)
  std::vector<int> attrs_a;   // A-vector (kMlPair/kCorrelation/kPredictValue)
  std::vector<int> attrs_b;   // B-vector (kMlPair)

  bool strict = false;        // kTemporal: ≺ vs ⪯
  std::vector<std::string> path;  // ρ (kPathMatch / kValExtract)
  double threshold = 0.0;         // δ (kCorrelation) / tolerance (kPoly)
  Polynomial poly;                // kPoly

  // ---- Factories ----
  static Predicate Constant(int var, int attr, CmpOp op, Value c);
  static Predicate AttrCompare(int var, int attr, CmpOp op, int var2,
                               int attr2);
  static Predicate EidCompare(int var, CmpOp op, int var2);
  static Predicate MlPair(std::string model, int var, std::vector<int> attrs_a,
                          int var2, std::vector<int> attrs_b);
  static Predicate Temporal(int var, int var2, int attr, bool strict,
                            std::string ranker_model = "");
  static Predicate Her(int var, int vertex_var);
  static Predicate PathMatch(int var, int attr, int vertex_var,
                             std::vector<std::string> path);
  static Predicate ValExtract(int var, int attr, int vertex_var,
                              std::vector<std::string> path);
  static Predicate Correlation(std::string model, int var,
                               std::vector<int> attrs_a, int attr_b,
                               double threshold);
  static Predicate CorrelationConst(std::string model, int var,
                                    std::vector<int> attrs_a, int attr_b,
                                    Value candidate, double threshold);
  static Predicate PredictValue(std::string model, int var,
                                std::vector<int> attrs_a, int attr_b);
  static Predicate IsNull(int var, int attr);
  /// t[A] = poly(...) holds when every input and t[A] are non-null and
  /// |t[A] - value| / max(1, |value|) <= tolerance; t[A] != poly(...) is
  /// its negation over non-null inputs (a null t[A] misfits).
  static Predicate Poly(int var, int attr, CmpOp op, Polynomial poly,
                        double tolerance);

  /// Tuple variables referenced by this predicate.
  std::vector<int> TupleVars() const;

  /// True when the predicate mentions attribute `attr` of variable `var`
  /// (including via attrs_a/attrs_b).
  bool Mentions(int var_index, int attr_index) const;

  /// Structural equality (used by discovery's duplicate elimination).
  bool operator==(const Predicate& other) const;
};

}  // namespace rock::rules

