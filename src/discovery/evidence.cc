#include "src/discovery/evidence.h"

#include <algorithm>

#include "src/storage/stats.h"

namespace rock::discovery {

using rules::CmpOp;
using rules::Predicate;

namespace {

/// Attributes with more distinct values than this get no constant
/// predicates (they cannot generalize).
constexpr size_t kMaxConstantDomain = 64;

void AddConstantPredicates(const Database& db, int rel, int var,
                           const PredicateSpaceOptions& options,
                           PredicateSpace* space,
                           bool consequences) {
  const Relation& relation = db.relation(rel);
  for (size_t attr = 0; attr < relation.schema().num_attributes(); ++attr) {
    ColumnStats stats = ComputeColumnStats(relation, static_cast<int>(attr));
    if (stats.num_distinct == 0 ||
        stats.num_distinct > kMaxConstantDomain) {
      continue;
    }
    int added = 0;
    for (const auto& [value, count] : stats.top_values) {
      (void)count;
      if (added >= options.max_constants_per_attr) break;
      space->predicates.push_back(Predicate::Constant(
          var, static_cast<int>(attr), CmpOp::kEq, value));
      if (consequences) {
        space->consequence_candidates.push_back(
            static_cast<int>(space->predicates.size()) - 1);
      }
      ++added;
    }
  }
}

}  // namespace

PredicateSpace BuildPairSpace(const Database& db, int rel,
                              const PredicateSpaceOptions& options) {
  PredicateSpace space;
  space.tuple_vars = {rel, rel};
  const Schema& schema = db.schema().relation(rel);

  // Equality predicates t0.A = t1.A per attribute — both precondition and
  // consequence candidates (CR shapes).
  for (size_t attr = 0; attr < schema.num_attributes(); ++attr) {
    space.predicates.push_back(Predicate::AttrCompare(
        0, static_cast<int>(attr), CmpOp::kEq, 1, static_cast<int>(attr)));
    space.consequence_candidates.push_back(
        static_cast<int>(space.predicates.size()) - 1);
  }

  // Constant predicates on t0 (precondition-only in pair shapes).
  AddConstantPredicates(db, rel, 0, options, &space, /*consequences=*/false);

  // ML pair predicates from the configured bindings.
  for (const auto& [model, attr_names] : options.ml_bindings) {
    std::vector<int> attrs;
    bool ok = true;
    for (const std::string& name : attr_names) {
      int idx = schema.AttributeIndex(name);
      if (idx < 0) {
        ok = false;
        break;
      }
      attrs.push_back(idx);
    }
    if (!ok || attrs.empty()) continue;
    space.predicates.push_back(Predicate::MlPair(model, 0, attrs, 1, attrs));
  }

  // ER consequence t0.eid = t1.eid.
  if (options.include_er_consequence) {
    space.predicates.push_back(Predicate::EidCompare(0, CmpOp::kEq, 1));
    space.consequence_candidates.push_back(
        static_cast<int>(space.predicates.size()) - 1);
  }
  return space;
}

PredicateSpace BuildSingleSpace(const Database& db, int rel,
                                const PredicateSpaceOptions& options) {
  PredicateSpace space;
  space.tuple_vars = {rel};
  AddConstantPredicates(db, rel, 0, options, &space, /*consequences=*/true);
  return space;
}

EvidenceTable EvidenceTable::Build(const rules::Evaluator& eval,
                                   const PredicateSpace& space,
                                   size_t max_rows, Rng* rng) {
  EvidenceTable table;
  table.num_predicates_ = space.predicates.size();
  const size_t words = (space.predicates.size() + 63) / 64;

  const Database& db = *eval.context().db;
  // Enumerate valuations of the shape (1 or 2 variables over the bound
  // relations) with uniform row sampling to respect max_rows.
  std::vector<size_t> sizes;
  size_t total = 1;
  for (int rel : space.tuple_vars) {
    sizes.push_back(db.relation(rel).size());
    total *= db.relation(rel).size();
  }
  double keep = max_rows == 0 || total <= max_rows
                    ? 1.0
                    : static_cast<double>(max_rows) /
                          static_cast<double>(total);
  table.sample_ratio_ = keep;

  rules::Ree shape;
  shape.tuple_vars = space.tuple_vars;

  rules::Valuation v;
  v.rows.assign(space.tuple_vars.size(), 0);

  auto emit = [&]() {
    if (keep < 1.0 && rng != nullptr && !rng->NextBernoulli(keep)) return;
    std::vector<uint64_t> bits(words, 0);
    for (size_t p = 0; p < space.predicates.size(); ++p) {
      if (eval.Satisfies(shape, v, space.predicates[p])) {
        bits[p >> 6] |= (1ull << (p & 63));
      }
    }
    table.rows_.push_back(std::move(bits));
  };

  if (space.tuple_vars.size() == 1) {
    for (size_t r0 = 0; r0 < sizes[0]; ++r0) {
      v.rows[0] = static_cast<int>(r0);
      emit();
    }
  } else if (space.tuple_vars.size() == 2) {
    for (size_t r0 = 0; r0 < sizes[0]; ++r0) {
      for (size_t r1 = 0; r1 < sizes[1]; ++r1) {
        if (space.tuple_vars[0] == space.tuple_vars[1] && r0 == r1) {
          continue;  // reflexive pairs carry no mining signal
        }
        v.rows[0] = static_cast<int>(r0);
        v.rows[1] = static_cast<int>(r1);
        emit();
      }
    }
  }
  return table;
}

size_t EvidenceTable::CountAll(const std::vector<int>& predicates) const {
  size_t count = 0;
  for (size_t row = 0; row < rows_.size(); ++row) {
    bool all = true;
    for (int p : predicates) {
      if (!Holds(row, p)) {
        all = false;
        break;
      }
    }
    if (all) ++count;
  }
  return count;
}

size_t EvidenceTable::CountAllPlus(const std::vector<int>& predicates,
                                   int extra) const {
  size_t count = 0;
  for (size_t row = 0; row < rows_.size(); ++row) {
    if (!Holds(row, extra)) continue;
    bool all = true;
    for (int p : predicates) {
      if (!Holds(row, p)) {
        all = false;
        break;
      }
    }
    if (all) ++count;
  }
  return count;
}

std::vector<uint32_t> EvidenceTable::RowsSatisfying(
    const std::vector<int>& predicates) const {
  std::vector<uint32_t> out;
  for (size_t row = 0; row < rows_.size(); ++row) {
    bool all = true;
    for (int p : predicates) {
      if (!Holds(row, p)) {
        all = false;
        break;
      }
    }
    if (all) out.push_back(static_cast<uint32_t>(row));
  }
  return out;
}

}  // namespace rock::discovery
