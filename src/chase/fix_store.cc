#include "src/chase/fix_store.h"

#include <algorithm>
#include <set>

#include "src/common/hash.h"
#include "src/common/strings.h"

namespace rock::chase {

int64_t UnionFind::Find(int64_t eid) const {
  // Pure walk, no path compression: Find must stay safe for concurrent
  // readers (see the thread contract in the header). Union keeps chains
  // one level deep by re-pointing the merged class's members eagerly, so
  // the walk is short anyway.
  int64_t root = eid;
  for (auto it = parent_.find(root); it != parent_.end();
       it = parent_.find(root)) {
    root = it->second;
  }
  return root;
}

int64_t UnionFind::Union(int64_t a, int64_t b) {
  int64_t ra = Find(a);
  int64_t rb = Find(b);
  if (ra == rb) return ra;
  // Smaller id becomes the canonical representative so the result is
  // independent of merge order.
  int64_t root = std::min(ra, rb);
  int64_t child = std::max(ra, rb);
  parent_[child] = root;
  // Eager compression (the mutating half of the thread contract): every
  // member of the absorbed class points directly at the new root.
  auto absorbed = members_.find(child);
  if (absorbed != members_.end()) {
    for (int64_t member : absorbed->second) parent_[member] = root;
  }
  auto& root_members = members_[root];
  if (root_members.empty()) root_members.push_back(root);
  auto child_it = members_.find(child);
  if (child_it != members_.end()) {
    root_members.insert(root_members.end(), child_it->second.begin(),
                        child_it->second.end());
    members_.erase(child_it);
  } else {
    root_members.push_back(child);
  }
  ++num_merges_;
  return root;
}

std::vector<int64_t> UnionFind::Members(int64_t eid) const {
  int64_t root = Find(eid);
  auto it = members_.find(root);
  if (it == members_.end()) return {root};
  return it->second;
}

bool TemporalOrderStore::Reaches(int64_t from, int64_t to,
                                 bool* via_strict) const {
  if (from == to) {
    *via_strict = false;
    return true;
  }
  // DFS tracking whether any strict edge appears on the path. A vertex may
  // need revisiting if first reached only via non-strict paths, so visited
  // states carry the strictness flag (2 states per vertex).
  std::set<std::pair<int64_t, bool>> visited;
  std::vector<std::pair<int64_t, bool>> stack = {{from, false}};
  bool reachable = false;
  bool strict_path = false;
  while (!stack.empty()) {
    auto [node, strict_so_far] = stack.back();
    stack.pop_back();
    if (!visited.insert({node, strict_so_far}).second) continue;
    auto it = out_.find(node);
    if (it == out_.end()) continue;
    for (const Edge& e : it->second) {
      bool next_strict = strict_so_far || e.strict;
      if (e.to == to) {
        reachable = true;
        if (next_strict) {
          *via_strict = true;
          return true;
        }
        strict_path = strict_path || next_strict;
        continue;
      }
      stack.push_back({e.to, next_strict});
    }
  }
  if (reachable) {
    *via_strict = false;
    return true;
  }
  return false;
}

Status TemporalOrderStore::Add(int64_t tid1, int64_t tid2, bool strict,
                               bool* added) {
  *added = false;
  if (tid1 == tid2) {
    if (strict) {
      return Status::Conflict("t ≺ t is unsatisfiable");
    }
    return Status::Ok();  // reflexive ⪯ is trivially true
  }
  bool via_strict = false;
  if (Reaches(tid1, tid2, &via_strict)) {
    // Already implied; a strict request is new information only if no
    // strict path exists yet.
    if (!strict || via_strict) return Status::Ok();
  }
  // Conflict check: does tid2 already reach tid1?
  bool back_strict = false;
  if (Reaches(tid2, tid1, &back_strict)) {
    if (strict || back_strict) {
      return Status::Conflict(
          StrFormat("temporal cycle through a strict order: %lld vs %lld",
                    static_cast<long long>(tid1),
                    static_cast<long long>(tid2)));
    }
    // Non-strict cycle: both directions ⪯ — the values are equally
    // current; allowed.
  }
  out_[tid1].push_back({tid2, strict});
  ++num_pairs_;
  *added = true;
  return Status::Ok();
}

std::optional<bool> TemporalOrderStore::Holds(int64_t tid1, int64_t tid2,
                                              bool strict) const {
  if (tid1 == tid2) return !strict;
  bool via_strict = false;
  if (Reaches(tid1, tid2, &via_strict)) {
    if (!strict) return true;
    if (via_strict) return true;
    return std::nullopt;  // ⪯ known, ≺ unknown
  }
  bool back_strict = false;
  if (Reaches(tid2, tid1, &back_strict) && back_strict) {
    // tid2 ≺ tid1 implies not (tid1 ⪯ tid2).
    return false;
  }
  return std::nullopt;
}

namespace {

const char* FixKindName(FixRecord::Kind kind) {
  switch (kind) {
    case FixRecord::Kind::kMergeEid:
      return "merge_eid";
    case FixRecord::Kind::kDistinctEid:
      return "distinct_eid";
    case FixRecord::Kind::kSetValue:
      return "set_value";
    case FixRecord::Kind::kTemporalOrder:
      return "temporal_order";
  }
  return "?";
}

const char* ConflictKindName(ConflictRecord::Kind kind) {
  switch (kind) {
    case ConflictRecord::Kind::kValue:
      return "value";
    case ConflictRecord::Kind::kEid:
      return "eid";
    case ConflictRecord::Kind::kTemporal:
      return "temporal";
  }
  return "?";
}

/// Serializes `v` as {type, text} such that Value::Parse(text, type)
/// reconstructs it (ToString() alone does not round-trip: time values
/// render with an "@" prefix Parse does not accept).
void AppendValueJson(const Value& v, obs::JsonWriter* w) {
  w->BeginObject();
  w->Key("type").String(ValueTypeName(v.type()));
  std::string text;
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      text = std::to_string(v.AsInt());
      break;
    case ValueType::kDouble:
      text = v.ToString();
      break;
    case ValueType::kString:
      text = v.AsString();
      break;
    case ValueType::kTime:
      text = std::to_string(v.AsTime());
      break;
  }
  w->Key("text").String(text);
  w->EndObject();
}

}  // namespace

std::string FixRecord::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("kind").String(FixKindName(kind));
  w.Key("rule_id").String(rule_id);
  w.Key("prov_id").Int(prov_id);
  switch (kind) {
    case Kind::kMergeEid:
    case Kind::kDistinctEid:
      w.Key("eid_a").Int(eid_a);
      w.Key("eid_b").Int(eid_b);
      break;
    case Kind::kSetValue:
      w.Key("rel").Int(rel);
      w.Key("attr").Int(attr);
      w.Key("eid").Int(eid);
      w.Key("tid").Int(tid1);
      w.Key("value");
      AppendValueJson(value, &w);
      break;
    case Kind::kTemporalOrder:
      w.Key("rel").Int(rel);
      w.Key("attr").Int(attr);
      w.Key("tid1").Int(tid1);
      w.Key("tid2").Int(tid2);
      w.Key("strict").Bool(strict);
      break;
  }
  w.EndObject();
  return w.str();
}

std::string ConflictRecord::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("kind").String(ConflictKindName(kind));
  w.Key("rule_id").String(rule_id);
  w.Key("description").String(description);
  w.Key("resolution").String(resolution);
  w.Key("prov_existing").Int(prov_existing);
  w.Key("prov_candidate").Int(prov_candidate);
  w.EndObject();
  return w.str();
}

std::string FixRecord::ToString() const {
  switch (kind) {
    case Kind::kMergeEid:
      return StrFormat("[%s] merge eid %lld = %lld", rule_id.c_str(),
                       static_cast<long long>(eid_a),
                       static_cast<long long>(eid_b));
    case Kind::kDistinctEid:
      return StrFormat("[%s] eid %lld != %lld", rule_id.c_str(),
                       static_cast<long long>(eid_a),
                       static_cast<long long>(eid_b));
    case Kind::kSetValue:
      return StrFormat("[%s] rel %d eid %lld attr %d := %s", rule_id.c_str(),
                       rel, static_cast<long long>(eid), attr,
                       value.ToString().c_str());
    case Kind::kTemporalOrder:
      return StrFormat("[%s] rel %d attr %d: %lld %s %lld", rule_id.c_str(),
                       rel, attr, static_cast<long long>(tid1),
                       strict ? "<" : "<=", static_cast<long long>(tid2));
  }
  return "?";
}

FixStore::FixStore(const Database* db) : db_(db) {
  for (size_t rel = 0; rel < db_->num_relations(); ++rel) {
    const Relation& relation = db_->relation(static_cast<int>(rel));
    for (size_t row = 0; row < relation.size(); ++row) {
      const Tuple& t = relation.tuple(row);
      eid_index_[t.eid].emplace_back(static_cast<int>(rel), t.tid);
    }
  }
}

FixStore::Checkpoint FixStore::TakeCheckpoint() const {
  Checkpoint cp;
  cp.fixes = fixes_.size();
  cp.value_cells = cells_.size();
  cp.merges = eids_.num_merges();
  cp.distinct = distinct_.size();
  cp.ground_truth_cells = ground_truth_cells_;
  cp.provenance_nodes = static_cast<int64_t>(prov_.size());
  return cp;
}

void FixStore::RegisterTuple(int rel, int64_t tid) {
  const Tuple* t = FindTuple(rel, tid);
  if (t == nullptr) return;
  auto& list = eid_index_[t->eid];
  if (std::find(list.begin(), list.end(), std::make_pair(rel, tid)) ==
      list.end()) {
    list.emplace_back(rel, tid);
  }
}

std::vector<std::pair<int, int64_t>> FixStore::TuplesOfEntity(
    int64_t eid) const {
  std::vector<std::pair<int, int64_t>> out;
  for (int64_t member : eids_.Members(eid)) {
    auto it = eid_index_.find(member);
    if (it == eid_index_.end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

std::vector<int64_t> FixStore::PatchedTids(int rel, int attr) const {
  std::vector<int64_t> out;
  for (auto it =
           changed_by_hash_.lower_bound(std::make_tuple(rel, attr, 0ull));
       it != changed_by_hash_.end() && std::get<0>(it->first) == rel &&
       std::get<1>(it->first) == attr;
       ++it) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FixStore::IndexChangedCell(int rel, int attr, const Tuple& t,
                                const Value& v) {
  // A cell validated to its raw value is already in the raw-value index.
  if (v == t.value(attr)) return;
  changed_by_hash_[std::make_tuple(rel, attr, v.Hash())].push_back(t.tid);
}

void FixStore::UnindexChangedCell(int rel, int attr, int64_t tid,
                                  const Value& v) {
  auto bucket = changed_by_hash_.find(std::make_tuple(rel, attr, v.Hash()));
  if (bucket == changed_by_hash_.end()) return;
  std::vector<int64_t>& tids = bucket->second;
  tids.erase(std::remove(tids.begin(), tids.end(), tid), tids.end());
  if (tids.empty()) changed_by_hash_.erase(bucket);
}

size_t FixStore::CellKeyHash::operator()(const CellKey& key) const {
  return HashCombine(
      HashCombine(MixHash64(static_cast<uint64_t>(key.rel)),
                  static_cast<uint64_t>(key.attr)),
      MixHash64(static_cast<uint64_t>(key.tid)));
}

const Tuple* FixStore::FindTuple(int rel, int64_t tid) const {
  const Relation& relation = db_->relation(rel);
  int row = relation.RowOfTid(tid);
  return row < 0 ? nullptr : &relation.tuple(static_cast<size_t>(row));
}

int64_t FixStore::CanonicalEid(int rel, int64_t tid) const {
  const Tuple* t = FindTuple(rel, tid);
  return t == nullptr ? -1 : eids_.Find(t->eid);
}

Status FixStore::AddGroundTruthTuple(int rel, int64_t tid) {
  const Tuple* t = FindTuple(rel, tid);
  if (t == nullptr) {
    return Status::NotFound(
        StrFormat("no tuple with tid %lld", static_cast<long long>(tid)));
  }
  for (size_t attr = 0; attr < t->values.size(); ++attr) {
    ROCK_RETURN_IF_ERROR(
        AddGroundTruthValue(rel, tid, static_cast<int>(attr),
                            t->values[attr]));
  }
  return Status::Ok();
}

Status FixStore::AddGroundTruthValue(int rel, int64_t tid, int attr,
                                     Value value) {
  bool changed = false;
  Status s = SetValue(rel, tid, attr, std::move(value), "Γ", &changed);
  if (s.ok() && changed) ++ground_truth_cells_;
  return s;
}

Status FixStore::AddGroundTruthOrder(int rel, int attr, int64_t tid1,
                                     int64_t tid2, bool strict) {
  bool changed = false;
  return AddTemporal(rel, attr, tid1, tid2, strict, "Γ", &changed);
}

Status FixStore::MergeEids(int64_t a, int64_t b, const std::string& rule_id,
                           bool* changed, const obs::Witness* witness) {
  *changed = false;
  int64_t ra = eids_.Find(a);
  int64_t rb = eids_.Find(b);
  if (ra == rb) return Status::Ok();
  int64_t lo = std::min(ra, rb), hi = std::max(ra, rb);
  if (distinct_.count({lo, hi}) > 0) {
    return Status::Conflict(
        StrFormat("eids %lld and %lld are validated as distinct entities",
                  static_cast<long long>(a), static_cast<long long>(b)));
  }
  eids_.Union(ra, rb);
  // Re-canonicalize distinctness constraints touching the merged classes.
  // When the merge folds two pairs into one key, the later pair's node
  // wins.
  std::map<std::pair<int64_t, int64_t>, int64_t> rebuilt;
  for (const auto& [pair, node] : distinct_) {
    int64_t cx = eids_.Find(pair.first);
    int64_t cy = eids_.Find(pair.second);
    if (cx == cy) {
      return Status::Conflict("merge collapses a distinctness constraint");
    }
    rebuilt[{std::min(cx, cy), std::max(cx, cy)}] = node;
  }
  distinct_ = std::move(rebuilt);
  prov_.LinkMerge(a, b,
                  AppendFix({.kind = FixRecord::Kind::kMergeEid,
                             .rule_id = rule_id,
                             .eid_a = a,
                             .eid_b = b},
                            witness));
  *changed = true;
  return Status::Ok();
}

Status FixStore::AddEidDistinct(int64_t a, int64_t b,
                                const std::string& rule_id, bool* changed,
                                const obs::Witness* witness) {
  *changed = false;
  int64_t ra = eids_.Find(a);
  int64_t rb = eids_.Find(b);
  if (ra == rb) {
    return Status::Conflict(
        StrFormat("eids %lld and %lld were already identified",
                  static_cast<long long>(a), static_cast<long long>(b)));
  }
  auto [it, inserted] =
      distinct_.try_emplace({std::min(ra, rb), std::max(ra, rb)}, -1);
  if (inserted) {
    it->second = AppendFix({.kind = FixRecord::Kind::kDistinctEid,
                            .rule_id = rule_id,
                            .eid_a = a,
                            .eid_b = b},
                           witness);
    *changed = true;
  }
  return Status::Ok();
}

Status FixStore::SetValue(int rel, int64_t tid, int attr, Value v,
                          const std::string& rule_id, bool* changed,
                          const obs::Witness* witness) {
  return WriteValue(rel, tid, attr, std::move(v), rule_id, witness,
                    /*replace=*/false, changed);
}

Status FixStore::ReplaceValue(int rel, int64_t tid, int attr, Value v,
                              const std::string& rule_id,
                              const obs::Witness* witness) {
  bool changed = false;
  return WriteValue(rel, tid, attr, std::move(v), rule_id, witness,
                    /*replace=*/true, &changed);
}

Status FixStore::WriteValue(int rel, int64_t tid, int attr, Value v,
                            const std::string& rule_id,
                            const obs::Witness* witness, bool replace,
                            bool* changed) {
  *changed = false;
  const Tuple* t = FindTuple(rel, tid);
  if (t == nullptr) {
    return Status::NotFound(
        StrFormat("no tuple with tid %lld", static_cast<long long>(tid)));
  }
  auto [it, fresh] = cells_.try_emplace(CellKey{rel, attr, tid});
  ValidatedCell& cell = it->second;
  if (!fresh) {
    if (!replace) {
      if (cell.value == v) return Status::Ok();
      return Status::Conflict(
          "attribute already validated to a different value: " +
          cell.value.ToString() + " vs " + v.ToString());
    }
    // Move the tid out of the superseded bucket so PatchedTidsEq never
    // serves it under a value it no longer holds.
    UnindexChangedCell(rel, attr, tid, cell.value);
  }
  IndexChangedCell(rel, attr, *t, v);
  cell.value = v;
  // The witness's premises see the cell's previous node (-1 when fresh).
  cell.node = AppendFix({.kind = FixRecord::Kind::kSetValue,
                         .rule_id = rule_id,
                         .rel = rel,
                         .attr = attr,
                         .eid = t->eid,
                         .value = std::move(v),
                         .tid1 = tid},
                        witness);
  *changed = true;
  return Status::Ok();
}

std::optional<Value> FixStore::ValidatedValue(int rel, int64_t tid,
                                              int attr) const {
  auto it = cells_.find(CellKey{rel, attr, tid});
  if (it == cells_.end()) return std::nullopt;
  return it->second.value;
}

bool FixStore::IsValidated(int rel, int64_t tid, int attr) const {
  return cells_.count(CellKey{rel, attr, tid}) > 0;
}

Status FixStore::AddTemporal(int rel, int attr, int64_t tid1, int64_t tid2,
                             bool strict, const std::string& rule_id,
                             bool* changed, const obs::Witness* witness) {
  *changed = false;
  bool added = false;
  Status s = temporal_[{rel, attr}].Add(tid1, tid2, strict, &added);
  if (!s.ok()) return s;
  if (added) {
    prov_by_temporal_[std::make_tuple(rel, attr, std::min(tid1, tid2),
                                      std::max(tid1, tid2))] =
        AppendFix({.kind = FixRecord::Kind::kTemporalOrder,
                   .rule_id = rule_id,
                   .rel = rel,
                   .attr = attr,
                   .tid1 = tid1,
                   .tid2 = tid2,
                   .strict = strict},
                  witness);
    *changed = true;
  }
  return Status::Ok();
}

int64_t FixStore::AppendFix(FixRecord record, const obs::Witness* witness) {
  record.prov_id = AddProvNode(
      record.rule_id == "Γ" ? obs::ProvKind::kGroundTruth : obs::ProvKind::kFix,
      record.rule_id, record.ToString(), witness);
  const int64_t node = record.prov_id;
  fixes_.push_back(std::move(record));
  return node;
}

int64_t FixStore::AddProvNode(obs::ProvKind kind, const std::string& rule_id,
                              std::string target,
                              const obs::Witness* witness) {
  obs::ProvenanceNode node;
  node.kind = kind;
  node.rule_id = rule_id;
  node.target = std::move(target);
  if (witness != nullptr) {
    node.witness = *witness;
    // Upgrade premise sources against the validated state: a cell another
    // deduction (or Γ) validated is a prior-fix / ground-truth premise
    // with an upstream edge to its node; everything else stays raw/oracle.
    for (obs::PremiseCell& cell : node.witness.premises) {
      if (cell.attr < 0) continue;  // eid / oracle pseudo-cells
      int64_t up = ProvOfCell(cell.rel, cell.tid, cell.attr);
      if (up < 0) continue;
      const obs::ProvenanceNode* up_node = prov_.Get(up);
      cell.source = up_node != nullptr &&
                            up_node->kind == obs::ProvKind::kGroundTruth
                        ? obs::PremiseSource::kGroundTruth
                        : obs::PremiseSource::kPriorFix;
      cell.upstream = up;
      node.upstream.push_back(up);
    }
  }
  return prov_.Add(std::move(node));
}

int64_t FixStore::ProvOfCell(int rel, int64_t tid, int attr) const {
  auto it = cells_.find(CellKey{rel, attr, tid});
  return it == cells_.end() ? -1 : it->second.node;
}

int64_t FixStore::ProvOfTemporal(int rel, int attr, int64_t tid1,
                                 int64_t tid2) const {
  auto it = prov_by_temporal_.find(std::make_tuple(
      rel, attr, std::min(tid1, tid2), std::max(tid1, tid2)));
  return it == prov_by_temporal_.end() ? -1 : it->second;
}

int64_t FixStore::ProvOfDistinct(int64_t a, int64_t b) const {
  int64_t ra = eids_.Find(a);
  int64_t rb = eids_.Find(b);
  auto it = distinct_.find({std::min(ra, rb), std::max(ra, rb)});
  return it == distinct_.end() ? -1 : it->second;
}

int64_t FixStore::ProvOfMerge(int64_t a, int64_t b) const {
  std::vector<int64_t> path = prov_.MergePath(a, b);
  return path.empty() ? -1 : path.back();
}

int64_t FixStore::AddConflictCandidate(const std::string& rule_id,
                                       std::string target,
                                       const obs::Witness* witness) {
  return AddProvNode(obs::ProvKind::kConflictCandidate, rule_id,
                     std::move(target), witness);
}

obs::ProofTree FixStore::ExplainCell(int rel, int64_t tid, int attr,
                                     int max_depth) const {
  return prov_.Expand(ProvOfCell(rel, tid, attr), max_depth);
}

obs::ProofTree FixStore::ExplainMerge(int64_t eid_a, int64_t eid_b,
                                      int max_depth) const {
  return prov_.ExplainMerge(eid_a, eid_b, max_depth);
}

std::vector<int64_t> FixStore::PatchedTidsEq(int rel, int attr,
                                             uint64_t value_hash) const {
  auto it = changed_by_hash_.find(std::make_tuple(rel, attr, value_hash));
  if (it == changed_by_hash_.end()) return {};
  return it->second;
}

std::vector<int64_t> FixStore::EidClass(int64_t eid) const {
  return eids_.Members(eid);
}

std::optional<Value> FixStore::GetCell(int rel, int64_t tid, int attr) const {
  return ValidatedValue(rel, tid, attr);
}

std::optional<int64_t> FixStore::GetEid(int rel, int64_t tid) const {
  int64_t eid = CanonicalEid(rel, tid);
  if (eid < 0) return std::nullopt;
  return eid;
}

std::optional<bool> FixStore::Holds(int rel, int attr, int64_t tid1,
                                    int64_t tid2, bool strict) const {
  auto it = temporal_.find({rel, attr});
  if (it == temporal_.end()) return std::nullopt;
  return it->second.Holds(tid1, tid2, strict);
}

}  // namespace rock::chase
