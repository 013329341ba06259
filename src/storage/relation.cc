#include "src/storage/relation.h"

#include "src/common/strings.h"

#include <algorithm>

namespace rock {

Status Relation::Append(Tuple tuple) {
  if (tuple.values.size() != schema_.num_attributes()) {
    return Status::InvalidArgument(
        StrFormat("tuple arity mismatch for %s: expected %zu got %zu",
                  schema_.name().c_str(), schema_.num_attributes(),
                  tuple.values.size()));
  }
  for (size_t i = 0; i < tuple.values.size(); ++i) {
    const Value& v = tuple.values[i];
    if (v.is_null()) continue;
    ValueType expected = schema_.attributes()[i].type;
    bool ok = v.type() == expected ||
              (expected == ValueType::kDouble && v.type() == ValueType::kInt);
    if (!ok) {
      return Status::InvalidArgument(
          "type mismatch for " + schema_.name() + "." +
          schema_.attributes()[i].name + ": expected " +
          ValueTypeName(expected) + " got " + ValueTypeName(v.type()));
    }
  }
  if (!tuple.timestamps.empty() &&
      tuple.timestamps.size() != schema_.num_attributes()) {
    return Status::InvalidArgument("timestamp arity mismatch for " +
                                   schema_.name());
  }
  if (tuple.tid < 0) {
    tuple.tid = static_cast<int64_t>(tuples_.size());
  }
  // Keep tid_index_ sorted on the write side so RowOfTid stays a pure
  // read: concurrent lookups under a shared lock (the rockd detect path)
  // must not race on a lazy re-sort. Database::Insert hands out monotonic
  // tids, so the common case is an O(1) append; only preassigned
  // out-of-order tids pay for the sorted insert.
  std::pair<int64_t, int> key(tuple.tid, static_cast<int>(tuples_.size()));
  if (tid_index_.empty() || tid_index_.back() < key) {
    tid_index_.push_back(key);
  } else {
    tid_index_.insert(
        std::lower_bound(tid_index_.begin(), tid_index_.end(), key), key);
  }
  tuples_.push_back(std::move(tuple));
  return Status::Ok();
}

int Relation::RowOfTid(int64_t tid) const {
  auto it = std::lower_bound(
      tid_index_.begin(), tid_index_.end(), std::make_pair(tid, -1));
  if (it != tid_index_.end() && it->first == tid) return it->second;
  return -1;
}

Database::Database(DatabaseSchema schema) : schema_(std::move(schema)) {
  relations_.reserve(schema_.num_relations());
  for (const Schema& rel : schema_.relations()) {
    relations_.emplace_back(rel);
  }
}

Relation* Database::FindRelation(std::string_view name) {
  int idx = schema_.RelationIndex(name);
  return idx < 0 ? nullptr : &relations_[static_cast<size_t>(idx)];
}

const Relation* Database::FindRelation(std::string_view name) const {
  int idx = schema_.RelationIndex(name);
  return idx < 0 ? nullptr : &relations_[static_cast<size_t>(idx)];
}

Result<int64_t> Database::Insert(int rel_index, Tuple tuple) {
  if (rel_index < 0 || rel_index >= static_cast<int>(relations_.size())) {
    return Status::OutOfRange(
        StrFormat("no such relation index: %d", rel_index));
  }
  tuple.tid = next_tid_++;
  if (tuple.eid < 0) tuple.eid = tuple.tid;
  int64_t tid = tuple.tid;
  Status s = relations_[static_cast<size_t>(rel_index)].Append(std::move(tuple));
  if (!s.ok()) {
    --next_tid_;
    return s;
  }
  return tid;
}

size_t Database::TotalTuples() const {
  size_t total = 0;
  for (const Relation& rel : relations_) total += rel.size();
  return total;
}

}  // namespace rock
