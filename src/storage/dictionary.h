#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/storage/relation.h"

namespace rock {

/// Dense string interning: the first Intern of a string assigns the next
/// uint32 id, later calls return the same id, and per-id derived data
/// (tokenizations, similarity memos) can live in plain vectors indexed by
/// id. Not thread-safe; callers keep one per worker and Clear() it between
/// rounds.
class StringInterner {
 public:
  /// Id for `s`, assigning the next dense id on first sight.
  uint32_t Intern(std::string_view s);

  /// The string for a previously returned id.
  const std::string& Lookup(uint32_t id) const { return strings_[id]; }

  size_t size() const { return strings_.size(); }

  /// Rough heap footprint: string payloads (counted twice — the dense
  /// vector and the id map each hold a copy), per-entry map nodes, and the
  /// bucket array. Cross-check for the allocation-delta columns.
  size_t ApproxBytes() const {
    size_t bytes = strings_.capacity() * sizeof(std::string) +
                   ids_.bucket_count() * sizeof(void*);
    for (const std::string& s : strings_) {
      const size_t payload = s.capacity() > kSsoCapacity ? s.capacity() : 0;
      bytes += 2 * payload +
               sizeof(std::pair<const std::string, uint32_t>) + sizeof(void*);
    }
    return bytes;
  }

  /// Drops all ids; previously returned ids become invalid.
  void Clear();

 private:
  /// Typical SSO threshold: strings at or under this capacity allocate
  /// no heap payload.
  static constexpr size_t kSsoCapacity = 15;

  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, uint32_t, TransparentHash, std::equal_to<>>
      ids_;
  std::vector<std::string> strings_;
};

/// Dictionary encoding for one relation (paper §5.1: Crystal "transforms
/// attribute values to unique ids, and builds (a) a row-oriented copy ...
/// and (b) a column-oriented copy such that similar values are gathered
/// together"). Value ids are dense uint32 per attribute; the column copy
/// stores, per attribute, the row lists grouped by value id, ordered so
/// that similar values (by sort order, a stand-in for the paper's pretrained
/// clustering model) are adjacent.
class DictionaryEncodedRelation {
 public:
  /// Builds both copies from `relation`. Null gets its own value id 0.
  static DictionaryEncodedRelation Build(const Relation& relation);

  /// Number of distinct values (including null if present) in `attr`.
  size_t NumDistinct(int attr) const {
    return dictionaries_[static_cast<size_t>(attr)].size();
  }

  /// The value id of cell (row, attr) in the row-oriented copy.
  uint32_t CodeAt(size_t row, int attr) const {
    return rows_[row][static_cast<size_t>(attr)];
  }

  /// Decoded value for a value id.
  const Value& Decode(int attr, uint32_t code) const {
    return dictionaries_[static_cast<size_t>(attr)][code];
  }

  /// Value id for `v` in `attr`, or -1 when `v` never occurs there.
  int64_t Encode(int attr, const Value& v) const;

  /// Row indices holding value id `code` in `attr` (column-oriented copy).
  const std::vector<uint32_t>& RowsWithCode(int attr, uint32_t code) const {
    return postings_[static_cast<size_t>(attr)][code];
  }

  /// Codes of `attr` in similarity order (sorted values): adjacent codes in
  /// this list are the most similar values.
  const std::vector<uint32_t>& SimilarityOrder(int attr) const {
    return similarity_order_[static_cast<size_t>(attr)];
  }

  size_t num_rows() const { return rows_.size(); }

 private:
  // rows_[row][attr] = value id (row-oriented copy).
  std::vector<std::vector<uint32_t>> rows_;
  // dictionaries_[attr][code] = value.
  std::vector<std::vector<Value>> dictionaries_;
  // postings_[attr][code] = rows containing that code (column copy).
  std::vector<std::vector<std::vector<uint32_t>>> postings_;
  // similarity_order_[attr] = codes sorted by value.
  std::vector<std::vector<uint32_t>> similarity_order_;
};

}  // namespace rock

