#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/storage/value.h"

namespace rock::ml {

/// Sharded, double-checked memo of ML predicate scores keyed by
/// (model, pair-content) hash, for callers that score the same pairs
/// again (a nested-loop baseline, a traced run counting reuse): look up
/// under the shard lock, compute outside any lock, first insert wins. Keys
/// hash the *values* of both attribute vectors, so a hit returns the score
/// of a bitwise-identical pair regardless of which rule, worker or overlay
/// produced it, and the cached double is exactly what Score would
/// recompute. The evaluator runs without one unless its caller passes it.
///
/// Keys are 128-bit (two independently seeded 64-bit mixes), making
/// accidental collisions negligible at any realistic pair count.
class MlScoreCache {
 public:
  struct Key {
    uint64_t hi = 0;
    uint64_t lo = 0;
    bool operator==(const Key& o) const { return hi == o.hi && lo == o.lo; }
  };

  /// Hash functor for Key.
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(k.hi ^ (k.lo * 0x9E3779B97F4A7C15ull));
    }
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
  };

  MlScoreCache() = default;
  MlScoreCache(const MlScoreCache&) = delete;
  MlScoreCache& operator=(const MlScoreCache&) = delete;

  /// Content hash of (model name, a-values, b-values).
  static Key MakeKey(std::string_view model_name, const std::vector<Value>& a,
                     const std::vector<Value>& b);

  /// True and sets *score on a hit. Counts a hit or miss either way.
  bool Lookup(const Key& key, double* score) const;

  /// First insert wins; later inserts of the same key are ignored.
  void Insert(const Key& key, double score);

  void Clear();
  size_t size() const;
  Stats GetStats() const;

  /// Rough heap footprint across shards (entries plus bucket arrays).
  /// Exported as the rock_detect_ml_cache_bytes gauge.
  size_t ApproxBytes() const;

 private:
  struct Shard {
    mutable common::Mutex mu;
    std::unordered_map<Key, double, KeyHash> scores ROCK_GUARDED_BY(mu);
  };

  static constexpr size_t kNumShards = 16;
  static size_t ShardOf(const Key& key) { return key.hi % kNumShards; }

  Shard shards_[kNumShards];
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
};

}  // namespace rock::ml
