#include "src/ml/batch.h"

#include "src/common/hash.h"

namespace rock::ml {

MlScoreCache::Key MlScoreCache::MakeKey(std::string_view model_name,
                                        const std::vector<Value>& a,
                                        const std::vector<Value>& b) {
  // Two independently seeded chains over the same content; both must
  // collide for a wrong hit.
  uint64_t hi = Hash64(model_name);
  uint64_t lo = MixHash64(hi ^ 0x9E3779B97F4A7C15ull);
  hi = HashCombine(hi, a.size());
  lo = HashCombine(lo, MixHash64(a.size()));
  for (const Value& v : a) {
    const uint64_t vh = v.Hash();
    hi = HashCombine(hi, vh);
    lo = HashCombine(lo, MixHash64(vh));
  }
  // Separator so ({x,y}, {z}) and ({x}, {y,z}) cannot alias.
  hi = HashCombine(hi, 0x5eedull);
  lo = HashCombine(lo, 0xfeedull);
  for (const Value& v : b) {
    const uint64_t vh = v.Hash();
    hi = HashCombine(hi, vh);
    lo = HashCombine(lo, MixHash64(vh));
  }
  return Key{hi, lo};
}

bool MlScoreCache::Lookup(const Key& key, double* score) const {
  const Shard& shard = shards_[ShardOf(key)];
  common::MutexLock lock(shard.mu);
  auto it = shard.scores.find(key);
  if (it == shard.scores.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  *score = it->second;
  return true;
}

void MlScoreCache::Insert(const Key& key, double score) {
  Shard& shard = shards_[ShardOf(key)];
  common::MutexLock lock(shard.mu);
  if (shard.scores.emplace(key, score).second) {
    inserts_.fetch_add(1, std::memory_order_relaxed);
  }
}

void MlScoreCache::Clear() {
  for (Shard& shard : shards_) {
    common::MutexLock lock(shard.mu);
    shard.scores.clear();
  }
}

size_t MlScoreCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    common::MutexLock lock(shard.mu);
    total += shard.scores.size();
  }
  return total;
}

size_t MlScoreCache::ApproxBytes() const {
  size_t bytes = 0;
  for (const Shard& shard : shards_) {
    common::MutexLock lock(shard.mu);
    bytes += shard.scores.size() *
                 (sizeof(Key) + sizeof(double) + sizeof(void*)) +
             shard.scores.bucket_count() * sizeof(void*);
  }
  return bytes;
}

MlScoreCache::Stats MlScoreCache::GetStats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.inserts = inserts_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace rock::ml
