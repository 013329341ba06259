#include "src/ml/lsh.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/common/strings.h"

namespace rock::ml {

MinHash::MinHash(int num_hashes, uint64_t seed) : num_hashes_(num_hashes) {
  salts_.reserve(static_cast<size_t>(num_hashes));
  uint64_t state = seed;
  for (int i = 0; i < num_hashes; ++i) {
    state = MixHash64(state + 0x9E3779B97F4A7C15ull);
    salts_.push_back(state);
  }
}

std::vector<uint64_t> MinHash::Signature(
    const std::vector<std::string>& tokens) const {
  std::vector<uint64_t> sig(static_cast<size_t>(num_hashes_),
                            UINT64_MAX);
  for (const std::string& tok : tokens) {
    uint64_t base = Hash64(tok);
    for (int i = 0; i < num_hashes_; ++i) {
      uint64_t h = MixHash64(base ^ salts_[static_cast<size_t>(i)]);
      sig[static_cast<size_t>(i)] =
          std::min(sig[static_cast<size_t>(i)], h);
    }
  }
  return sig;
}

double MinHash::Similarity(const std::vector<uint64_t>& a,
                           const std::vector<uint64_t>& b) {
  size_t n = std::min(a.size(), b.size());
  if (n == 0) return 0.0;
  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) {
    if (a[i] == b[i]) ++matches;
  }
  return static_cast<double>(matches) / static_cast<double>(n);
}

uint64_t SimHash64(const FeatureVector& features, uint64_t seed) {
  double acc[64] = {0};
  for (size_t i = 0; i < features.size(); ++i) {
    if (features[i] == 0.0) continue;
    uint64_t bits = MixHash64(seed ^ (i * 0x9E3779B97F4A7C15ull));
    for (int b = 0; b < 64; ++b) {
      acc[b] += ((bits >> b) & 1) ? features[i] : -features[i];
    }
  }
  uint64_t out = 0;
  for (int b = 0; b < 64; ++b) {
    if (acc[b] > 0) out |= (1ull << b);
  }
  return out;
}

LshBlocker::LshBlocker() : LshBlocker(Options()) {}

LshBlocker::LshBlocker(Options options)
    : options_(options), minhash_(options.num_hashes, options.seed) {
  int num_bands =
      std::max(1, options_.num_hashes / std::max(1, options_.band_size));
  bands_.resize(static_cast<size_t>(num_bands));
}

std::vector<uint64_t> LshBlocker::BandHashes(
    const std::vector<std::string>& tokens) const {
  std::vector<uint64_t> sig = minhash_.Signature(tokens);
  std::vector<uint64_t> out;
  out.reserve(bands_.size());
  for (size_t band = 0; band < bands_.size(); ++band) {
    uint64_t h = MixHash64(band + 1);
    for (int r = 0; r < options_.band_size; ++r) {
      size_t idx = band * static_cast<size_t>(options_.band_size) +
                   static_cast<size_t>(r);
      if (idx < sig.size()) h = HashCombine(h, sig[idx]);
    }
    out.push_back(h);
  }
  return out;
}

void LshBlocker::Add(int64_t id, const std::vector<std::string>& tokens) {
  std::vector<uint64_t> hashes = BandHashes(tokens);
  for (size_t band = 0; band < bands_.size(); ++band) {
    bands_[band][hashes[band]].push_back(id);
  }
  ++num_records_;
}

std::vector<int64_t> LshBlocker::Candidates(
    const std::vector<std::string>& tokens) const {
  std::vector<uint64_t> hashes = BandHashes(tokens);
  std::vector<int64_t> out;
  for (size_t band = 0; band < bands_.size(); ++band) {
    auto it = bands_[band].find(hashes[band]);
    if (it == bands_[band].end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::string> BlockingTokens(const std::vector<Value>& values) {
  std::vector<std::string> tokens;
  for (const Value& v : values) {
    if (v.is_null()) continue;
    for (std::string& tok : Tokenize(v.ToString())) {
      tokens.push_back(std::move(tok));
    }
  }
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

}  // namespace rock::ml
