#include "src/ml/feature.h"

#include <cmath>

#include <algorithm>
#include "src/common/hash.h"
#include "src/common/strings.h"

namespace rock::ml {

FeatureVector PairFeaturizer::Extract(const std::vector<Value>& a,
                                      const std::vector<Value>& b) const {
  FeatureVector out(static_cast<size_t>(dimension()), 0.0);
  for (int i = 0; i < num_attributes_; ++i) {
    const Value& va = a[static_cast<size_t>(i)];
    const Value& vb = b[static_cast<size_t>(i)];
    double* slot = &out[static_cast<size_t>(i * kFeaturesPerAttribute)];
    if (va.is_null() && vb.is_null()) {
      slot[1] = 1.0;
      continue;
    }
    if (va.is_null() || vb.is_null()) continue;
    slot[0] = (va == vb) ? 1.0 : 0.0;
    if (va.type() == ValueType::kString && vb.type() == ValueType::kString) {
      const std::string& sa = va.AsString();
      const std::string& sb = vb.AsString();
      slot[2] = EditSimilarity(sa, sb);
      slot[3] = JaroWinkler(sa, sb);
      slot[4] = TokenJaccard(sa, sb);
    } else if (va.ComparableWith(vb)) {
      double x = va.AsDouble();
      double y = vb.AsDouble();
      double denom = std::max({std::abs(x), std::abs(y), 1.0});
      slot[5] = 1.0 - std::min(1.0, std::abs(x - y) / denom);
    }
  }
  return out;
}

FeatureVector HashedTextFeaturizer::Extract(std::string_view text) const {
  FeatureVector out(static_cast<size_t>(dimension_), 0.0);
  std::string lowered = ToLower(text);
  // Character n-grams over the padded string.
  std::string padded = "^" + lowered + "$";
  if (static_cast<int>(padded.size()) >= ngram_) {
    for (size_t i = 0; i + static_cast<size_t>(ngram_) <= padded.size(); ++i) {
      uint64_t h = Hash64(std::string_view(padded).substr(i, ngram_));
      out[h % static_cast<uint64_t>(dimension_)] += 1.0;
    }
  }
  // Whole tokens, offset by a salt so they do not collide with n-grams
  // systematically.
  for (const std::string& tok : Tokenize(lowered)) {
    uint64_t h = MixHash64(Hash64(tok) ^ 0x746F6B656Eull);
    out[h % static_cast<uint64_t>(dimension_)] += 1.0;
  }
  return out;
}

FeatureVector HashedTextFeaturizer::ExtractNormalized(
    std::string_view text) const {
  FeatureVector out = Extract(text);
  double norm = std::sqrt(Dot(out, out));
  if (norm > 0) {
    for (double& x : out) x /= norm;
  }
  return out;
}

double Dot(const FeatureVector& a, const FeatureVector& b) {
  double out = 0.0;
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) out += a[i] * b[i];
  return out;
}

double Cosine(const FeatureVector& a, const FeatureVector& b) {
  double na = std::sqrt(Dot(a, a));
  double nb = std::sqrt(Dot(b, b));
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

}  // namespace rock::ml
