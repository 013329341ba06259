#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/storage/value.h"

namespace rock::ml {

/// Dense feature vector used across the classical ML models.
using FeatureVector = std::vector<double>;

/// Features comparing two attribute vectors t[A] and s[B] (pairwise
/// compatible, paper §2.1). Per attribute pair it emits:
///   [exact match, both null, edit sim, jaro-winkler, token jaccard,
///    normalized numeric diff]
/// Non-applicable slots are 0. The layout is fixed so trained weights can
/// be serialized independently of the data.
class PairFeaturizer {
 public:
  /// Number of features per attribute pair.
  static constexpr int kFeaturesPerAttribute = 6;

  explicit PairFeaturizer(int num_attributes)
      : num_attributes_(num_attributes) {}

  int num_attributes() const { return num_attributes_; }
  int dimension() const { return num_attributes_ * kFeaturesPerAttribute; }

  /// Precondition: a.size() == b.size() == num_attributes().
  FeatureVector Extract(const std::vector<Value>& a,
                        const std::vector<Value>& b) const;

 private:
  int num_attributes_;
};

/// Hashed character n-gram + token features of a single string, projected
/// into a fixed dimension ("hashing trick"). Stand-in for the paper's
/// text-embedding encoders: strings with shared character structure land on
/// shared buckets.
class HashedTextFeaturizer {
 public:
  explicit HashedTextFeaturizer(int dimension = 256, int ngram = 3)
      : dimension_(dimension), ngram_(ngram) {}

  int dimension() const { return dimension_; }

  FeatureVector Extract(std::string_view text) const;

  /// L2-normalized variant; zero vector stays zero.
  FeatureVector ExtractNormalized(std::string_view text) const;

 private:
  int dimension_;
  int ngram_;
};

/// Cosine similarity of two equal-length vectors; 0 when either is zero.
double Cosine(const FeatureVector& a, const FeatureVector& b);

/// Dot product of two equal-length vectors.
double Dot(const FeatureVector& a, const FeatureVector& b);

}  // namespace rock::ml

