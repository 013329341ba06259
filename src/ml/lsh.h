#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ml/feature.h"
#include "src/storage/value.h"

namespace rock::ml {

/// MinHash signature of a token set: `num_hashes` independent minima.
/// Jaccard-similar sets agree on a proportional fraction of slots.
class MinHash {
 public:
  explicit MinHash(int num_hashes = 32, uint64_t seed = 0xC0FFEE);

  std::vector<uint64_t> Signature(const std::vector<std::string>& tokens) const;

  /// Fraction of agreeing slots — an unbiased Jaccard estimate.
  static double Similarity(const std::vector<uint64_t>& a,
                           const std::vector<uint64_t>& b);

  int num_hashes() const { return num_hashes_; }

 private:
  int num_hashes_;
  std::vector<uint64_t> salts_;
};

/// SimHash of a weighted feature vector: one bit per hyperplane. Hamming
/// distance tracks cosine distance.
uint64_t SimHash64(const FeatureVector& features, uint64_t seed = 0x51ABull);

/// LSH blocking index over records described by token sets (paper §5.3/§5.4:
/// "a blocking algorithm is first evoked to retrieve a candidate set of
/// potentially matching tuple ID pairs"). Signatures are cut into bands;
/// records sharing any band land in the same block and become candidates.
class LshBlocker {
 public:
  struct Options {
    int num_hashes = 32;
    // Rows per band; bands = num_hashes / band_size. Two rows per band keeps
    // recall high for moderately similar pairs (P(candidate | jaccard 0.5)
    // ≈ 0.99 with 16 bands) while still pruning the cross product.
    int band_size = 2;
    uint64_t seed = 0xB10C;
  };

  LshBlocker();
  explicit LshBlocker(Options options);

  /// Indexes a record (e.g. a tuple id) under its token set.
  void Add(int64_t id, const std::vector<std::string>& tokens);

  /// Candidate ids sharing at least one band with `tokens` (excluding
  /// nothing; the caller filters self-pairs).
  std::vector<int64_t> Candidates(const std::vector<std::string>& tokens) const;

  size_t size() const { return num_records_; }

 private:
  Options options_;
  MinHash minhash_;
  // band index -> (band hash -> ids)
  std::vector<std::unordered_map<uint64_t, std::vector<int64_t>>> bands_;
  size_t num_records_ = 0;

  std::vector<uint64_t> BandHashes(
      const std::vector<std::string>& tokens) const;
};

/// Tokens used for blocking a tuple's attribute values: the union of
/// Tokenize() over the selected attributes' string forms.
std::vector<std::string> BlockingTokens(const std::vector<Value>& values);

}  // namespace rock::ml

