#include "src/ml/library.h"

#include <algorithm>

#include "src/common/strings.h"
#include "src/ml/lsh.h"

namespace rock::ml {

std::vector<std::string> PairClassifier::BlockTokens(
    const std::vector<Value>& a) const {
  return BlockingTokens(a);
}

double SimilarityClassifier::Score(const std::vector<Value>& a,
                                   const std::vector<Value>& b) const {
  size_t n = std::min(a.size(), b.size());
  if (n == 0) return 0.0;
  double total = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < n; ++i) {
    const Value& va = a[i];
    const Value& vb = b[i];
    if (va.is_null() || vb.is_null()) continue;
    ++counted;
    if (va.type() == ValueType::kString && vb.type() == ValueType::kString) {
      total += 0.5 * JaroWinkler(va.AsString(), vb.AsString()) +
               0.5 * SoftTokenSimilarity(va.AsString(), vb.AsString());
    } else if (va.ComparableWith(vb)) {
      double x = va.AsDouble();
      double y = vb.AsDouble();
      double denom = std::max({std::abs(x), std::abs(y), 1.0});
      total += 1.0 - std::min(1.0, std::abs(x - y) / denom);
    } else {
      total += (va == vb) ? 1.0 : 0.0;
    }
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

Status LogisticPairClassifier::Train(
    const std::vector<std::pair<std::vector<Value>, std::vector<Value>>>&
        pairs,
    const std::vector<int>& labels) {
  if (pairs.size() != labels.size()) {
    return Status::InvalidArgument("pairs/labels size mismatch");
  }
  if (pairs.empty()) {
    return Status::InvalidArgument("no training pairs");
  }
  std::vector<FeatureVector> features;
  features.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    if (static_cast<int>(a.size()) != featurizer_.num_attributes() ||
        static_cast<int>(b.size()) != featurizer_.num_attributes()) {
      return Status::InvalidArgument("attribute vector arity mismatch");
    }
    features.push_back(featurizer_.Extract(a, b));
  }
  model_.Train(features, labels);
  return Status::Ok();
}

double LogisticPairClassifier::Score(const std::vector<Value>& a,
                                     const std::vector<Value>& b) const {
  return model_.Score(featurizer_.Extract(a, b));
}

Status BoostedPairClassifier::Train(
    const std::vector<std::pair<std::vector<Value>, std::vector<Value>>>&
        pairs,
    const std::vector<int>& labels) {
  if (pairs.size() != labels.size()) {
    return Status::InvalidArgument("pairs/labels size mismatch");
  }
  if (pairs.empty()) {
    return Status::InvalidArgument("no training pairs");
  }
  std::vector<FeatureVector> features;
  features.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    if (static_cast<int>(a.size()) != featurizer_.num_attributes() ||
        static_cast<int>(b.size()) != featurizer_.num_attributes()) {
      return Status::InvalidArgument("attribute vector arity mismatch");
    }
    features.push_back(featurizer_.Extract(a, b));
  }
  std::vector<double> targets(labels.begin(), labels.end());
  model_.Train(features, targets);
  return Status::Ok();
}

double BoostedPairClassifier::Score(const std::vector<Value>& a,
                                    const std::vector<Value>& b) const {
  const FeatureVector features = featurizer_.Extract(a, b);
  return std::clamp(model_.PredictRow(features.data()), 0.0, 1.0);
}

void MlLibrary::RegisterPair(const std::string& name,
                             std::shared_ptr<PairClassifier> model) {
  pairs_[name] = std::move(model);
}
void MlLibrary::RegisterRanker(const std::string& name,
                               std::shared_ptr<TemporalRanker> model) {
  rankers_[name] = std::move(model);
}
void MlLibrary::RegisterCorrelation(const std::string& name,
                                    std::shared_ptr<CorrelationModel> model) {
  correlations_[name] = std::move(model);
}
void MlLibrary::RegisterPredictor(const std::string& name,
                                  std::shared_ptr<ValuePredictor> model) {
  predictors_[name] = std::move(model);
}
void MlLibrary::RegisterHer(std::shared_ptr<HerModel> model) {
  her_ = std::move(model);
}
void MlLibrary::RegisterPathMatcher(std::shared_ptr<PathMatchModel> model) {
  path_matcher_ = std::move(model);
}

const PairClassifier* MlLibrary::FindPair(const std::string& name) const {
  auto it = pairs_.find(name);
  return it == pairs_.end() ? nullptr : it->second.get();
}
const TemporalRanker* MlLibrary::FindRanker(const std::string& name) const {
  auto it = rankers_.find(name);
  return it == rankers_.end() ? nullptr : it->second.get();
}
const CorrelationModel* MlLibrary::FindCorrelation(
    const std::string& name) const {
  auto it = correlations_.find(name);
  return it == correlations_.end() ? nullptr : it->second.get();
}
const ValuePredictor* MlLibrary::FindPredictor(const std::string& name) const {
  auto it = predictors_.find(name);
  return it == predictors_.end() ? nullptr : it->second.get();
}

std::vector<std::string> MlLibrary::PairModelNames() const {
  std::vector<std::string> out;
  out.reserve(pairs_.size());
  for (const auto& [name, model] : pairs_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace rock::ml
