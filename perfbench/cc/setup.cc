#include "setup.h"

#include <cstdio>
#include <cstdlib>

#include "src/rules/parser.h"
#include "util.h"

namespace perfbench {

using rock::core::ModelTrainingSpec;
using rock::core::Rock;

std::unique_ptr<App> SetUpApp(AppKind kind, size_t rows, uint64_t seed,
                              SetupTimes* times) {
  auto app = std::make_unique<App>();
  rock::workload::GeneratorOptions options;
  options.rows = rows;
  options.error_rate = 0.08;
  options.seed = seed;
  const bool logistics = kind == AppKind::kLogistics;

  times->generate_s = Timed("workload.generate", [&] {
    app->data = logistics ? rock::workload::MakeLogisticsData(options)
                          : rock::workload::MakeBankData(options);
  });
  app->rock = std::make_unique<Rock>(&app->data.db, &app->data.graph);

  ModelTrainingSpec spec;
  if (logistics) {
    spec.path_synonyms = {{"area", {"AreaOf"}}, {"city", {"CityOf"}}};
  } else {
    spec.rank_targets = {{"Customer", "city"}};
    spec.monotone_attrs = {{"Customer", "points"}};
  }
  times->train_s =
      Timed("core.train_models", [&] { app->rock->TrainModels(spec); });
  times->polynomials_s = Timed("core.discover_polynomials",
                               [&] { app->rock->DiscoverPolynomials(); });

  times->activate_s = Timed("core.activate_rules", [&] {
    auto rules = app->rock->LoadRules(app->data.rule_text);
    if (!rules.ok()) {
      std::fprintf(stderr, "rule load failed: %s\n",
                   rules.status().ToString().c_str());
      std::exit(1);
    }
    if (logistics) {
      auto ml_only = rock::rules::ParseRee(
          "Shipment(t0) ^ Shipment(t1) ^ MER(t0[recipient], t1[recipient]) "
          "-> t0.eid = t1.eid",
          app->data.db.schema());
      if (!ml_only.ok()) {
        std::fprintf(stderr, "ml_only_er parse failed: %s\n",
                     ml_only.status().ToString().c_str());
        std::exit(1);
      }
      ml_only->id = "ml_only_er";
      rules->push_back(std::move(*ml_only));
    }
    app->rock->ActivateRules(std::move(*rules));
  });
  return app;
}

uint64_t DataSetSeed(uint64_t seed, size_t data_set) {
  return seed + data_set * 1000003u;
}

void TimedSetUp(AppKind kind, size_t rows, uint64_t seed,
                std::vector<SetupTimes>* setups) {
  SetupTimes times;
  SetUpApp(kind, rows, DataSetSeed(seed, setups->size() % kSetupDataSets),
           &times);
  setups->push_back(times);
}

double MeanOfDataSetMedians(const std::vector<double>& values) {
  std::vector<std::vector<double>> by_data_set(kSetupDataSets);
  for (size_t n = 0; n < values.size(); ++n) {
    by_data_set[n % kSetupDataSets].push_back(values[n]);
  }
  double sum = 0;
  size_t data_sets = 0;
  for (const std::vector<double>& data_set : by_data_set) {
    if (data_set.empty()) continue;
    sum += Median(data_set);
    ++data_sets;
  }
  return data_sets == 0 ? 0 : sum / static_cast<double>(data_sets);
}

double SetupStep(const std::vector<SetupTimes>& setups,
                 double SetupTimes::*step) {
  std::vector<double> values;
  for (const SetupTimes& s : setups) {
    values.push_back(step == nullptr ? s.total() : s.*step);
  }
  return MeanOfDataSetMedians(values);
}

}  // namespace perfbench
