#pragma once

// Building a ready-to-run Rock engine from a seed, through the public
// headers only: generated data, trained models, discovered polynomials and
// activated rules. Each call is one complete set-up on fresh data.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/workload/generator.h"

namespace perfbench {

enum class AppKind { kLogistics, kBank };

/// Base rows per application at full size; --scale divides them for the
/// smoke test.
struct Sizes {
  size_t logistics_rows = 700;
  size_t bank_rows = 300;
};

/// Wall time of each set-up step, in seconds.
struct SetupTimes {
  double generate_s = 0;
  double train_s = 0;
  double polynomials_s = 0;
  double activate_s = 0;

  double total() const {
    return generate_s + train_s + polynomials_s + activate_s;
  }
};

/// One engine over its own generated data. Not movable: the engine points
/// into `data`.
struct App {
  App() = default;
  App(const App&) = delete;
  App& operator=(const App&) = delete;

  rock::workload::GeneratedData data;
  std::unique_ptr<rock::core::Rock> rock;

  const std::vector<rock::rules::Ree>& rules() const {
    return rock->active_rules();
  }
};

/// Generates the app's data (error rate 0.08) and sets up an engine over
/// it. Logistics also activates `ml_only_er`, the pure-ML MER matching
/// rule whose candidate pairs come from LSH blocking.
std::unique_ptr<App> SetUpApp(AppKind kind, size_t rows, uint64_t seed,
                              SetupTimes* times);

/// Timed set-ups cycle through this many data sets derived from the run's
/// seed. Set-up time depends on the generated data (Bank model training
/// takes 0.22-0.35 s depending on the seed), so with one draw of data a
/// run's setup_s would say more about its seed than about the program.
constexpr size_t kSetupDataSets = 4;

/// The seed of data set `data_set` (0 to kSetupDataSets - 1) of a run.
uint64_t DataSetSeed(uint64_t seed, size_t data_set);

/// One more complete set-up, timed and then discarded: appends its step
/// times to `setups`. The n-th set-up of `setups` generates data set
/// n % kSetupDataSets; data set 0 is the run's own seed. The measured
/// workloads interleave these with their ops so set-up samples span the
/// whole run, like the op samples.
void TimedSetUp(AppKind kind, size_t rows, uint64_t seed,
                std::vector<SetupTimes>* setups);

/// The median of each data set's values, averaged over the data sets;
/// values[n] belongs to data set n % kSetupDataSets.
double MeanOfDataSetMedians(const std::vector<double>& values);

/// One step's set-up time (the total when `step` is null), as
/// MeanOfDataSetMedians of the set-ups.
double SetupStep(const std::vector<SetupTimes>& setups,
                 double SetupTimes::*step);

}  // namespace perfbench
