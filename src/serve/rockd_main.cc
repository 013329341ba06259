// rockd: the Rock online cleaning daemon.
//
// Boots a core::Rock engine over the generated bank workload (trained
// models, discovered polynomials, the curated rule set activated, and one
// correction pass so `explain` has provenance to answer from), then serves
// the src/serve/protocol.h wire protocol until a client sends `shutdown`.
//
//   rockd [--port=N] [--port-file=PATH] [--rows=N] [--error-rate=F]
//         [--seed=N] [--no-correct] [--metrics[=PORT]]
//         [--metrics-port-file=PATH]
//
// --port=0 (the default) binds an ephemeral port; --port-file writes the
// bound port for harnesses to poll. --metrics additionally starts the
// obs::TelemetryServer so /metrics exposes the rock_serve_* series while
// the daemon runs. There is no signal handler: the supported stop path is
// the protocol's own shutdown verb (graceful drain), keeping the signal
// seam untouched.

#include <cstdlib>
#include <memory>
#include <string>

#include "src/common/logging.h"
#include "src/core/engine.h"
#include "src/obs/exporters.h"
#include "src/obs/server.h"
#include "src/serve/server.h"
#include "src/workload/generator.h"

namespace {

struct RockdFlags {
  int port = 0;
  std::string port_file;
  int rows = 2000;
  double error_rate = 0.08;
  uint64_t seed = 17;
  bool correct = true;
  bool metrics = false;
  int metrics_port = 0;
  std::string metrics_port_file;
  bool ok = true;
};

RockdFlags ParseFlags(int argc, char** argv) {
  RockdFlags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    if (arg.rfind("--port=", 0) == 0) {
      flags.port = std::atoi(value("--port=").c_str());
    } else if (arg.rfind("--port-file=", 0) == 0) {
      flags.port_file = value("--port-file=");
    } else if (arg.rfind("--rows=", 0) == 0) {
      flags.rows = std::atoi(value("--rows=").c_str());
    } else if (arg.rfind("--error-rate=", 0) == 0) {
      flags.error_rate = std::atof(value("--error-rate=").c_str());
    } else if (arg.rfind("--seed=", 0) == 0) {
      flags.seed = std::strtoull(value("--seed=").c_str(), nullptr, 10);
    } else if (arg == "--no-correct") {
      flags.correct = false;
    } else if (arg == "--metrics") {
      flags.metrics = true;
    } else if (arg.rfind("--metrics=", 0) == 0) {
      flags.metrics = true;
      flags.metrics_port = std::atoi(value("--metrics=").c_str());
    } else if (arg.rfind("--metrics-port-file=", 0) == 0) {
      flags.metrics_port_file = value("--metrics-port-file=");
    } else {
      ROCK_LOG(kError) << "rockd: unknown flag " << arg;
      flags.ok = false;
    }
  }
  return flags;
}

}  // namespace

int main(int argc, char** argv) {
  using rock::core::ModelTrainingSpec;
  using rock::core::Rock;

  RockdFlags flags = ParseFlags(argc, argv);
  if (!flags.ok) return 2;

  rock::workload::GeneratorOptions data_options;
  data_options.rows = flags.rows;
  data_options.error_rate = flags.error_rate;
  data_options.seed = flags.seed;
  ROCK_LOG(kInfo) << "rockd: generating bank workload (rows=" << flags.rows
                  << " seed=" << flags.seed << ")";
  rock::workload::GeneratedData data =
      rock::workload::MakeBankData(data_options);

  Rock rock(&data.db, &data.graph);
  ModelTrainingSpec spec;
  spec.rank_targets = {{"Customer", "city"}};
  spec.monotone_attrs = {{"Customer", "points"}};
  spec.path_synonyms = {{"area", {"AreaOf"}}};
  rock.TrainModels(spec);
  rock.DiscoverPolynomials();
  rock::Status activated = rock.ActivateRules(data.rule_text);
  if (!activated.ok()) {
    ROCK_LOG(kError) << "rockd: rule activation failed: "
                     << activated.ToString();
    return 1;
  }
  if (flags.correct) {
    // One correction pass gives Explain() a fix store to answer from.
    rock::core::CorrectionResult correction;
    rock.CorrectErrors(rock.active_rules(), data.clean_tuples, &correction);
    ROCK_LOG(kInfo) << "rockd: correction pass done (converged="
                    << correction.chase.converged << ")";
  }

  std::unique_ptr<rock::obs::TelemetryServer> metrics_server;
  if (flags.metrics) {
    rock::obs::TelemetryServer::Options options;
    options.port = flags.metrics_port;
    options.build_info = "rockd";
    auto started = rock::obs::TelemetryServer::Start(options);
    if (!started.ok()) {
      ROCK_LOG(kError) << "rockd: telemetry server failed: "
                       << started.status().ToString();
      return 1;
    }
    metrics_server = std::move(started).value();
    if (!flags.metrics_port_file.empty()) {
      rock::obs::WriteFile(flags.metrics_port_file,
                           std::to_string(metrics_server->port()) + "\n");
    }
  }

  rock::serve::ServerOptions options;
  options.port = flags.port;
  auto server = rock::serve::RockServer::Start(&rock, options);
  if (!server.ok()) {
    ROCK_LOG(kError) << "rockd: " << server.status().ToString();
    return 1;
  }
  if (!flags.port_file.empty()) {
    rock::Status wrote = rock::obs::WriteFile(
        flags.port_file, std::to_string((*server)->port()) + "\n");
    if (!wrote.ok()) {
      ROCK_LOG(kError) << "rockd: port file: " << wrote.ToString();
      return 1;
    }
  }

  (*server)->WaitUntilStopped();
  return 0;
}
