#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/chase/chase.h"
#include "src/detect/detector.h"
#include "src/discovery/miner.h"
#include "src/discovery/topk.h"
#include "src/kg/graph.h"
#include "src/ml/library.h"
#include "src/obs/exporters.h"
#include "src/obs/server.h"
#include "src/rules/parser.h"
#include "src/storage/relation.h"

namespace rock::core {

/// System variants evaluated in the paper's ablations (§6):
///  - kRock: the full system;
///  - kNoMl (Rock_noML): ML predicates stripped from the rule set, no
///    ML-based conflict resolution or polynomial expressions;
///  - kSequential (Rock_seq): ER, CR, MI, TD chased one task at a time,
///    iterated to fixpoint;
///  - kNoChase (Rock_noC): each task executed once, no iteration.
enum class Variant { kRock, kNoMl, kSequential, kNoChase };

const char* VariantName(Variant variant);

/// Everything needed to instantiate the built-in model suite from (dirty)
/// data — the paper's pre-trained ML pool (§5.1).
struct ModelTrainingSpec {
  /// Threshold for the default entity-matching model "MER".
  double mer_threshold = 0.80;
  /// M_rank training targets: (relation name, attribute name). The first
  /// target's model registers as ml::kMrankModel.
  std::vector<std::pair<std::string, std::string>> rank_targets;
  /// Monotone numeric attributes per relation (critic knowledge for the
  /// creator-critic loop): larger value => at least as current.
  std::vector<std::pair<std::string, std::string>> monotone_attrs;
  /// Path-matcher synonyms: attribute name -> label path.
  std::vector<std::pair<std::string, std::vector<std::string>>>
      path_synonyms;
};

struct RockOptions {
  Variant variant = Variant::kRock;
  discovery::MinerOptions miner;
  chase::ChaseOptions chase;
  /// Detection knobs (ML blocking, ML score memo, fault plan). The
  /// parallel paths partition every rule by row slices of its first tuple
  /// variable (par::RunRound), so they take no block size.
  detect::DetectorOptions detector;
};

struct CorrectionResult {
  /// For kRock and kNoMl, the one pass's result. For the per-task variants
  /// (kSequential, kNoChase), fixes, applications and replayed units sum
  /// over the passes, `rounds` counts sweeps over the four tasks (1 for
  /// kNoChase), and `conflicts` is the engine's whole conflict list after
  /// the last pass.
  chase::ChaseResult chase;
  /// Chase passes executed (1 for kRock; per-task passes otherwise).
  int passes = 0;
};

/// The Rock system facade: model training, rule discovery, error
/// detection and error correction over one database (+ optional knowledge
/// graph), under a selected variant. This is the API the examples and the
/// benchmark harness drive.
class Rock {
 public:
  Rock(Database* db, kg::KnowledgeGraph* graph);
  Rock(Database* db, kg::KnowledgeGraph* graph, RockOptions options);

  const RockOptions& options() const { return options_; }
  ml::MlLibrary* models() { return &models_; }
  Database* db() { return db_; }

  /// Recovery knobs for the parallel paths: injects a deterministic fault
  /// schedule (see src/par/fault.h; not owned, may be nullptr to disable)
  /// and a retry discipline into both DetectErrorsParallel and the chase's
  /// RunParallel. Faulty runs produce output identical to fault-free runs:
  /// the pool retries transient failures with capped backoff, re-places a
  /// crashed worker's units via the hash ring, and the chase/detector
  /// replay anything the pool abandons from the round checkpoint.
  // ROCK_ANALYZE(no-span-ok: configuration setter, performs no traced work)
  void SetFaultInjection(const par::FaultPlan* plan,
                         par::RetryPolicy retry = par::RetryPolicy()) {
    options_.chase.pool = {retry, plan};
    options_.detector.pool = {retry, plan};
  }

  /// Trains and registers the built-in model suite (MER similarity
  /// matcher, M_c/M_d co-occurrence models over every relation, M_rank
  /// creator-critic, HER, path matcher). Under kNoMl it registers nothing:
  /// rules using models are stripped, and without M_c an MI conflict
  /// keeps the existing value.
  void TrainModels(const ModelTrainingSpec& spec);

  /// Parses curated rules in the textual rule language; under kNoMl,
  /// ML-predicate rules are dropped (the paper's Rock_noML).
  Result<std::vector<rules::Ree>> LoadRules(const std::string& text) const;

  /// Mines REE++s from the data over per-relation predicate spaces (pair
  /// and single shapes). Returns them ranked by the scoring model.
  std::vector<discovery::MinedRule> DiscoverRules(
      const discovery::PredicateSpaceOptions& space_options,
      size_t top_k = 0);

  /// Discovers a polynomial expression for every numeric attribute that
  /// fits well enough (§5.4) and keeps each as the rule
  ///   R(t0) ^ t0.A != poly(...) -> t0.A = poly(...)
  /// with id poly_<rel>_<attr>. Detection runs them after the caller's
  /// rules, correction before them. Discovers none under kNoMl.
  const std::vector<rules::Ree>& DiscoverPolynomials();

  /// Installs `rules` as the engine's *active rule set*: the set every
  /// session/batch-oriented entry point (DetectActive,
  /// DetectActiveIncremental — and rockd's detect verb through them)
  /// evaluates without the caller shipping rules per call. Parses with
  /// LoadRules, so kNoMl stripping applies.
  Status ActivateRules(const std::string& text);

  /// Installs pre-parsed rules as the active rule set.
  void ActivateRules(std::vector<rules::Ree> rules);

  /// The currently active rule set (empty before ActivateRules).
  const std::vector<rules::Ree>& active_rules() const {
    return active_rules_;
  }

  /// Batch ingest: appends `tuples` to relation `rel_index`, assigning
  /// globally fresh tids (returned in input order). This is the write-side
  /// entry point behind rockd's ingest verb: one call, many tuples, one
  /// span, so a served workload is batches rather than one-shot appends.
  /// Fails atomically per tuple (earlier tuples in the batch stay
  /// inserted; the returned status names the offending tuple).
  Result<std::vector<int64_t>> IngestBatch(int rel_index,
                                           std::vector<Tuple> tuples);

  /// Batch detection over the active rule set.
  detect::DetectionReport DetectActive() const;

  /// Incremental detection over ΔD with the active rule set.
  detect::DetectionReport DetectActiveIncremental(
      const std::vector<std::pair<int, int64_t>>& dirty) const;

  /// Batch error detection (the polynomial rules included).
  detect::DetectionReport DetectErrors(
      const std::vector<rules::Ree>& rules) const;

  /// Incremental detection over ΔD (the polynomial rules included); with
  /// every tuple in ΔD it equals DetectErrors.
  detect::DetectionReport DetectErrorsIncremental(
      const std::vector<rules::Ree>& rules,
      const std::vector<std::pair<int, int64_t>>& dirty) const;

  /// Parallel detection on `num_workers` worker threads, with schedule
  /// accounting. Returns the same report as DetectErrors at every worker
  /// count.
  detect::DetectionReport DetectErrorsParallel(
      const std::vector<rules::Ree>& rules, int num_workers,
      par::ScheduleReport* schedule) const;

  /// Error correction: chases the data with (rules, Γ) under the variant's
  /// execution policy. `ground_truth` tuples seed Γ.
  /// The returned engine owns the fix store (inspect or materialize); Rock
  /// keeps a reference to the most recent engine so Explain() can answer
  /// "why was this cell changed?" after the call returns.
  std::shared_ptr<chase::ChaseEngine> CorrectErrors(
      const std::vector<rules::Ree>& rules,
      const std::vector<std::pair<int, int64_t>>& ground_truth,
      CorrectionResult* result);

  /// Parallel correction: CorrectErrors, with the dominant first round of
  /// every chase pass under the worker pool, one unit per (rule, row
  /// slice), with any SetFaultInjection schedule applied and recovered.
  /// Produces the same fix store and passes as CorrectErrors under every
  /// variant; fills `schedule` with the last pass's pool accounting when
  /// non-null.
  std::shared_ptr<chase::ChaseEngine> CorrectErrorsParallel(
      const std::vector<rules::Ree>& rules,
      const std::vector<std::pair<int, int64_t>>& ground_truth,
      int num_workers, CorrectionResult* result,
      par::ScheduleReport* schedule = nullptr);

  /// Why-provenance of a fix from the last CorrectErrors run: the proof
  /// tree of the validated cell (rule + witness tuples + premise cells,
  /// recursively to ground truth or raw reads). Empty when no correction
  /// ran or the cell was never validated.
  obs::ProofTree Explain(int rel, int64_t tid, int attr,
                         int max_depth = 32) const;

  /// Why two eids denote the same entity: proof trees for every merge
  /// deduction on the union-find proof-forest path between them.
  obs::ProofTree ExplainMerge(int64_t eid_a, int64_t eid_b,
                              int max_depth = 32) const;

  /// Whole-run provenance aggregate of the last CorrectErrors run.
  obs::ProvenanceSummary ProvenanceSummary() const;

  /// The engine of the most recent CorrectErrors call (nullptr before the
  /// first call).
  std::shared_ptr<chase::ChaseEngine> last_engine() const {
    return last_engine_;
  }

  /// The polynomial rules currently enforced.
  const std::vector<rules::Ree>& poly_rules() const { return poly_rules_; }

  /// Point-in-time telemetry: every registered metric plus per-span timing
  /// aggregates for the instrumented phases (discovery, detection, chase,
  /// worker pool). Metrics are process-wide — concurrent Rock instances
  /// share one registry.
  obs::TelemetrySnapshot Telemetry() const;

  /// Writes Telemetry() as a JSON document to `path`.
  Status DumpJson(const std::string& path) const;

  /// Starts the live telemetry plane (obs::TelemetryServer) on `port`
  /// (0 = ephemeral; read back via telemetry_server_port()). The server
  /// snapshots the process-global registry/tracer per request, so it
  /// observes every Rock instance in the process. Fails if a server is
  /// already running on this instance or the port cannot be bound.
  Status StartTelemetryServer(int port);

  /// Stops the server started by StartTelemetryServer. Safe to call when
  /// none is running.
  void StopTelemetryServer();

  /// Bound port of the running telemetry server, or -1.
  int telemetry_server_port() const;

  /// Starts the process-global sampling CPU profiler (obs::CpuProfiler):
  /// per-thread interval timers at `sample_hz`, results served as folded
  /// stacks / JSON at /profile.folded and /profile.json on the telemetry
  /// server. FailedPrecondition if already running.
  Status StartProfiler(int sample_hz = 97);

  /// Stops the profiler; the captured profile stays queryable.
  Status StopProfiler();

  /// Starts the background stall watchdog (obs::StallWatchdog): spans
  /// open past `deadline_seconds` or queued units with no completions for
  /// that long dump a diagnostic bundle to stderr (and `dump_path` when
  /// non-empty). FailedPrecondition if already running.
  Status StartStallWatchdog(double deadline_seconds = 30.0,
                            const std::string& dump_path = "");

  /// Stops the watchdog. Safe to call when none is running.
  Status StopStallWatchdog();

 private:
  Database* db_;
  kg::KnowledgeGraph* graph_;
  RockOptions options_;
  ml::MlLibrary models_;
  std::vector<rules::Ree> active_rules_;
  std::vector<rules::Ree> poly_rules_;
  std::shared_ptr<chase::ChaseEngine> last_engine_;
  std::unique_ptr<obs::TelemetryServer> telemetry_server_;

  rules::EvalContext Context() const;
  /// The one detection body: violations of `rules`, then of the
  /// polynomial rules, over ΔD = `dirty` (all rows if null), on `workers`
  /// pool workers when set.
  detect::DetectionReport Detect(
      const std::vector<rules::Ree>& rules,
      const std::vector<std::pair<int, int64_t>>* dirty,
      std::optional<int> workers, par::ScheduleReport* schedule) const;
  /// The one correction body: Γ seeding, then the variant's chase passes
  /// over the polynomial rules followed by `rules`, each with a pooled
  /// round 0 when `workers` is set (`schedule` then holds the last pass's
  /// pool accounting).
  std::shared_ptr<chase::ChaseEngine> Correct(
      const std::vector<rules::Ree>& rules,
      const std::vector<std::pair<int, int64_t>>& ground_truth,
      std::optional<int> workers, CorrectionResult* result,
      par::ScheduleReport* schedule);
};

}  // namespace rock::core

