#ifndef AUTOBI_CORE_AUTO_BI_H_
#define AUTOBI_CORE_AUTO_BI_H_

#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/bi_model.h"
#include "core/candidates.h"
#include "core/graph_builder.h"
#include "core/local_model.h"
#include "graph/kmca_cc.h"

namespace autobi {

// The three Auto-BI variants evaluated in Section 5.
enum class AutoBiMode {
  kFull,           // Auto-BI: precision mode + recall mode.
  kPrecisionOnly,  // Auto-BI-P: k-MCA-CC backbone only.
  kSchemaOnly,     // Auto-BI-S: full pipeline on metadata-only features.
};

struct AutoBiOptions {
  AutoBiMode mode = AutoBiMode::kFull;
  // Worker threads for the data-parallel pipeline stages: profiling/UCC,
  // IND, local inference, and the global solve (the per-component fan-out,
  // or a lone component's wave search). ResolveThreads semantics: 0 =
  // AUTOBI_THREADS env or hardware concurrency, 1 = serial. Predictions are
  // bit-identical at any thread count (see ARCHITECTURE.md, "Concurrency
  // model").
  int threads = 0;
  // Virtual-edge probability: penalty p = -log(this). 0.5 is the calibrated
  // coin-toss default (Section 4.3.2, Figure 9(a)).
  double penalty_probability = 0.5;
  // Recall-mode threshold τ (Section 4.3.3, Figure 9(b)).
  double tau = 0.5;
  // --- Ablation switches (Figure 8). Defaults are the full system.
  bool enforce_fk_once = true;    // false => "no-FK-once-constraint".
  bool use_precision_mode = true; // false => "no-precision-mode".
  bool lc_only = false;           // true  => "LC-only".
  CandidateGenOptions candidates;
  // penalty_weight, enforce_fk_once and threads are overwritten.
  KmcaCcOptions solver;
  // Optional cross-request cache (core/predict_cache.h; not owned, must
  // outlive the predictor). Candidate generation reuses it for unchanged
  // tables (profiles) and unchanged table pairs (candidates and calibrated
  // scores), and the predictor additionally memoizes whole healthy solves
  // keyed by the content hash of the table set plus an options/budget
  // fingerprint: a byte-identical re-submission returns the cached result
  // without running the pipeline. Hits are bit-identical to recomputation
  // (models, graph, solver stats); only timing and work counters differ.
  // Degraded runs (deadline/cancel trips, budgets, faults) populate
  // neither the pair nor the solve memo.
  PredictCache* cache = nullptr;
};

// Per-stage latency (seconds) matching Figure 5(b)'s breakdown.
struct AutoBiTiming {
  double ucc = 0.0;
  double ind = 0.0;
  double local_inference = 0.0;
  double global_predict = 0.0;
  // Effective worker-thread count the parallel stages ran with (0 when the
  // producing method predates / bypasses the thread pool).
  int threads = 0;
  double Total() const { return ucc + ind + local_inference + global_predict; }
};

// Per-stage degradation markers for a RunContext-governed run. A healthy
// run (null context, or nothing tripped) leaves every stage untouched; a
// tripped deadline/cancel/budget marks the stages that gave work up, with a
// human-readable trigger (see ARCHITECTURE.md, "Error handling & graceful
// degradation").
struct AutoBiDegradation {
  StageHealth ucc;
  StageHealth ind;
  StageHealth local_inference;
  StageHealth global_predict;

  bool Any() const {
    return ucc.degraded || ind.degraded || local_inference.degraded ||
           global_predict.degraded;
  }
};

// Reuse counters of a pipeline run: how much work went through the stage
// memos of AutoBiOptions::cache versus ran. A solve-memo hit runs no
// pipeline and leaves everything zero. The serve protocol reports these
// under "incremental".
struct IncrementalStats {
  // True when any table or pair came from the memos.
  bool used = false;
  // Tables whose profile + UCCs were computed from scratch this run.
  size_t tables_reprofiled = 0;
  // Unordered table pairs whose IND scan + candidate scoring ran.
  size_t pairs_rescored = 0;
  // Unordered table pairs whose cached candidates + scores were reused.
  size_t pairs_reused = 0;
};

struct AutoBiResult {
  BiModel model;
  AutoBiTiming timing;
  // Solver telemetry for Figures 6 and 7, summed over the solved
  // components.
  KmcaCcStats solver_stats;
  double kmca_cc_seconds = 0.0;
  // The constructed join graph (diagnostics / tests).
  JoinGraph graph;
  // Edge ids selected by precision mode (backbone J*) and recall mode (S).
  std::vector<int> backbone_edges;
  std::vector<int> recall_edges;
  // What (if anything) was degraded by the run's deadline/cancel/budgets.
  AutoBiDegradation degradation;
  // Memo reuse counters (see IncrementalStats).
  IncrementalStats incremental;
  // Candidate-generation counters, including the blocking stage's pruning
  // numbers (profile/ind.h). Surfaced by the serve stats/predict verbs and
  // bench_lake.
  IndStats ind_stats;
  // Partitioned-solve telemetry (PartitionStats, core/graph_builder.h).
  PartitionStats partition;
};

// The online Auto-BI predictor (Section 4.3): candidate generation ->
// calibrated local scoring -> k-MCA-CC precision mode -> EMS recall mode.
class AutoBi {
 public:
  // `model` must outlive this object.
  AutoBi(const LocalModel* model, AutoBiOptions options = {});

  // Service entry point. Validates the input tables (kInvalidInput on
  // malformed ones) and runs the pipeline under `ctx` (may be null):
  // deadline/cancel trips and budgets degrade stages gracefully — the call
  // still succeeds with a feasible partial model and the skipped work
  // recorded in result.degradation. Unexpected internal failures (including
  // injected parallel-task faults) surface as kInternal rather than
  // propagating exceptions. A null or untripped context produces output
  // bit-identical to the legacy overload at any thread count.
  StatusOr<AutoBiResult> Predict(const std::vector<Table>& tables,
                                 const RunContext* ctx) const;

  // Legacy trusted-caller form (tests, benchmarks, baselines, synthetic
  // corpora): no context, CHECK-fails on Status errors.
  AutoBiResult Predict(const std::vector<Table>& tables) const;

  // Predict that never answers from the whole-solve memo: the pipeline
  // always runs, reusing what options.cache's table and pair memos hold, so
  // after a change to a few tables only the work touching them is redone.
  // result.incremental reports how much was reused. The result is
  // bit-identical to Predict's on the same tables (only timing, the reuse
  // counters and ind_stats — the scans this run actually performed —
  // differ), and a healthy result still populates the solve memo. This is
  // the `"incremental": true` form of the serve protocol.
  StatusOr<AutoBiResult> PredictIncremental(const std::vector<Table>& tables,
                                            const RunContext* ctx) const;

  const AutoBiOptions& options() const { return options_; }

 private:
  const LocalModel* model_;
  AutoBiOptions options_;
};

// Converts selected graph edges into BiModel joins (1:1 pairs deduplicated to
// a single normalized join).
BiModel EdgesToModel(const JoinGraph& graph, const std::vector<int>& edges);

// Stage 4 of the pipeline (global prediction), exposed so callers can run
// and time it on its own graph: consumes result->graph and
// fills model/backbone_edges/recall_edges/solver_stats/kmca_cc_seconds,
// partition, timing.global_predict, and degradation.global_predict. Every
// connected component with an edge is solved on its own (k-MCA-CC cost and
// FK-once are separable across components) and the selections stitched in
// component order. Deterministic
// function of (graph, options, ctx stop/budget state).
void RunGlobalPredict(const AutoBiOptions& options, const RunContext* ctx,
                      AutoBiResult* result);

// Fingerprint of everything besides the table bytes that deterministically
// shapes a Predict result: the AutoBi options (execution-only knobs like
// `threads` excluded — results are bit-identical at any thread count) and
// the RunContext's deterministic budgets. Deadlines/cancellation are *not*
// part of the key: they are time-dependent, so runs they trip never populate
// the solve memo (checked via result.degradation). The PredictCache solve
// memo key.
uint64_t SolveKeyFingerprint(const AutoBiOptions& options,
                             const RunContext* ctx);

}  // namespace autobi

#endif  // AUTOBI_CORE_AUTO_BI_H_
