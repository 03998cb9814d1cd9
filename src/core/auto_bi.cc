#include "core/auto_bi.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/predict_cache.h"
#include "graph/ems.h"
#include "graph/kmca.h"
#include "profile/sketch.h"

namespace autobi {

AutoBi::AutoBi(const LocalModel* model, AutoBiOptions options)
    : model_(model), options_(std::move(options)) {
  // invariant: constructing a predictor without a trained model is a
  // programmer error, not an input error.
  AUTOBI_CHECK(model_ != nullptr);
}

Join EdgeToJoin(const JoinEdge& edge) {
  return Join{ColumnRef{edge.src, edge.src_columns},
              ColumnRef{edge.dst, edge.dst_columns},
              edge.one_to_one ? JoinKind::kOneToOne : JoinKind::kNToOne}
      .Normalized();
}

BiModel EdgesToModel(const JoinGraph& graph, const std::vector<int>& edges) {
  BiModel model;
  std::set<int> used_pairs;
  for (int id : edges) {
    const JoinEdge& e = graph.edge(id);
    if (e.one_to_one) {
      if (used_pairs.count(e.pair_id)) continue;
      used_pairs.insert(e.pair_id);
    }
    model.joins.push_back(EdgeToJoin(e));
  }
  return model;
}

namespace {

uint64_t MixU64(uint64_t h, uint64_t v) { return SplitMix64(h ^ v); }

uint64_t MixDouble(uint64_t h, double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return MixU64(h, bits);
}

}  // namespace

uint64_t SolveKeyFingerprint(const AutoBiOptions& o, const RunContext* ctx) {
  uint64_t h = MixU64(0xA07B1BEEFCAFE001ULL, uint64_t(o.mode));
  h = MixDouble(h, o.penalty_probability);
  h = MixDouble(h, o.tau);
  h = MixU64(h, (uint64_t(o.enforce_fk_once) << 2) |
                    (uint64_t(o.use_precision_mode) << 1) |
                    uint64_t(o.lc_only));
  h = MixU64(h, CandidateOptionsFingerprint(o.candidates));
  h = MixU64(h, uint64_t(o.solver.max_one_mca_calls));
  if (ctx != nullptr) {
    h = MixU64(h, ctx->budgets.max_rows_per_table);
    h = MixU64(h, ctx->budgets.max_cells_per_table);
    h = MixU64(h, ctx->budgets.max_candidate_pairs);
    h = MixU64(h, uint64_t(ctx->budgets.max_one_mca_calls));
  }
  return h;
}

void RunGlobalPredict(const AutoBiOptions& options, const RunContext* ctx,
                      AutoBiResult* out) {
  AutoBiResult& result = *out;
  const JoinGraph& graph = result.graph;
  Timer global_timer;
  if (ctx != nullptr && ctx->StopRequested()) {
    // Stage-boundary trip: an empty model is always feasible; return it
    // rather than starting a solve we are not allowed to finish.
    result.degradation.global_predict.MarkDegraded(
        "run stopped before global solve; empty model returned");
    result.timing.global_predict = global_timer.Seconds();
    return;
  }
  if (options.lc_only) {
    // Ablation: keep every edge with calibrated probability >= 0.5, no graph
    // optimization (the "LC-only" bar of Figure 8).
    std::vector<int> kept;
    for (const JoinEdge& e : graph.edges()) {
      if (e.probability >= 0.5) kept.push_back(e.id);
    }
    result.model = EdgesToModel(graph, kept);
    result.backbone_edges = kept;
    result.timing.global_predict = global_timer.Seconds();
    return;
  }

  double penalty =
      -std::log(JoinGraph::ClampProbability(options.penalty_probability));

  if (options.use_precision_mode) {
    // Precision mode: the most probable k-snowflakes under FK-once
    // (k-MCA-CC, Algorithm 3). The RunContext 1-MCA budget tightens (never
    // loosens) the solver's own call budget; on exhaustion the solver
    // returns its greedy feasible fallback and we record the degradation.
    KmcaCcOptions solver = options.solver;
    solver.penalty_weight = penalty;
    solver.enforce_fk_once = options.enforce_fk_once;
    if (ctx != nullptr && ctx->budgets.max_one_mca_calls > 0) {
      solver.max_one_mca_calls =
          std::min(solver.max_one_mca_calls, ctx->budgets.max_one_mca_calls);
    }
    // Partition into connected components. Cost and FK-once are separable
    // across components, so every component with an edge is solved on its
    // own graph and the selections are stitched in component order. Each
    // component gets the FULL 1-MCA budget: a trip degrades that one
    // component to its greedy feasible fallback while the others keep their
    // exact solves. Components are the unit of parallelism; a lone
    // component gives the run's threads to its wave search instead.
    std::vector<GraphComponent> components = PartitionJoinGraph(graph);
    std::vector<const GraphComponent*> solvable;
    result.partition.components = components.size();
    for (const GraphComponent& c : components) {
      if (c.edge_ids.empty()) continue;
      solvable.push_back(&c);
      result.partition.largest_component_edges = std::max(
          result.partition.largest_component_edges, c.edge_ids.size());
    }
    result.partition.used = solvable.size() >= 2;
    result.partition.components_solved = solvable.size();
    result.partition.component_health.resize(solvable.size());
    solver.threads = solvable.size() == 1 ? options.threads : 1;
    struct CompSolve {
      KmcaResult backbone;
      KmcaCcStats stats;
      bool skipped = false;
    };
    Timer kmca_timer;
    std::vector<CompSolve> solves = ParallelMap(
        solvable.size(),
        [&](size_t i) {
          CompSolve s;
          // Component-boundary stop poll: a tripped run leaves remaining
          // components unsolved (empty backbone there, marked below).
          if (ctx != nullptr && ctx->StopRequested()) {
            s.skipped = true;
            return s;
          }
          JoinGraph local = BuildComponentGraph(graph, *solvable[i]);
          s.backbone = SolveKmcaCc(local, solver, &s.stats);
          return s;
        },
        options.threads);
    // Stitch serially in component order; map local edge ids back through
    // the component's ascending edge-id list.
    size_t skipped = 0;
    size_t exhausted = 0;
    for (size_t i = 0; i < solves.size(); ++i) {
      const CompSolve& s = solves[i];
      StageHealth& health = result.partition.component_health[i];
      if (s.skipped) {
        ++skipped;
        health.MarkDegraded("run stopped before component solve");
        continue;
      }
      for (int local_id : s.backbone.edge_ids) {
        result.backbone_edges.push_back(
            solvable[i]->edge_ids[size_t(local_id)]);
      }
      result.solver_stats.one_mca_calls += s.stats.one_mca_calls;
      result.solver_stats.nodes += s.stats.nodes;
      result.solver_stats.pruned += s.stats.pruned;
      result.solver_stats.memo_hits += s.stats.memo_hits;
      result.solver_stats.waves += s.stats.waves;
      if (s.stats.budget_exhausted) {
        ++exhausted;
        result.solver_stats.budget_exhausted = true;
        health.MarkDegraded(
            "1-MCA call budget exhausted; greedy feasible backbone for "
            "this component");
      }
    }
    result.kmca_cc_seconds = kmca_timer.Seconds();
    if (skipped > 0) {
      result.degradation.global_predict.MarkDegraded(StrFormat(
          "run stopped during partitioned solve; %zu of %zu components "
          "unsolved",
          skipped, solves.size()));
    }
    if (exhausted > 0) {
      result.degradation.global_predict.MarkDegraded(StrFormat(
          "1-MCA call budget exhausted in %zu of %zu components; greedy "
          "feasible backbone there",
          exhausted, solves.size()));
    }
  } else {
    // Ablation "no-precision-mode": recall mode growing from nothing.
    result.backbone_edges.clear();
  }

  if (options.mode != AutoBiMode::kPrecisionOnly) {
    if (ctx != nullptr && ctx->StopRequested()) {
      // The backbone alone is a feasible model; skip recall growth.
      result.degradation.global_predict.MarkDegraded(
          "run stopped before recall mode; backbone-only model");
    } else {
      // Recall mode: grow extra confident joins on top of the backbone
      // (EMS).
      EmsOptions ems;
      ems.tau = options.tau;
      result.recall_edges = SolveEmsGreedy(graph, result.backbone_edges, ems);
    }
  }

  std::vector<int> all_edges = result.backbone_edges;
  all_edges.insert(all_edges.end(), result.recall_edges.begin(),
                   result.recall_edges.end());
  std::sort(all_edges.begin(), all_edges.end());
  result.model = EdgesToModel(graph, all_edges);
  result.timing.global_predict = global_timer.Seconds();
}

namespace {

// The pipeline proper. May throw (pool-propagated worker exceptions,
// injected parallel-task faults); the public entry points convert those to
// kInternal. `table_hashes` comes from HashTables.
AutoBiResult RunPipeline(const LocalModel& model, const AutoBiOptions& options,
                         const std::vector<Table>& tables,
                         const std::vector<uint64_t>& table_hashes,
                         const RunContext* ctx) {
  AutoBiResult result;
  result.timing.threads = ResolveThreads(options.threads);

  // Stage 1+2: UCC and IND discovery (candidate generation), through the
  // cache's table and pair memos. The top-level thread setting flows into
  // candidate generation unless the caller pinned a stage-specific count.
  CandidateGenOptions cand_options = options.candidates;
  if (cand_options.threads == 0) cand_options.threads = options.threads;
  const bool schema_only = options.mode == AutoBiMode::kSchemaOnly;
  CandidateSet candidates = GenerateCandidates(
      tables, table_hashes, cand_options, ctx, schema_only, options.cache);
  result.timing.ucc = candidates.ucc_seconds;
  result.timing.ind = candidates.ind_seconds;
  result.degradation.ucc = candidates.ucc_health;
  result.degradation.ind = candidates.ind_health;
  result.ind_stats = candidates.ind_stats;
  result.incremental.used =
      candidates.profile_cache_hits > 0 || candidates.pairs_reused > 0;
  result.incremental.tables_reprofiled = candidates.tables_profiled;
  result.incremental.pairs_rescored = candidates.pairs_scanned;
  result.incremental.pairs_reused = candidates.pairs_reused;

  // Stage 3: local inference — featurize and score with the calibrated
  // classifiers (Algorithm 1) every candidate the pair memo did not answer.
  Timer local_timer;
  std::vector<double> probabilities = std::move(candidates.memo_scores);
  std::vector<size_t> unscored;
  for (size_t k = 0; k < probabilities.size(); ++k) {
    if (probabilities[k] == kUnscoredCandidate) unscored.push_back(k);
  }
  if (unscored.size() == probabilities.size()) {
    probabilities = ScoreCandidates(tables, candidates.profiles,
                                    candidates.candidates, model, schema_only,
                                    options.threads, ctx);
  } else if (!unscored.empty()) {
    std::vector<JoinCandidate> to_score;
    to_score.reserve(unscored.size());
    for (size_t k : unscored) to_score.push_back(candidates.candidates[k]);
    std::vector<double> fresh =
        ScoreCandidates(tables, candidates.profiles, to_score, model,
                        schema_only, options.threads, ctx);
    for (size_t k = 0; k < unscored.size(); ++k) {
      probabilities[unscored[k]] = fresh[k];
    }
  }
  result.graph =
      BuildJoinGraphFromScores(tables.size(), candidates.candidates,
                               probabilities,
                               &result.degradation.local_inference);
  result.timing.local_inference = local_timer.Seconds();

  // Stage 4: global prediction.
  RunGlobalPredict(options, ctx, &result);

  // Only a healthy run may publish its scanned pairs: a degraded one may
  // have truncated, skipped or never scanned candidates.
  if (options.cache != nullptr && !result.degradation.Any()) {
    PublishPairEntries(candidates, probabilities, options.cache);
  }
  return result;
}

// Predict and PredictIncremental: validation, one content hash per table,
// the solve memo (consulted only when `consult_solve_memo`), the pipeline.
StatusOr<AutoBiResult> PredictWithMemos(const LocalModel& model,
                                        const AutoBiOptions& options,
                                        const std::vector<Table>& tables,
                                        const RunContext* ctx,
                                        bool consult_solve_memo) {
  for (size_t i = 0; i < tables.size(); ++i) {
    if (!tables[i].Validate()) {
      return Status::InvalidInput(
          StrFormat("table %zu ('%s') is malformed (ragged columns)", i,
                    tables[i].name().c_str()));
    }
  }
  try {
    // Each table is hashed once; the hashes key the profile, pair and
    // solve memos (and in-run dedup of identical tables). Without a cache
    // only budget-admitted tables are hashed. The hashing pass is charged
    // to the UCC bucket, whose stage it serves.
    Timer hash_timer;
    const std::vector<uint64_t> table_hashes = HashTables(
        tables, ctx, /*admitted_only=*/options.cache == nullptr,
        options.candidates.threads != 0 ? options.candidates.threads
                                        : options.threads);
    const double hash_seconds = hash_timer.Seconds();

    // Cross-request solve memo: a byte-identical (tables, options, budgets)
    // submission returns the cached healthy result without running the
    // pipeline. Skipped when the context already tripped (the pipeline then
    // owes the caller its degraded partial-model semantics, not a full
    // cached answer).
    PredictCache* cache = options.cache;
    const bool memo_usable =
        cache != nullptr && (ctx == nullptr || !ctx->StopRequested());
    const uint64_t solve_key =
        MixU64(TablesContentHashFromHashes(table_hashes),
               SolveKeyFingerprint(options, ctx));
    if (memo_usable && consult_solve_memo) {
      if (std::shared_ptr<const AutoBiResult> entry =
              cache->FindSolve(solve_key)) {
        AutoBiResult result = *entry;
        result.timing.threads = ResolveThreads(options.threads);
        return result;
      }
    }
    AutoBiResult result = RunPipeline(model, options, tables, table_hashes, ctx);
    result.timing.ucc += hash_seconds;
    if (memo_usable && !result.degradation.Any()) {
      auto entry = std::make_shared<AutoBiResult>(result);
      entry->timing = AutoBiTiming{};
      entry->kmca_cc_seconds = 0.0;
      entry->incremental = IncrementalStats{};
      cache->InsertSolve(solve_key, std::move(entry));
    }
    return result;
  } catch (const std::exception& e) {
    // Worker exceptions propagate out of the pool from the lowest-indexed
    // failing iteration; service callers get a Status, never a throw.
    return Status::Internal(
        StrFormat("prediction pipeline failed: %s", e.what()));
  }
}

}  // namespace

StatusOr<AutoBiResult> AutoBi::Predict(const std::vector<Table>& tables,
                                       const RunContext* ctx) const {
  return PredictWithMemos(*model_, options_, tables, ctx,
                          /*consult_solve_memo=*/true);
}

StatusOr<AutoBiResult> AutoBi::PredictIncremental(
    const std::vector<Table>& tables, const RunContext* ctx) const {
  return PredictWithMemos(*model_, options_, tables, ctx,
                          /*consult_solve_memo=*/false);
}

AutoBiResult AutoBi::Predict(const std::vector<Table>& tables) const {
  StatusOr<AutoBiResult> result = Predict(tables, nullptr);
  // invariant: legacy callers feed trusted (synthetic/test) tables; a
  // Status error here is a harness bug.
  AUTOBI_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return std::move(result).value();
}

}  // namespace autobi
