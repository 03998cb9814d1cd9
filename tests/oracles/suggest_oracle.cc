#include "tests/oracles/suggest_oracle.h"

#include <cmath>

#include "common/check.h"
#include "core/graph_builder.h"
#include "graph/ems.h"
#include "graph/kmca_cc.h"

namespace autobi {

std::vector<Join> PredictJoinsForNewTableFlat(const std::vector<Table>& tables,
                                              const BiModel& confirmed,
                                              const LocalModel& model,
                                              const AutoBiOptions& options) {
  AUTOBI_CHECK(!tables.empty());
  int new_table = int(tables.size()) - 1;

  CandidateSet candidates = GenerateCandidates(tables, options.candidates);
  bool schema_only = options.mode == AutoBiMode::kSchemaOnly;
  JoinGraph graph = BuildJoinGraphFromScores(
      tables.size(), candidates.candidates,
      ScoreCandidates(tables, candidates.profiles, candidates.candidates,
                      model, schema_only));

  constexpr double kConfirmedProbability = 1.0 - 1e-6;
  JoinGraph forced(graph.num_vertices());
  auto matches_confirmed = [&](const JoinEdge& e) {
    Join as_join;
    as_join.from = ColumnRef{e.src, e.src_columns};
    as_join.to = ColumnRef{e.dst, e.dst_columns};
    as_join.kind = e.one_to_one ? JoinKind::kOneToOne : JoinKind::kNToOne;
    return confirmed.Contains(as_join.Normalized());
  };
  std::vector<char> covered(confirmed.joins.size(), 0);
  for (const JoinEdge& e : graph.edges()) {
    bool conf = matches_confirmed(e);
    if (conf) {
      for (size_t i = 0; i < confirmed.joins.size(); ++i) {
        Join as_join{ColumnRef{e.src, e.src_columns},
                     ColumnRef{e.dst, e.dst_columns},
                     e.one_to_one ? JoinKind::kOneToOne : JoinKind::kNToOne};
        if (confirmed.joins[i] == as_join) covered[i] = 1;
      }
    }
    forced.AddEdge(e.src, e.dst, e.src_columns, e.dst_columns,
                   conf ? kConfirmedProbability : e.probability,
                   e.one_to_one, e.pair_id);
  }
  for (size_t i = 0; i < confirmed.joins.size(); ++i) {
    if (covered[i]) continue;
    const Join& j = confirmed.joins[i];
    forced.AddEdge(j.from.table, j.to.table, j.from.columns, j.to.columns,
                   kConfirmedProbability,
                   j.kind == JoinKind::kOneToOne, -1);
  }

  KmcaCcOptions solver = options.solver;
  solver.penalty_weight =
      -std::log(JoinGraph::ClampProbability(options.penalty_probability));
  solver.enforce_fk_once = options.enforce_fk_once;
  KmcaResult backbone = SolveKmcaCc(forced, solver);
  EmsOptions ems;
  ems.tau = options.tau;
  std::vector<int> extra = SolveEmsGreedy(forced, backbone.edge_ids, ems);

  std::vector<int> all = backbone.edge_ids;
  all.insert(all.end(), extra.begin(), extra.end());
  BiModel predicted = EdgesToModel(forced, all);

  std::vector<Join> out;
  for (const Join& j : predicted.joins) {
    if (j.from.table == new_table || j.to.table == new_table) {
      out.push_back(j);
    }
  }
  return out;
}

}  // namespace autobi
