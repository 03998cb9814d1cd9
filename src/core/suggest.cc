#include "core/suggest.h"

#include <algorithm>
#include <map>

#include "common/check.h"

namespace autobi {

std::vector<std::vector<JoinSuggestion>> SuggestJoins(
    const std::vector<Table>& tables, const LocalModel& model, size_t top_k,
    const AutoBiOptions& options) {
  AutoBi auto_bi(&model, options);
  AutoBiResult result = auto_bi.Predict(tables);

  // Group scored edges by their source column set; 1:1 pairs contribute one
  // suggestion per orientation's source (each side may "own" the pick).
  std::map<std::pair<int, std::vector<int>>, std::vector<JoinSuggestion>>
      groups;
  for (const JoinEdge& e : result.graph.edges()) {
    JoinSuggestion s;
    s.join = EdgeToJoin(e);
    s.probability = e.probability;
    s.chosen_by_auto_bi = result.model.Contains(s.join);
    groups[{e.src, e.src_columns}].push_back(std::move(s));
  }

  std::vector<std::vector<JoinSuggestion>> out;
  for (auto& [key, suggestions] : groups) {
    (void)key;
    std::sort(suggestions.begin(), suggestions.end(),
              [](const JoinSuggestion& a, const JoinSuggestion& b) {
                if (a.probability != b.probability) {
                  return a.probability > b.probability;
                }
                return a.chosen_by_auto_bi && !b.chosen_by_auto_bi;
              });
    if (suggestions.size() > top_k) suggestions.resize(top_k);
    out.push_back(std::move(suggestions));
  }
  std::sort(out.begin(), out.end(),
            [](const std::vector<JoinSuggestion>& a,
               const std::vector<JoinSuggestion>& b) {
              return a.front().probability > b.front().probability;
            });
  return out;
}

std::vector<Join> PredictJoinsForNewTable(const std::vector<Table>& tables,
                                          const BiModel& confirmed,
                                          const LocalModel& model,
                                          const AutoBiOptions& options) {
  // invariant: documented API precondition (the new table is tables.back()).
  AUTOBI_CHECK(!tables.empty());
  const int new_table = int(tables.size()) - 1;
  const JoinGraph graph = AutoBi(&model, options).Predict(tables).graph;

  // Force the confirmed joins: give their edges probability ~1 (weight ~0)
  // so the global solve keeps them — and, crucially, lets them occupy
  // in-degrees and FK-once slots the new table's candidates must respect.
  constexpr double kConfirmedProbability = 1.0 - 1e-6;
  AutoBiResult forced;
  forced.graph = JoinGraph(graph.num_vertices());
  std::vector<char> covered(confirmed.joins.size(), 0);
  for (const JoinEdge& e : graph.edges()) {
    const Join join = EdgeToJoin(e);
    bool is_confirmed = false;
    for (size_t i = 0; i < confirmed.joins.size(); ++i) {
      if (confirmed.joins[i] == join) {
        covered[i] = 1;
        is_confirmed = true;
      }
    }
    forced.graph.AddEdge(e.src, e.dst, e.src_columns, e.dst_columns,
                         is_confirmed ? kConfirmedProbability : e.probability,
                         e.one_to_one, e.pair_id);
  }
  // Confirmed joins with no surviving candidate edge (e.g. user-specified
  // joins the IND pass would not re-derive) are injected directly.
  for (size_t i = 0; i < confirmed.joins.size(); ++i) {
    if (covered[i]) continue;
    const Join& j = confirmed.joins[i];
    forced.graph.AddEdge(j.from.table, j.to.table, j.from.columns,
                         j.to.columns, kConfirmedProbability,
                         j.kind == JoinKind::kOneToOne, -1);
  }

  RunGlobalPredict(options, nullptr, &forced);
  std::vector<Join> out;
  for (const Join& j : forced.model.joins) {
    if (j.from.table == new_table || j.to.table == new_table) {
      out.push_back(j);
    }
  }
  return out;
}

}  // namespace autobi
