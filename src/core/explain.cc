#include "core/explain.h"

#include <algorithm>
#include <set>

#include "common/strings.h"
#include "core/join_stats.h"
#include "text/similarity.h"
#include "text/tokenize.h"

namespace autobi {

namespace {

std::string RefName(const std::vector<Table>& tables, int table,
                    const std::vector<int>& columns) {
  std::string out;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += " ";
    out += tables[size_t(table)].column(size_t(columns[i])).name();
  }
  return out;
}

// Recomputes the salient evidence for an edge directly from the data (the
// trained model's internals are not needed for a faithful narrative). The
// join is executed on its whole key tuple — the check a user would run by
// hand before trusting the relationship — and its match rate, key
// uniqueness and fan-out are reported.
std::vector<std::string> Evidence(const std::vector<Table>& tables,
                                  const JoinEdge& e, const Join& join) {
  std::vector<std::string> out;
  const JoinStats stats = ComputeJoinStats(tables, join);
  const double match_rate = stats.MatchRate();
  if (match_rate >= 0.99) {
    out.push_back("every value has a match in the referenced key");
  } else if (match_rate >= 0.9) {
    out.push_back(StrFormat("%.0f%% of values have a match", match_rate * 100));
  } else {
    out.push_back(StrFormat("only %.0f%% of values have a match (dirty join)",
                            match_rate * 100));
  }
  if (stats.RightKeyUnique()) {
    out.push_back("referenced key is unique");
  } else {
    out.push_back("referenced key is NOT unique — review this join");
  }

  std::string src_name = RefName(tables, e.src, e.src_columns);
  std::string dst_name = RefName(tables, e.dst, e.dst_columns);
  std::string aug = tables[size_t(e.dst)].name() + " " + dst_name;
  double name_sim = std::max(
      EditSimilarity(NormalizeIdentifier(src_name),
                     NormalizeIdentifier(dst_name)),
      TokenJaccard(TokenizeIdentifier(src_name), TokenizeIdentifier(aug)));
  if (name_sim >= 0.8) {
    out.push_back("column names match closely");
  } else if (name_sim >= 0.4) {
    out.push_back("column names are partially similar");
  } else {
    out.push_back("column names are unrelated (value evidence only)");
  }
  if (e.one_to_one) {
    out.push_back("both sides are keys with mutual containment (1:1)");
  }

  if (stats.max_fanout > 1) {
    out.push_back(StrFormat("join fans out (up to %zu matches per row)",
                            stats.max_fanout));
  } else if (stats.LooksLikeCleanNToOne()) {
    out.push_back("join executes as a clean N:1");
  }
  return out;
}

}  // namespace

std::string JoinExplanation::ToString(
    const std::vector<Table>& tables) const {
  std::string out = JoinToString(tables, join);
  out += StrFormat("  [P=%.2f, %s] ", probability, stage.c_str());
  out += JoinStrings(evidence, "; ");
  return out;
}

std::vector<JoinExplanation> ExplainPrediction(
    const std::vector<Table>& tables, const AutoBiResult& result) {
  std::set<int> backbone(result.backbone_edges.begin(),
                         result.backbone_edges.end());

  std::vector<JoinExplanation> out;
  std::set<int> used_pairs;
  auto add = [&](int id) {
    const JoinEdge& e = result.graph.edge(id);
    if (e.one_to_one) {
      if (used_pairs.count(e.pair_id)) return;
      used_pairs.insert(e.pair_id);
    }
    JoinExplanation ex;
    ex.join = EdgeToJoin(e);
    ex.probability = e.probability;
    ex.stage = backbone.count(id) ? "precision-mode backbone" : "recall mode";
    ex.evidence = Evidence(tables, e, ex.join);
    out.push_back(std::move(ex));
  };
  for (int id : result.backbone_edges) add(id);
  for (int id : result.recall_edges) add(id);
  return out;
}

}  // namespace autobi
