#ifndef AUTOBI_CORE_SUGGEST_H_
#define AUTOBI_CORE_SUGGEST_H_

#include <vector>

#include "core/auto_bi.h"

namespace autobi {

// Interactive-workflow APIs on top of the Auto-BI predictor, mirroring how
// self-service tools actually consume join prediction: ranked suggestions a
// user confirms one by one, and incremental re-prediction when a table is
// added to an existing (confirmed) model.

// One ranked join suggestion for a specific FK-side column.
struct JoinSuggestion {
  Join join;
  double probability = 0.0;
  // True if this is the alternative Auto-BI's global solution selected.
  bool chosen_by_auto_bi = false;
};

// For every FK-side column with at least one candidate, the top-k
// alternatives ranked by calibrated probability. The globally-selected
// alternative (if any) is flagged, so a UI can show "suggested" vs "other
// options". Suggestions are grouped per source column and sorted by their
// best probability, strongest first.
std::vector<std::vector<JoinSuggestion>> SuggestJoins(
    const std::vector<Table>& tables, const LocalModel& model,
    size_t top_k = 3, const AutoBiOptions& options = {});

// Incremental prediction: the user has a confirmed model over `tables` and
// appends one new table. Predicts only the joins involving the new table,
// holding `confirmed` fixed: the pipeline's join graph (AutoBi::Predict
// under `options`, its cache included) is re-solved by RunGlobalPredict
// with the confirmed joins forced to probability ~1, so they occupy the
// in-degrees and FK-once slots the new table's candidates must respect.
// `options` applies throughout (mode, ablations, threads). Returns joins
// that involve the new table (its index is tables.size() - 1).
std::vector<Join> PredictJoinsForNewTable(const std::vector<Table>& tables,
                                          const BiModel& confirmed,
                                          const LocalModel& model,
                                          const AutoBiOptions& options = {});

}  // namespace autobi

#endif  // AUTOBI_CORE_SUGGEST_H_
