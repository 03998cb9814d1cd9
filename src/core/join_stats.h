#ifndef AUTOBI_CORE_JOIN_STATS_H_
#define AUTOBI_CORE_JOIN_STATS_H_

#include <string>

#include "core/bi_model.h"

namespace autobi {

// Executes a predicted join (hash join on the canonical key) and reports
// cardinality statistics — the ground-level validation a user performs
// before trusting a suggested relationship. A healthy N:1 join has match
// rate ~1 on the FK side and max fan-out 1 (each FK row meets exactly one
// PK row); fan-out > 1 means the "one" side is not actually unique on the
// join key.
struct JoinStats {
  // FK-side rows with a non-null key.
  size_t left_rows = 0;
  // PK-side rows with a non-null key.
  size_t right_rows = 0;
  // Distinct keys on each side.
  size_t left_distinct = 0;
  size_t right_distinct = 0;
  // FK-side rows that found at least one match.
  size_t matched_rows = 0;
  // Total joined output rows.
  size_t output_rows = 0;
  // Max matches for any single FK-side row (1 == clean N:1).
  size_t max_fanout = 0;

  double MatchRate() const {
    return left_rows == 0 ? 0.0
                          : double(matched_rows) / double(left_rows);
  }
  bool LooksLikeCleanNToOne() const {
    return max_fanout <= 1 && MatchRate() >= 0.95;
  }
  // The PK side is a key: non-empty, and no non-null tuple repeats.
  bool RightKeyUnique() const {
    return right_rows > 0 && right_distinct == right_rows;
  }

  std::string ToString() const;
};

// Computes the stats for `join` over `tables`. Composite keys join on the
// concatenated canonical tuple. O(left_rows + right_rows).
JoinStats ComputeJoinStats(const std::vector<Table>& tables,
                           const Join& join);

}  // namespace autobi

#endif  // AUTOBI_CORE_JOIN_STATS_H_
