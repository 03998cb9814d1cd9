#ifndef AUTOBI_PROFILE_UCC_H_
#define AUTOBI_PROFILE_UCC_H_

#include <vector>

#include "profile/column_profile.h"
#include "table/key_view.h"
#include "table/table.h"

namespace autobi {

// Unique column combination (candidate key) discovery. UCC generation is the
// first stage of the join-discovery pipeline (Figure 5(b)): join targets
// ("1"-sides) must be unique, so only columns participating in a UCC can be
// PK endpoints.

struct UccOptions {
  // Maximum combination size explored (composite keys).
  size_t max_arity = 3;
  // Apriori-style lattice search is cut off after this many candidate checks
  // to bound worst-case cost on wide tables.
  size_t max_candidates = 2000;
  // A column with distinct ratio below this cannot participate in any UCC
  // (pruning heuristic; 0 disables).
  double min_distinct_ratio = 0.05;
};

// One discovered minimal unique column combination.
struct Ucc {
  std::vector<int> columns;  // Sorted column indices.
};

// Returns all *minimal* UCCs of `table` up to the option's arity, using a
// breadth-first lattice search with superset pruning (in the spirit of the
// IND/UCC discovery literature the paper invokes as a standard step).
//
// A column set is unique iff no two rows that are non-null in every column
// of the set carry equal values, and at least one such row exists (SQL
// candidate-key semantics for nullable columns). Candidates are decided by
// stripped-partition refinement (TANE, Huhtala et al. 1999): each column
// gets exact dense value ids, a set's partition keeps only its row groups of
// size >= 2, and base ∪ {c} is decided by splitting base's groups by c's
// ids, so a check touches only the rows that can still collide.
//
// If `view` is non-null it must be a TableKeyView of `table` and supplies
// the keys the value ids are built from; otherwise per-column views are
// built lazily the first time a column appears in an arity >= 2 check.
std::vector<Ucc> DiscoverUccs(const Table& table, const TableProfile& profile,
                              const UccOptions& options = {},
                              const TableKeyView* view = nullptr);

}  // namespace autobi

#endif  // AUTOBI_PROFILE_UCC_H_
