#ifndef AUTOBI_TESTS_ORACLES_UCC_ORACLE_H_
#define AUTOBI_TESTS_ORACLES_UCC_ORACLE_H_

#include <vector>

#include "profile/column_profile.h"
#include "profile/ucc.h"
#include "table/key_view.h"
#include "table/table.h"

namespace autobi {

// Frozen reference implementations of UCC discovery, kept as oracles for
// the differential tests and the old-vs-new micro-benchmark. Production
// discovery (DiscoverUccs, profile/ucc.h) uses stripped-partition
// refinement; nothing under src/ links these.

// True if the given column set has no duplicate (non-null-complete) tuples
// and at least one non-null-complete row. Rows with a null in any of the
// columns are skipped, matching the SQL semantics of candidate keys with
// nullable columns.
//
// Hash-sort kernel: streams the composite tuple hashes (TupleHashFromViews
// of table/key_view.h), radix-sorts (hash, row) pairs, and scans equal-hash
// runs — a run of length >= 2 is a duplicate unless the pooled key bytes
// prove it a 64-bit collision.
bool IsUniqueCombination(const Table& table, const std::vector<int>& columns);
bool IsUniqueCombination(const TableKeyView& view,
                         const std::vector<int>& columns);

// String-set kernel: escaped string tuple keys probed through an
// unordered_set.
bool IsUniqueCombinationLegacy(const Table& table,
                               const std::vector<int>& columns);

enum class UccOracleKernel {
  kHashSort,   // IsUniqueCombination over (lazily built or prebuilt) views.
  kStringSet,  // IsUniqueCombinationLegacy.
};

// The lattice walk of DiscoverUccs (eligible set, canonical extension
// order, minimality skip, pigeonhole prune, max_candidates cutoff) with each
// candidate decided by a full-table `kernel` pass. `view`, if non-null, must
// be a TableKeyView of `table`; only the hash-sort kernel reads it.
std::vector<Ucc> DiscoverUccsOracle(const Table& table,
                                    const TableProfile& profile,
                                    const UccOptions& options,
                                    UccOracleKernel kernel,
                                    const TableKeyView* view = nullptr);

// Appends a copy of rows (i * 7919) % n for i < max(1, n / 50) to every
// column of `table` (n = its row count before the call): a 2% self-append of
// duplicated rows, the delta shape of the end-to-end benchmark. Every
// column set that is non-null on a copied row stops being unique.
void AppendDuplicatedRows(Table* table);

}  // namespace autobi

#endif  // AUTOBI_TESTS_ORACLES_UCC_ORACLE_H_
