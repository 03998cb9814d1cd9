#ifndef AUTOBI_TESTS_ORACLES_PROFILE_ORACLE_H_
#define AUTOBI_TESTS_ORACLES_PROFILE_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "profile/column_profile.h"
#include "table/table.h"

namespace autobi {

// Frozen reference implementations of column profiling, unary containment
// and composite IND containment, kept as oracles for the differential tests
// and the old-vs-new micro-benchmark. They read the cells through the
// per-cell Column::KeyAt path only — never a production profile or key
// view — so a fault in the hash-first kernels cannot leak into the
// reference. Nothing under src/ links these.

// The original per-cell KeyAt + string-map profiling kernel. Produces a
// ColumnProfile bit-identical to ProfileColumn: distinct keys counted in a
// string map (so num_distinct is exact), then hashed, sorted, and equal
// hashes merged by summing their counts.
ColumnProfile ProfileColumnLegacy(const Column& col, size_t max_sample = 512);

// Distinct canonical key -> occurrence count over the non-null cells of a
// column.
using DistinctKeyMap = std::unordered_map<std::string, int32_t>;
DistinctKeyMap BuildDistinctKeyMap(const Column& col);

// Row-weighted containment of A in B over string maps: the fraction of A's
// non-null cells whose key appears among B's keys. The column form builds
// both maps per call; the prebuilt-map form is what the micro-benchmark
// times (probe cost only, as the historical kernel paid).
double ContainmentViaStringMap(const Column& a, const Column& b);
double ContainmentViaStringMap(const DistinctKeyMap& a, size_t a_non_null,
                               const DistinctKeyMap& b);

// Composite tuple-hash set and row-weighted composite containment through
// the per-row KeyAt tuple rendering ("v1|v2|...|", '|' and '\' escaped),
// hashed with StableHash64. Rows with a null in any of the columns are
// skipped.
using TupleHashSet = std::unordered_set<uint64_t>;
TupleHashSet BuildCompositeKeySetLegacy(const Table& table,
                                        const std::vector<int>& cols);
double CompositeContainmentLegacy(const Table& ta, const std::vector<int>& ca,
                                  const Table& tb, const std::vector<int>& cb);

}  // namespace autobi

#endif  // AUTOBI_TESTS_ORACLES_PROFILE_ORACLE_H_
