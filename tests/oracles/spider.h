#ifndef AUTOBI_TESTS_ORACLES_SPIDER_H_
#define AUTOBI_TESTS_ORACLES_SPIDER_H_

#include <vector>

#include "table/table.h"

namespace autobi {

// SPIDER-style exact unary IND discovery (Bauckmann et al. [12]): all
// columns are merged in one simultaneous sorted sweep; a column's candidate
// referenced-set is intersected with the set of columns sharing each of its
// values, so a single pass finds every exact inclusion dependency. This is
// the "efficient IND enumeration" alternative the paper cites as standard
// pre-processing; the pipeline uses hash-based approximate containment
// (profile/ind.h) because BI joins are often not perfectly inclusive, but on
// clean data the two agree. A reference for spider_test and bench_ext_ind
// only; nothing under src/ links it.
struct SpiderInd {
  ColumnRef dependent;
  ColumnRef referenced;
};

// Finds every exact unary IND between columns of *different* tables.
// Dependent columns must have at least one non-null value. O(total distinct
// values * log(#columns) + output), independent of the number of column
// pairs.
std::vector<SpiderInd> DiscoverExactIndsSpider(
    const std::vector<Table>& tables);

}  // namespace autobi

#endif  // AUTOBI_TESTS_ORACLES_SPIDER_H_
