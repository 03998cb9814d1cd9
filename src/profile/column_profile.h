#ifndef AUTOBI_PROFILE_COLUMN_PROFILE_H_
#define AUTOBI_PROFILE_COLUMN_PROFILE_H_

#include <cstdint>
#include <vector>

#include "table/key_view.h"
#include "table/table.h"

namespace autobi {

// Precomputed per-column statistics shared by the IND/UCC discoverers, the
// featurizers, and the baselines. Profiling is the only pass over the raw
// data; everything downstream works off these summaries, which is what keeps
// end-to-end inference fast (Figure 5).
//
// The distinct-value summary is hash-first (see table/key_view.h): the
// canonical keys are aggregated by their stable 64-bit FNV-1a hashes in one
// open-addressed pass — no per-cell std::string, no per-row string-map
// operation — and only the hashes and counts are kept. Profiles sit in the
// cross-request caches, so they hold nothing the pipeline does not read.
struct ColumnProfile {
  ValueType type = ValueType::kNull;
  size_t row_count = 0;
  size_t non_null_count = 0;
  // Number of distinct canonical keys among non-null cells. Exact (equal
  // hashes are verified against the key bytes during aggregation), so
  // IsUnique/distinct_ratio match the string-map definition.
  size_t num_distinct = 0;
  // Hash-sketch view of the distinct values (profile/sketch.h): stable
  // 64-bit FNV-1a hashes of the canonical keys, sorted ascending and
  // strictly increasing (in-column collisions merged), with parallel
  // occurrence counts. Containment runs as a sorted-merge intersection over
  // these vectors; blocking (profile/blocking.h) draws its probes from them
  // and the EMD feature (profile/emd.h) samples them.
  std::vector<uint64_t> distinct_hashes;
  std::vector<int32_t> distinct_counts;
  // Distinct / non-null ratio (1.0 == column is a key candidate).
  double distinct_ratio = 0.0;
  // Numeric min/max (valid only if is_numeric).
  bool is_numeric = false;
  double min_value = 0.0;
  double max_value = 0.0;
  // Sorted sample of numeric values, used for distribution features (EMD).
  std::vector<double> sorted_numeric_sample;
  // Average rendered value length: total canonical key bytes over all
  // non-null cells / non_null_count.
  double avg_value_length = 0.0;

  bool IsUnique() const {
    return non_null_count > 0 && num_distinct == non_null_count;
  }
};

// Profile of every column of a table, plus table-level counts.
struct TableProfile {
  size_t row_count = 0;
  std::vector<ColumnProfile> columns;
};

// Computes a profile for one column. `max_sample` bounds the numeric sample
// retained for distribution features. The first form builds the column's
// key view internally; the second reuses a prebuilt view (which must come
// from the same column) so callers that also run UCC/IND kernels pay for the
// view once.
ColumnProfile ProfileColumn(const Column& col, size_t max_sample = 512);
ColumnProfile ProfileColumn(const Column& col, const ColumnKeyView& view,
                            size_t max_sample = 512);

// Profiles every column of `table` (optionally through a prebuilt view of
// the same table).
TableProfile ProfileTable(const Table& table, size_t max_sample = 512);
TableProfile ProfileTable(const Table& table, const TableKeyView& view,
                          size_t max_sample = 512);

// A schema-shaped profile that never scans rows: per-column types only, zero
// counts and empty distinct sets. Used when a RunContext row/cell budget
// excludes a table from value probing — downstream treats the table exactly
// like an empty (DDL-only) one.
TableProfile MetadataOnlyProfile(const Table& table);

// Profiles every table of a case. Tables are profiled in parallel on the
// shared pool (`threads` as in ResolveThreads: 0 = AUTOBI_THREADS/hardware,
// 1 = serial); output order and contents are thread-count-invariant.
std::vector<TableProfile> ProfileTables(const std::vector<Table>& tables,
                                        size_t max_sample = 512,
                                        int threads = 0);

// Row-weighted containment of A in B: the fraction of A's non-null cells
// whose value appears among B's values. Row-weighting (rather than counting
// distinct values) keeps true FK -> small-dimension joins detectable when a
// handful of distinct junk values pollutes the FK column. 0 if A is empty.
//
// Implemented as a sorted-merge intersection of the columns' distinct-hash
// vectors, switching to a galloping (exponential) search when the dependent
// side is much smaller — tiny/skewed sets probe a handful of nearby cache
// lines instead of full-width binary searches, so they never lose to the
// legacy string-map kernel. Exact modulo 64-bit FNV collisions between
// distinct canonical keys (probability ~ n^2 / 2^64; the sketch property
// tests verify equality with the string-map reference of
// tests/oracles/profile_oracle.h on randomized and corpus data).
double Containment(const ColumnProfile& a, const ColumnProfile& b);

}  // namespace autobi

#endif  // AUTOBI_PROFILE_COLUMN_PROFILE_H_
