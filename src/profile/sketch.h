#ifndef AUTOBI_PROFILE_SKETCH_H_
#define AUTOBI_PROFILE_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <string>
#include <vector>

#include "table/table.h"

namespace autobi {

// Hash-sketch primitives for the profiling layer. The join-discovery kernels
// (Containment, CompositeContainment, the KMV pre-screen of DiscoverInds)
// operate on stable 64-bit hashes of canonical keys instead of on the keys
// themselves: candidate generation then touches only contiguous sorted
// uint64 vectors — no per-pair string hashing, no pointer chasing.
//
// Stability contract: StableHash64 is FNV-1a with the classic 64-bit
// offset/prime constants. It is a pure function of the key bytes — no seed,
// no address-sensitivity — so hashes are identical across runs, thread
// counts, and platforms, and two columns agree on a value's hash iff they
// agree on its canonical key (modulo 64-bit collisions; see the exactness
// note on Containment in column_profile.h).

// Stable FNV-1a 64-bit hash of a byte string. This is the same hash the EMD
// feature has always used for its hashed-key distribution (profile/emd.cc),
// which keeps the two layers' views of a value consistent.
inline uint64_t StableHash64(std::string_view s) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Maps a 64-bit hash to [0, 1), monotonically in the hash value. Matches the
// historical HashToUnit of profile/emd.cc: (h >> 11) * 2^-53.
inline double HashToUnitInterval(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Sorted-ascending distinct hashes with parallel occurrence counts. Equal
// hashes (collisions within a column) are merged by summing counts so the
// hash vector is strictly increasing — a precondition of the sorted-merge
// intersection in Containment and of the KMV prefix views below.
struct SortedHashCounts {
  std::vector<uint64_t> hashes;
  std::vector<int32_t> counts;
};

// Builds the sorted hash/count vectors from a distinct-value map. Historical
// helper of the string-map profiling path; production profiles now fill
// these vectors directly from the columnar key view (table/key_view.h), so
// this survives for the legacy-oracle scaffolding and tests.
SortedHashCounts BuildSortedHashCounts(
    const std::unordered_map<std::string, int32_t>& distinct);

// KMV (bottom-k minimum values) containment estimate. Because the per-column
// hash vectors are sorted ascending, the bottom-k sketch of a column is
// simply the first min(k, n) entries — no extra storage is kept per column.
//
// The estimate restricts both sides to the hash region [0, tau] where
// tau = min(k-th smallest hash of A, k-th smallest hash of B) (or the
// column's max hash when it has <= k distinct values). Below tau both
// columns' distinct sets are fully known, and a uniform-hashing argument
// makes A's below-tau values a uniform sample of A's distinct values; the
// row-weighted hit ratio over that sample estimates the exact row-weighted
// containment. `sample` is the number of A-distinct values that
// participated — callers must require a minimum sample before trusting the
// estimate. (The PR 5 IND pre-screen built on this was retired in PR 9 in
// favor of inverted-index blocking — profile/blocking.h — which prunes
// whole table pairs instead of individual merges; the kernel survives as a
// standalone estimator for tests and tooling.)
struct KmvEstimate {
  double containment = 0.0;  // Estimated row-weighted containment of A in B.
  size_t sample = 0;         // Distinct A-values below the threshold.
};
KmvEstimate EstimateContainment(const std::vector<uint64_t>& a_hashes,
                                const std::vector<int32_t>& a_counts,
                                const std::vector<uint64_t>& b_hashes,
                                size_t k);

// SplitMix64 finalizer: a strong, stable 64 -> 64 bit mixer. Shared by the
// k-MCA-CC memo signatures and the content hashes below so every layer's
// notion of "mixing" agrees.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Content hash of a column: a stable function of the column name, declared
// type, and every cell (nulls included, order-sensitive). Two columns have
// equal hashes iff they are byte-identical (modulo 64-bit collisions), across
// runs, platforms and thread counts. This is the key of the cross-request
// profile caches (core/predict_cache.h): an unchanged column re-uploaded to
// the prediction service hashes identically and skips re-profiling.
uint64_t ColumnContentHash(const Column& column);

// Content hash of a whole table: name + per-column content hashes, order
// sensitive, SplitMix64-combined. Cost is one linear pass over the cell
// bytes — roughly an order of magnitude cheaper than profiling the table.
uint64_t TableContentHash(const Table& table);

// Content hash of an ordered table set (a whole prediction case).
uint64_t TablesContentHash(const std::vector<Table>& tables);

// TablesContentHash recomposed from precomputed per-table content hashes
// (table_hashes[i] == TableContentHash(tables[i])). Lets callers that
// already hashed every table (AutoBi::Predict hashes each table once and
// reuses the hashes for the profile, pair and solve keys) derive the case
// hash without another pass over the cell bytes.
uint64_t TablesContentHashFromHashes(const std::vector<uint64_t>& table_hashes);

// Streaming hash of the composite tuple of `columns` at row r. Byte-for-byte
// equivalent to StableHash64 of the escaped rendering "v1|v2|...|" with '|'
// and '\' backslash-escaped inside values, but never materializes the
// concatenated string. Returns false if any cell is null (null-containing
// tuples do not participate in composite containment, matching SQL key
// semantics).
bool TupleHash(const Table& table, const std::vector<int>& columns, size_t r,
               uint64_t* out, std::string* scratch);

}  // namespace autobi

#endif  // AUTOBI_PROFILE_SKETCH_H_
