#ifndef AUTOBI_PROFILE_SKETCH_H_
#define AUTOBI_PROFILE_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "table/table.h"

namespace autobi {

// Hash primitives for the profiling layer. The join-discovery kernels
// (Containment, CompositeContainment, the blocking probes of
// profile/blocking.h) operate on stable 64-bit hashes of canonical keys
// instead of on the keys themselves: candidate generation then touches only
// contiguous sorted uint64 vectors — no per-pair string hashing, no pointer
// chasing.
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

// SplitMix64 finalizer: a strong, stable 64 -> 64 bit mixer. Shared by the
// k-MCA-CC memo signatures and the content hashes below so every layer's
// notion of "mixing" agrees.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Content hash of a whole table: a stable function of the table name and,
// per column in order, its name, declared type and every cell (nulls
// included, order-sensitive), SplitMix64-combined. Two tables have equal
// hashes iff they are byte-identical (modulo 64-bit collisions), across runs,
// platforms and thread counts. This is the key of the cross-request profile
// caches (core/predict_cache.h): an unchanged table re-uploaded to the
// prediction service hashes identically and skips re-profiling. Cost is one
// linear pass over the cell bytes — roughly an order of magnitude cheaper
// than profiling the table.
uint64_t TableContentHash(const Table& table);

// Content hash of an ordered table set (a whole prediction case).
uint64_t TablesContentHash(const std::vector<Table>& tables);

// TablesContentHash recomposed from precomputed per-table content hashes
// (table_hashes[i] == TableContentHash(tables[i])). Lets callers that
// already hashed every table (AutoBi::Predict hashes each table once and
// reuses the hashes for the profile, pair and solve keys) derive the case
// hash without another pass over the cell bytes.
uint64_t TablesContentHashFromHashes(const std::vector<uint64_t>& table_hashes);

}  // namespace autobi

#endif  // AUTOBI_PROFILE_SKETCH_H_
