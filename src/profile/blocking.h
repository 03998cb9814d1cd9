#ifndef AUTOBI_PROFILE_BLOCKING_H_
#define AUTOBI_PROFILE_BLOCKING_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/run_context.h"
#include "profile/column_profile.h"

namespace autobi {

// Lake-scale candidate blocking for IND discovery (PR 9; ROADMAP item 2).
//
// DiscoverInds historically enumerated all O(n^2) ordered table pairs and,
// within each pair, all column pairs — fine at the paper's ~20 tables,
// quadratic collapse at data-lake scale. Blocking replaces the all-pairs
// loops with a value-level inverted index: every distinct hash of every
// profiled column is indexed once, each prospective dependent (FK-side)
// column probes the index with a small, deterministic probe set, and only
// column pairs that share at least one probed value are admitted to the
// exact containment checks. Table pairs with zero admitted column pairs are
// never scanned at all — on a lake of disconnected islands that is the
// overwhelming majority, which is what makes end-to-end Predict near-linear
// in table count.
//
// The admission predicate is conservative by design. Each dependent column
// a probes with two classes of hashes:
//   - the `bottom_probes` hashes smallest under a SplitMix64 remix (the
//     raw FNV-1a profile hashes cluster sequential keys, so the remix is
//     what makes this a uniform sample of a's distinct values), and
//   - the top `heavy_probes` hashes by occurrence count (containment is
//     row-weighted — see Containment() — so high-weight pairs must share
//     heavy values; ties broken by hash ascending).
// The pair (a in b) is admitted iff either class finds >= a
// min_probe_fraction share of its probes in b's distinct hashes. A pair
// above a containment threshold tau either spreads its shared row weight
// over many distinct values (the uniform sample then hits at rate ~tau) or
// concentrates it in few (those values then dominate the by-count heavy
// set), so clearing BOTH fraction tests while truly contained requires a
// coordinated estimator failure — vanishingly unlikely at the default
// budgets, and verified recall-1.0 on the corpus, the TPC-H DDL schema,
// and the synthetic lakes by the blocking property tests. Columns with
// <= probe_all_below distinct values skip sampling entirely: every value
// is probed with its count, and admission compares the EXACT row-weighted
// containment against min_probe_fraction (no estimator, no failure mode).
// The exhaustive path (enabled = false) is retained as the oracle.
//
// The fraction thresholds assume the downstream containment thresholds
// (IndOptions.min_containment / component_threshold) stay well above
// min_probe_fraction — the shipped defaults give a 0.68 / 0.25 margin.
// Callers lowering containment thresholds toward min_probe_fraction must
// lower it (or disable blocking) in step; a threshold of 0 (admit any
// overlap) cannot be supported by any blocking scheme.
//
// Determinism contract: the predicate is a pure pair-local function of the
// two column profiles. BuildBlockingPlan evaluates it through the global
// index; DiscoverIndsForPairs (a scan of the few table pairs the pair memo
// missed) evaluates it per pair (ComputePairBlocking). Both produce
// identical admissions by construction, which is what keeps a partial scan
// byte-identical to a full run with blocking on.
struct BlockingOptions {
  // Master switch. false = the exhaustive all-pairs oracle.
  bool enabled = true;
  // Probe budget: k hashes smallest under a SplitMix64 remix (a uniform
  // sample of the column's distinct values).
  size_t bottom_probes = 24;
  // Probe budget: top hashes by occurrence count (count desc, hash asc).
  size_t heavy_probes = 16;
  // Columns with at most this many distinct values probe every value
  // (admission is then exact, not probabilistic).
  size_t probe_all_below = 64;
  // Minimum share of a probe class that must hit the referenced column for
  // admission (exact mode: minimum true row-weighted containment). Must be
  // comfortably below every containment threshold in use; see the header
  // comment. 0 degrades to admit-on-any-shared-value.
  double min_probe_fraction = 0.25;
};

// Counters of one blocking run (plan-level; thread-count invariant).
struct BlockingStats {
  size_t columns_indexed = 0;  // Columns contributing postings.
  size_t index_entries = 0;    // (hash -> column) postings built.
  size_t probe_hashes = 0;     // Probe hashes issued across all columns.
  // Ordered cross-table column pairs in scope vs admitted past blocking.
  size_t column_pairs_total = 0;
  size_t column_pairs_admitted = 0;
  size_t column_pairs_pruned = 0;  // total - admitted.
  // Ordered table pairs in scope vs pairs with >= 1 admitted column pair
  // (only active pairs are scanned by DiscoverInds).
  size_t table_pairs_total = 0;
  size_t table_pairs_active = 0;

  void Add(const BlockingStats& o) {
    columns_indexed += o.columns_indexed;
    index_entries += o.index_entries;
    probe_hashes += o.probe_hashes;
    column_pairs_total += o.column_pairs_total;
    column_pairs_admitted += o.column_pairs_admitted;
    column_pairs_pruned += o.column_pairs_pruned;
    table_pairs_total += o.table_pairs_total;
    table_pairs_active += o.table_pairs_active;
  }

  double PruningRate() const {
    if (column_pairs_total == 0) return 0.0;
    return static_cast<double>(column_pairs_pruned) /
           static_cast<double>(column_pairs_total);
  }
};

// Admission of one ordered table pair (dependent ti -> referenced tj):
// the admitted (dependent column, referenced column) pairs, sorted
// lexicographically — the exact iteration order of the exhaustive unary
// nested loop restricted to admitted pairs.
struct PairBlocking {
  std::vector<std::pair<int, int>> admitted;
};

// Pair-local admission: evaluates the blocking predicate for every column
// pair of (dep -> ref) directly from the two profiles. Identical to the
// (ti, tj) entry of BuildBlockingPlan over the same profiles.
PairBlocking ComputePairBlocking(const TableProfile& dep,
                                 const TableProfile& ref,
                                 const BlockingOptions& options);

// The cold-path plan: builds the global inverted index over every distinct
// hash of every profiled column, probes it with every column's probe set,
// and returns the admissions of every ACTIVE ordered table pair, keyed
// (ti, tj) — std::map order is exactly DiscoverInds' serial ti-major pair
// order restricted to active pairs. Ordered pairs absent from the map have
// zero admitted column pairs and are skipped entirely.
//
// Per-table probing fans out over `threads` (ResolveThreads semantics);
// the plan is bit-identical at any thread count. If `ctx` is non-null,
// probing polls RunContext::StopRequested at dependent-table boundaries;
// tables skipped after a trip contribute no admissions (the caller's
// stage-degradation marking covers this, as the same stop gates the scans
// downstream). `stats`, if non-null, receives the plan counters.
std::map<std::pair<int, int>, PairBlocking> BuildBlockingPlan(
    const std::vector<TableProfile>& profiles, const BlockingOptions& options,
    BlockingStats* stats = nullptr, int threads = 0,
    const RunContext* ctx = nullptr);

}  // namespace autobi

#endif  // AUTOBI_PROFILE_BLOCKING_H_
