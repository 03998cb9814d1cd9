#ifndef AUTOBI_CORE_CANDIDATES_H_
#define AUTOBI_CORE_CANDIDATES_H_

#include <cstdint>
#include <vector>

#include "common/run_context.h"
#include "features/featurizer.h"
#include "profile/ind.h"
#include "profile/ucc.h"
#include "table/table.h"

namespace autobi {

class PredictCache;

struct CandidateGenOptions {
  UccOptions ucc;
  IndOptions ind;
  // A candidate is 1:1-shaped when both endpoints have distinct ratio at
  // least this and are mutually contained (Appendix A, "separate N-1 and 1-1
  // classifiers").
  double one_to_one_distinct_ratio = 0.95;
  double one_to_one_min_containment = 0.9;
  // When a table pair has no data to probe (e.g. tables parsed from DDL, or
  // tables excluded from value probing by a RunContext row/cell budget),
  // fall back to metadata-screened candidates so schema-only prediction
  // still works (extension beyond the paper).
  bool metadata_fallback_for_empty_tables = true;
  // Worker threads for profiling/UCC (per table) and IND discovery (per
  // table pair). ResolveThreads semantics: 0 = AUTOBI_THREADS/hardware,
  // 1 = serial. Also the default for ind.threads when that is 0. The
  // candidate set produced is identical at any thread count.
  int threads = 0;
};

// Pair-memo score of a candidate the caller still has to score (a real
// calibrated score lies in [0, 1]).
inline constexpr double kUnscoredCandidate = -2.0;

// An unordered table pair {i < j} that missed the pair memo and was
// scanned, with its memo key. `i_first` records the canonical orientation:
// true when table i has the lower (or equal) content hash.
struct MemoPair {
  int i = 0;
  int j = 0;
  bool i_first = true;
  uint64_t key = 0;
};

// Output of the candidate-generation stage (UCC + IND discovery, the first
// two latency components of Figure 5(b)).
struct CandidateSet {
  std::vector<TableProfile> profiles;
  std::vector<std::vector<Ucc>> uccs;
  std::vector<JoinCandidate> candidates;
  // Stage latencies in seconds.
  double ucc_seconds = 0.0;
  double ind_seconds = 0.0;
  // Observability counters of the IND stage (screens hit, exact checks run,
  // composite sets built/truncated); includes the reverse-containment
  // composite sets built by candidate conversion.
  IndStats ind_stats;
  // Degradation markers (RunContext budgets / deadline / cancellation; see
  // ARCHITECTURE.md). Healthy runs leave both untouched.
  StageHealth ucc_health;
  StageHealth ind_health;
  // Profiling-stage cache observability: tables whose profile + UCCs came
  // from the cross-request PredictCache, tables deduplicated against an
  // identical table earlier in the same case (content-hash equality), and
  // tables profiled from scratch this run.
  size_t profile_cache_hits = 0;
  size_t profile_dedup_hits = 0;
  size_t tables_profiled = 0;
  // Pair memo (a cache passed, run not stopped at the IND stage):
  // memo_scores[k] is candidates[k]'s cached calibrated score, or
  // kUnscoredCandidate when the caller must score it (every candidate, when
  // the memo was not consulted). memo_misses are the scanned pairs,
  // ascending — what PublishPairEntries stores.
  std::vector<double> memo_scores;
  std::vector<MemoPair> memo_misses;
  // Unordered table pairs reused from the pair memo vs scanned this run.
  size_t pairs_reused = 0;
  size_t pairs_scanned = 0;
};

// Profiles the tables, discovers UCCs and approximate INDs, and converts
// them into deduplicated join candidates. N:1 candidates keep the FK->PK
// direction of their IND; 1:1-shaped pairs are emitted once (from the
// lower-indexed table) with one_to_one = true.
//
// If `ctx` is non-null, the stage honours its budgets and deadline/cancel
// flag: tables over the row/cell budget keep metadata-only profiles (and
// flow through the same name-based fallback as empty DDL tables), the
// deduplicated candidate list is truncated to max_candidate_pairs in its
// deterministic sorted order, and a tripped deadline/cancel skips remaining
// per-table / per-pair work. Whatever degrades is recorded in
// ucc_health/ind_health; a null or untripped context yields byte-identical
// output to a context-free run.
//
// This form is uncached: it hashes the budget-admitted tables (HashTables)
// and runs the one below with full-feature scoring (schema_only = false)
// and no PredictCache.
CandidateSet GenerateCandidates(const std::vector<Table>& tables,
                                const CandidateGenOptions& options = {},
                                const RunContext* ctx = nullptr);

// The form the prediction pipeline calls (core/auto_bi.cc).
// `table_hashes[i]` is TableContentHash(tables[i]) (HashTables), computed
// once per predict and shared by the profile, pair and solve keys.
// `cache` (core/predict_cache.h; may be null, not owned) is the
// cross-request cache the serving layer shares across sessions. With a
// cache (and ctx not already stopped — a stopped run consults no memo),
// tables whose content hash (⊕ the UccOptions fingerprint) matches a cached
// entry reuse its profile + UCCs instead of re-scanning (fresh entries are
// inserted after profiling), and every unordered table pair is first looked
// up in the cache's pair memo, serially in index order, under a key of the two
// tables' hashes (sorted), their admission under ctx's budgets, the
// candidate options and `schema_only` (which local-model variant the cached
// scores come from). Hit pairs contribute their cached candidates and
// scores (memo_scores); only missed pairs are scanned — exactly as an
// uncached run scans them when every pair missed, pair-locally otherwise
// (DiscoverIndsForPairs). The candidate list equals an uncached
// run's. The caller scores the unscored candidates and, if the run stays
// healthy, publishes the scanned pairs with PublishPairEntries.
CandidateSet GenerateCandidates(const std::vector<Table>& tables,
                                const std::vector<uint64_t>& table_hashes,
                                const CandidateGenOptions& options,
                                const RunContext* ctx, bool schema_only,
                                PredictCache* cache);

// Stores the scanned pairs of `set` (set.memo_misses) in `cache`'s pair
// memo, each with its candidates and their final calibrated scores
// (`probabilities`, aligned with set.candidates). Call only after a healthy
// run: a degraded one may have truncated or skipped candidates.
void PublishPairEntries(const CandidateSet& set,
                        const std::vector<double>& probabilities,
                        PredictCache* cache);

// Everything profiling depends on besides the table bytes, folded into the
// profile-cache key so an options change can never serve a stale entry.
uint64_t UccOptionsFingerprint(const UccOptions& ucc);

// Everything candidate generation depends on besides the table bytes and
// the run's budgets (UccOptionsFingerprint included; thread counts
// excluded — they never change the output). Part of the pair-memo and
// solve-memo keys.
uint64_t CandidateOptionsFingerprint(const CandidateGenOptions& options);

// TableContentHash of each table, in parallel. With `admitted_only`, the
// tables a RunContext row/cell budget excludes from value probing are not
// hashed (their slot is 0): an uncached run needs hashes only to dedup
// admitted tables, and hashing an over-budget table would add the full pass
// over its bytes that the budget exists to bound. A cached run needs every
// hash, since the pair and solve keys cover all tables.
std::vector<uint64_t> HashTables(const std::vector<Table>& tables,
                                 const RunContext* ctx, bool admitted_only,
                                 int threads);

}  // namespace autobi

#endif  // AUTOBI_CORE_CANDIDATES_H_
