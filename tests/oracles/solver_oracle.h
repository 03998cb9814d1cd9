#ifndef AUTOBI_TESTS_ORACLES_SOLVER_ORACLE_H_
#define AUTOBI_TESTS_ORACLES_SOLVER_ORACLE_H_

#include <optional>
#include <vector>

#include "graph/edmonds.h"
#include "graph/join_graph.h"
#include "graph/kmca.h"
#include "graph/kmca_cc.h"

namespace autobi {

// Frozen reference solvers for the differential tests, the fuzz harness and
// the old-vs-new benches. Nothing under src/ links these.

// The original recursive, allocating Chu-Liu/Edmonds. EdmondsWorkspace keeps
// its tie-breaks (first strictly-cheaper arc in index order wins), so the
// selected arc set — and its order — must match this one arc for arc.
std::optional<std::vector<int>> SolveMinCostArborescenceLegacy(
    int num_vertices, const std::vector<Arc>& arcs, int root);

// The original serial depth-first k-MCA-CC branch-and-bound, solving a
// freshly masked k-MCA at every node. An exact reference without the 2^m
// edge cap of the brute-force references below, and the "before" column of
// bench_fig6_kmcacc. `options.threads` is ignored; `stats->memo_hits` and
// `stats->waves` stay 0. Carries its own copy of the greedy thinned
// fallback, so a budget-exhausted solve still returns a feasible result.
KmcaResult SolveKmcaCcLegacy(const JoinGraph& graph,
                             const KmcaCcOptions& options = {},
                             KmcaCcStats* stats = nullptr);

// Exhaustive references. Exponential in the number of edges: callers must
// keep instances small (<= ~20 edges).

// 1-MCA: enumerates every in-arc choice per non-root vertex and keeps the
// cheapest acyclic spanning selection. Returns arc indices.
std::optional<std::vector<int>> BruteForceMinArborescence(
    int num_vertices, const std::vector<Arc>& arcs, int root);

// k-MCA: enumerates all edge subsets, keeps the cheapest k-arborescence
// under Equation 8.
KmcaResult BruteForceKmca(const JoinGraph& graph, double penalty_weight);

// k-MCA-CC: as above, additionally requiring FK-once.
KmcaResult BruteForceKmcaCc(const JoinGraph& graph, double penalty_weight);

}  // namespace autobi

#endif  // AUTOBI_TESTS_ORACLES_SOLVER_ORACLE_H_
