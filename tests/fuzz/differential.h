#ifndef AUTOBI_TESTS_FUZZ_DIFFERENTIAL_H_
#define AUTOBI_TESTS_FUZZ_DIFFERENTIAL_H_

#include <string>
#include <vector>

#include "graph/join_graph.h"
#include "graph/kmca.h"
#include "tests/fuzz/generator.h"

namespace autobi {

// Outcome of one fuzz check. `kind` is a stable machine-readable tag (used
// in repro filenames and failure triage); `message` carries the details.
struct CheckResult {
  bool ok = true;
  std::string kind;
  std::string message;
};

inline CheckResult CheckFail(std::string kind, std::string message) {
  return CheckResult{false, std::move(kind), std::move(message)};
}

// Structural validity of a solver result on `graph`: the edge set is a
// k-arborescence (+ FK-once when `enforce_fk_once`), and the reported k and
// cost agree with recomputation. `solver` prefixes the failure kind.
CheckResult ValidateKmcaResult(const JoinGraph& graph, const KmcaResult& r,
                               double penalty_weight, bool enforce_fk_once,
                               const char* solver);

// EMS recall edges grown on `backbone` must respect FK-once (Equation 18),
// acyclicity (Equation 19), the tau threshold, and use at most one
// orientation per 1:1 pair.
CheckResult CheckEmsOnBackbone(const JoinGraph& graph,
                               const std::vector<int>& backbone);

// Cross-checks the full solver stack on one instance against the exhaustive
// oracles, asserting
//   - SolveKmcaCc vs BruteForceKmcaCc: equal objective value (Equation 14),
//   - SolveKmca vs BruteForceKmca: equal objective value (Equation 8),
//   - every returned edge set passes IsKArborescence (+ SatisfiesFkOnce for
//     the constrained solve) and its reported cost/k are self-consistent,
//   - SolveKmca(cost) <= SolveKmcaCc(cost): the relaxation bound,
//   - enforce_fk_once=false degenerates to plain k-MCA (identical edge ids),
//   - repeated solves return byte-identical edge sets (determinism),
//   - EMS on the k-MCA-CC backbone respects FK-once, acyclicity, tau, and
//     the one-orientation-per-1:1-pair rule.
// Requires graph.num_edges() <= 20 (the oracles are O(2^m)).
CheckResult CheckJoinGraphDifferential(const JoinGraph& graph,
                                       double penalty_weight);

// Cross-checks SolveMinCostArborescence (Chu-Liu/Edmonds) against
// BruteForceMinArborescence: equal feasibility, equal total weight, and a
// valid spanning arborescence whenever feasible.
CheckResult CheckArcDifferential(const ArcInstance& instance);

}  // namespace autobi

#endif  // AUTOBI_TESTS_FUZZ_DIFFERENTIAL_H_
