#ifndef AUTOBI_TESTS_FUZZ_METAMORPHIC_H_
#define AUTOBI_TESTS_FUZZ_METAMORPHIC_H_

#include "common/rng.h"
#include "graph/join_graph.h"
#include "tests/fuzz/differential.h"

namespace autobi {

// Metamorphic checks for instances too large for the 2^m brute-force
// oracles. Each property is a provable invariant of the *optimal* objective,
// so any solve that exhausts the branch-and-bound budget (and may therefore
// be suboptimal) skips the case instead of reporting a false mismatch.
//
// Properties:
//   1. Structural validity + self-consistency of the k-MCA-CC result.
//   2. Vertex-relabeling invariance: permuting vertex ids leaves the optimal
//      objective value unchanged.
//   3. Uniform weight scaling: raising every probability to the power c > 0
//      scales every weight by c (w = -log P); with penalty' = c * penalty
//      the optimal objective scales by exactly c.
//   4. Penalty monotonicity: the optimal component count k is non-increasing
//      in the penalty weight (for any optimal solutions J1, J2 at p1 < p2,
//      adding their optimality inequalities gives (k2-k1)(p2-p1) <= 0).
//   5. enforce_fk_once=false is identical to plain k-MCA (same edge ids).
//   6. EMS feasibility on the backbone (FK-once, acyclicity, tau, 1:1 rule).
struct MetamorphicOutcome {
  CheckResult check;
  // True when the branch-and-bound budget was exhausted and the equality
  // properties were skipped (the structural checks still ran).
  bool skipped = false;
};

struct MetamorphicOptions {
  // Branch-and-bound budget per solve; exhausting it skips the case.
  long max_one_mca_calls = 200000;
};

MetamorphicOutcome CheckJoinGraphMetamorphic(const JoinGraph& graph,
                                             double penalty_weight, Rng& rng,
                                             const MetamorphicOptions&
                                                 options = {});

}  // namespace autobi

#endif  // AUTOBI_TESTS_FUZZ_METAMORPHIC_H_
