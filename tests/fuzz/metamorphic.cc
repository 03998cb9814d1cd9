#include "tests/fuzz/metamorphic.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/strings.h"
#include "graph/kmca.h"
#include "graph/kmca_cc.h"

namespace autobi {

namespace {

// Rebuilds `g` with every edge passed through `map_vertex` and
// `map_probability`, preserving edge order (so conflict-group structure and
// 1:1 pairing carry over).
JoinGraph TransformGraph(const JoinGraph& g, const std::vector<int>& perm,
                         double prob_exponent) {
  JoinGraph out(g.num_vertices());
  for (const JoinEdge& e : g.edges()) {
    out.AddEdge(perm[size_t(e.src)], perm[size_t(e.dst)], e.src_columns,
                e.dst_columns, std::pow(e.probability, prob_exponent),
                e.one_to_one, e.pair_id);
  }
  return out;
}

double RelTolerance(double a, double b) {
  return 1e-6 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace

MetamorphicOutcome CheckJoinGraphMetamorphic(const JoinGraph& g,
                                             double penalty_weight, Rng& rng,
                                             const MetamorphicOptions& opt) {
  MetamorphicOutcome out;
  KmcaCcOptions cc_opt;
  cc_opt.penalty_weight = penalty_weight;
  cc_opt.max_one_mca_calls = opt.max_one_mca_calls;

  auto solve = [&](const JoinGraph& graph, const KmcaCcOptions& o,
                   bool* exhausted) {
    KmcaCcStats stats;
    KmcaResult r = SolveKmcaCc(graph, o, &stats);
    *exhausted = stats.budget_exhausted;
    return r;
  };

  bool exhausted = false;
  KmcaResult base = solve(g, cc_opt, &exhausted);

  // Property 1: structural validity holds even for budget-exhausted solves.
  out.check = ValidateKmcaResult(g, base, penalty_weight,
                                 /*enforce_fk_once=*/true, "kmca_cc");
  if (!out.check.ok) return out;
  if (exhausted) {
    out.skipped = true;
    return out;
  }

  // Property 2: vertex-relabeling invariance of the optimal objective.
  std::vector<int> perm(size_t(g.num_vertices()));
  std::iota(perm.begin(), perm.end(), 0);
  rng.Shuffle(perm);
  JoinGraph relabeled = TransformGraph(g, perm, /*prob_exponent=*/1.0);
  KmcaResult perm_result = solve(relabeled, cc_opt, &exhausted);
  if (exhausted) {
    out.skipped = true;
    return out;
  }
  if (std::fabs(perm_result.cost - base.cost) >
      RelTolerance(perm_result.cost, base.cost)) {
    out.check = CheckFail(
        "relabel_cost_mismatch",
        StrFormat("optimal cost %.17g, after vertex relabeling %.17g",
                  base.cost, perm_result.cost));
    return out;
  }

  // Property 3: uniform weight scaling (P -> P^c, penalty -> c * penalty
  // scales every term of Equation 14 by c).
  double c = rng.NextDouble(0.5, 2.0);
  std::vector<int> identity(size_t(g.num_vertices()));
  std::iota(identity.begin(), identity.end(), 0);
  JoinGraph scaled = TransformGraph(g, identity, c);
  KmcaCcOptions scaled_opt = cc_opt;
  scaled_opt.penalty_weight = c * penalty_weight;
  KmcaResult scaled_result = solve(scaled, scaled_opt, &exhausted);
  if (exhausted) {
    out.skipped = true;
    return out;
  }
  if (std::fabs(scaled_result.cost - c * base.cost) >
      RelTolerance(scaled_result.cost, c * base.cost)) {
    out.check = CheckFail(
        "scaling_cost_mismatch",
        StrFormat("cost %.17g scaled by c=%.6g gives %.17g, solver returned "
                  "%.17g",
                  base.cost, c, c * base.cost, scaled_result.cost));
    return out;
  }

  // Property 4: optimal k is non-increasing in the penalty weight.
  KmcaCcOptions hi_opt = cc_opt;
  hi_opt.penalty_weight = 1.5 * penalty_weight;
  KmcaResult hi = solve(g, hi_opt, &exhausted);
  if (exhausted) {
    out.skipped = true;
    return out;
  }
  if (hi.k > base.k) {
    out.check = CheckFail(
        "penalty_monotonicity_violated",
        StrFormat("k=%d at penalty %.6g but k=%d at penalty %.6g", base.k,
                  penalty_weight, hi.k, hi_opt.penalty_weight));
    return out;
  }
  KmcaCcOptions lo_opt = cc_opt;
  lo_opt.penalty_weight = 0.6 * penalty_weight;
  KmcaResult lo = solve(g, lo_opt, &exhausted);
  if (exhausted) {
    out.skipped = true;
    return out;
  }
  if (lo.k < base.k) {
    out.check = CheckFail(
        "penalty_monotonicity_violated",
        StrFormat("k=%d at penalty %.6g but k=%d at penalty %.6g", base.k,
                  penalty_weight, lo.k, lo_opt.penalty_weight));
    return out;
  }

  // Property 5: the FK-once ablation degenerates to plain k-MCA exactly.
  KmcaCcOptions no_cc = cc_opt;
  no_cc.enforce_fk_once = false;
  KmcaResult ablated = SolveKmcaCc(g, no_cc);
  KmcaResult plain = SolveKmca(g, penalty_weight);
  if (ablated.edge_ids != plain.edge_ids) {
    out.check = CheckFail("fk_once_ablation_mismatch",
                          "SolveKmcaCc(enforce_fk_once=false) differs from "
                          "SolveKmca");
    return out;
  }

  // Property 6: EMS feasibility on the optimal backbone.
  out.check = CheckEmsOnBackbone(g, base.edge_ids);
  return out;
}

}  // namespace autobi
