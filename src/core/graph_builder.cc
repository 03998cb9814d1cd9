#include "core/graph_builder.h"

#include <algorithm>
#include <stdexcept>

#include "common/parallel.h"
#include "fuzz/faultpoints.h"

namespace autobi {

std::vector<double> ScoreCandidates(const std::vector<Table>& tables,
                                    const std::vector<TableProfile>& profiles,
                                    const std::vector<JoinCandidate>& candidates,
                                    const LocalModel& model, bool schema_only,
                                    int threads, const RunContext* run_ctx) {
  FeatureContext ctx;
  ctx.tables = &tables;
  ctx.profiles = &profiles;
  ctx.frequency = &model.frequency();
  // Featurize + score (the expensive part) in parallel; LocalModel::Score is
  // const and stateless.
  return ParallelMap(
      candidates.size(),
      [&](size_t i) {
        // Item-boundary stop poll: skipped candidates are marked with a
        // sentinel and dropped during the serial edge-add pass below.
        if (run_ctx != nullptr && run_ctx->StopRequested()) {
          return kSkippedCandidateScore;
        }
        // Fault point: a worker exception inside a parallel region. The pool
        // rethrows it from the lowest-indexed failing iteration and the
        // service boundary converts it to kInternal.
        if (FaultPoints::Global().Fire("parallel.task")) {
          throw std::runtime_error("injected parallel task fault");
        }
        return model.Score(ctx, candidates[i], schema_only);
      },
      threads);
}

JoinGraph BuildJoinGraphFromScores(size_t num_tables,
                                   const std::vector<JoinCandidate>& candidates,
                                   const std::vector<double>& probabilities,
                                   StageHealth* health) {
  JoinGraph graph(static_cast<int>(num_tables));
  size_t skipped = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const JoinCandidate& cand = candidates[i];
    double p = probabilities[i];
    if (p == kSkippedCandidateScore) {
      ++skipped;
      continue;
    }
    if (cand.one_to_one) {
      graph.AddOneToOneEdge(cand.src.table, cand.dst.table, cand.src.columns,
                            cand.dst.columns, p);
    } else {
      graph.AddEdge(cand.src.table, cand.dst.table, cand.src.columns,
                    cand.dst.columns, p);
    }
  }
  if (skipped > 0 && health != nullptr) {
    health->MarkDegraded(
        "run stopped during local inference; unscored candidates dropped");
  }
  return graph;
}

namespace {

// Path-halving union-find over vertex ids.
int FindRoot(std::vector<int>& parent, int v) {
  while (parent[size_t(v)] != v) {
    parent[size_t(v)] = parent[size_t(parent[size_t(v)])];
    v = parent[size_t(v)];
  }
  return v;
}

}  // namespace

std::vector<GraphComponent> PartitionJoinGraph(const JoinGraph& graph) {
  const int n = graph.num_vertices();
  std::vector<int> parent(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) parent[size_t(v)] = v;
  for (const JoinEdge& e : graph.edges()) {
    int a = FindRoot(parent, e.src);
    int b = FindRoot(parent, e.dst);
    // Union by smaller root id: the root IS the component's smallest vertex,
    // which makes the output ordering below trivially deterministic.
    if (a == b) continue;
    if (a < b) {
      parent[size_t(b)] = a;
    } else {
      parent[size_t(a)] = b;
    }
  }
  // Roots in ascending order = components ordered by smallest vertex.
  std::vector<int> comp_of(size_t(n), -1);
  std::vector<GraphComponent> out;
  for (int v = 0; v < n; ++v) {
    int r = FindRoot(parent, v);
    if (comp_of[size_t(r)] < 0) {
      comp_of[size_t(r)] = int(out.size());
      out.emplace_back();
    }
    out[size_t(comp_of[size_t(r)])].vertices.push_back(v);
  }
  for (const JoinEdge& e : graph.edges()) {
    out[size_t(comp_of[size_t(FindRoot(parent, e.src))])].edge_ids.push_back(
        e.id);
  }
  return out;
}

JoinGraph BuildComponentGraph(const JoinGraph& graph,
                              const GraphComponent& comp) {
  JoinGraph local(int(comp.vertices.size()));
  auto local_id = [&](int v) {
    return int(std::lower_bound(comp.vertices.begin(), comp.vertices.end(), v) -
               comp.vertices.begin());
  };
  for (int id : comp.edge_ids) {
    const JoinEdge& e = graph.edge(id);
    local.AddEdge(local_id(e.src), local_id(e.dst), e.src_columns,
                  e.dst_columns, e.probability, e.one_to_one, e.pair_id);
  }
  return local;
}

}  // namespace autobi
