#ifndef AUTOBI_GRAPH_EDMONDS_H_
#define AUTOBI_GRAPH_EDMONDS_H_

#include <optional>
#include <vector>

namespace autobi {

// A directed arc for the arborescence solvers.
struct Arc {
  int src = -1;
  int dst = -1;
  double weight = 0.0;
};

// Reusable scratch arena for Chu-Liu/Edmonds (1-MCA). The contraction
// algorithm is iterative: each contraction level owns its per-vertex arrays
// (cheapest in-arc, cycle ids, component map) and its contracted arc buffer,
// all held by the workspace and reused across solves. After the first few
// solves every vector has reached its high-water capacity and a solve
// performs no heap allocation — the property the k-MCA-CC branch-and-bound
// relies on when it runs one workspace per worker slot (see
// ARCHITECTURE.md, "Fast k-MCA-CC").
//
// The optional (arc_edge, edge_mask) pair turns the level-0 arc array into a
// masked view: arc i participates only when arc_edge[i] < 0 (always-on arcs,
// e.g. the k-MCA artificial-root arcs) or edge_mask[arc_edge[i]] != 0. This
// lets every branch-and-bound node solve over one shared augmented arc array
// instead of re-materializing a filtered copy per node.
//
// Tie-breaks are identical to the original recursive implementation (first
// strictly-cheaper arc in index order wins), so the selected arc set — and
// its order — is bit-identical to it; the tests keep that implementation as
// an oracle (tests/oracles/solver_oracle.h).
class EdmondsWorkspace {
 public:
  // Solves 1-MCA rooted at `root` over the (optionally masked) arc view.
  // Returns false when some vertex is unreachable from the root; on success
  // selected() holds the chosen indices into `arcs`.
  bool Solve(int num_vertices, const std::vector<Arc>& arcs, int root,
             const int* arc_edge = nullptr, const char* edge_mask = nullptr);

  // Arc indices chosen by the last successful Solve.
  const std::vector<int>& selected() const { return selected_; }

 private:
  // Scratch for one contraction level. Level 0 reads the caller's arcs;
  // level l >= 1 reads `arcs`, built by contracting level l-1.
  struct Level {
    int n = 0;
    int root = 0;
    int num_cycles = 0;
    std::vector<int> best;      // vertex -> cheapest in-arc (this level).
    std::vector<int> color;     // cycle-detection DFS state.
    std::vector<int> cycle_id;  // vertex -> cycle index or -1.
    std::vector<int> comp;      // vertex -> next-level component.
    std::vector<char> is_entry;
    std::vector<Arc> arcs;        // This level's arcs (unused at level 0).
    std::vector<int> parent_arc;  // This level's arc -> previous level's arc.
  };

  Level& level(size_t l);

  std::vector<Level> levels_;
  std::vector<int> path_;  // Shared cycle-detection path scratch.
  std::vector<int> sel_a_;
  std::vector<int> sel_b_;
  std::vector<int> selected_;
};

// Chu-Liu/Edmonds' algorithm for the Minimum-Cost Arborescence problem
// (1-MCA, Table 1): given a digraph on `num_vertices` vertices and a root,
// find the minimum-weight set of arcs such that every vertex other than the
// root has in-degree exactly 1 and all vertices are reachable from the root.
//
// Returns the indices (into `arcs`) of the selected arcs, or nullopt when no
// spanning arborescence rooted at `root` exists. Multi-arcs are allowed;
// self-loops and arcs into the root are ignored. O(V * E).
//
// Convenience wrapper over EdmondsWorkspace (one thread-local workspace per
// calling thread); hot paths should own a workspace instead.
std::optional<std::vector<int>> SolveMinCostArborescence(
    int num_vertices, const std::vector<Arc>& arcs, int root);

// Sum of the weights of `selected` arcs.
double ArcSetWeight(const std::vector<Arc>& arcs,
                    const std::vector<int>& selected);

}  // namespace autobi

#endif  // AUTOBI_GRAPH_EDMONDS_H_
