// Multilevel graph coarsening via maximal matching — the standard first
// phase of multilevel partitioners (METIS-style) and multigrid solvers,
// built on the paper's deterministic parallel greedy matching.
//
// Each level computes a maximal matching and contracts every matched pair
// into a single coarse vertex (unmatched vertices survive alone). A
// maximal matching guarantees no two adjacent vertices both stay
// uncontracted, so each level shrinks the graph by up to 2x; because the
// matching is the deterministic lexicographically-first one, the entire
// coarsening hierarchy is reproducible across runs and thread counts.
//
// Build & run:  ./examples/graph_coarsening [n] [m] [seed]
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "pargreedy.hpp"

namespace {

using namespace pargreedy;

struct Level {
  CsrGraph graph;
  std::vector<VertexId> parent;  // fine vertex -> coarse vertex id
};

/// One coarsening level: contract a maximal matching of g.
Level coarsen(const CsrGraph& g, uint64_t seed) {
  const EdgeOrder order = EdgeOrder::random(g.num_edges(), seed);
  const MatchResult mm = mm_prefix(g, order, g.num_edges() / 50 + 1);

  Level out;
  out.parent.assign(g.num_vertices(), kInvalidVertex);
  // Matched pairs share a coarse id (owned by the smaller endpoint);
  // unmatched vertices get their own.
  VertexId next_id = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (out.parent[v] != kInvalidVertex) continue;
    const VertexId partner = mm.matched_with[v];
    out.parent[v] = next_id;
    if (partner != kInvalidVertex && partner > v) out.parent[partner] = next_id;
    ++next_id;
  }
  EdgeList coarse_edges(next_id);
  for (const Edge& e : g.edges()) {
    const VertexId cu = out.parent[e.u];
    const VertexId cv = out.parent[e.v];
    if (cu != cv) coarse_edges.add(cu, cv);
  }
  // from_edges dedupes the multi-edges.
  out.graph = CsrGraph::from_edges(std::move(coarse_edges));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t n = argc > 1 ? std::stoull(argv[1]) : 200'000;
  const uint64_t m = argc > 2 ? std::stoull(argv[2]) : 5 * n;
  const uint64_t seed = argc > 3 ? std::stoull(argv[3]) : 3;

  CsrGraph g = CsrGraph::from_edges(random_graph_nm(n, m, seed));
  std::cout << "graph_coarsening: start n=" << g.num_vertices()
            << " m=" << g.num_edges() << "\n\n";

  Timer timer;
  Table table({"level", "n", "m", "shrink", "matched%"});
  uint64_t level = 0;
  table.add_row({"0", fmt_count(int64_t(g.num_vertices())),
                 fmt_count(int64_t(g.num_edges())), "-", "-"});
  while (g.num_vertices() > 256 && level < 20) {
    const uint64_t before = g.num_vertices();
    const Level next = coarsen(g, seed + 1000 + level);
    const uint64_t after = next.graph.num_vertices();
    const double matched_fraction =
        2.0 * static_cast<double>(before - after) /
        static_cast<double>(before);
    table.add_row({std::to_string(level + 1), fmt_count(int64_t(after)),
                   fmt_count(int64_t(next.graph.num_edges())),
                   fmt_double(static_cast<double>(before) / after, 4),
                   fmt_double(100.0 * matched_fraction, 4)});
    if (after == before) break;  // edgeless residue: nothing left to match
    g = next.graph;
    ++level;
  }
  table.print(std::cout);
  std::cout << "\ncoarsened to " << g.num_vertices() << " vertices in "
            << level << " levels, " << fmt_double(timer.elapsed_ms())
            << " ms total\n";

  // Determinism spot check: rebuilding level 1 must give the same graph.
  const CsrGraph base = CsrGraph::from_edges(random_graph_nm(n, m, seed));
  const Level again = coarsen(base, seed + 1000);
  const Level again2 = coarsen(base, seed + 1000);
  const bool stable = again.graph.num_vertices() ==
                          again2.graph.num_vertices() &&
                      again.graph.num_edges() == again2.graph.num_edges() &&
                      again.parent == again2.parent;
  std::cout << "determinism check (level 1 rebuilt twice): "
            << (stable ? "identical" : "DIVERGED") << "\n";
  return stable ? 0 : 1;
}
