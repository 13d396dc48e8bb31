#include "graph/graph_ops.hpp"

#include <algorithm>
#include <queue>
#include <utility>

#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "support/check.hpp"

namespace pargreedy {

DegreeStats degree_stats(const CsrGraph& g) {
  DegreeStats s;
  const int64_t n = static_cast<int64_t>(g.num_vertices());
  if (n == 0) return s;
  s.max_degree = reduce_max<uint64_t>(
      0, n, 0, [&](int64_t v) { return g.degree(static_cast<VertexId>(v)); });
  s.min_degree = reduce_min<uint64_t>(
      0, n, ~uint64_t{0},
      [&](int64_t v) { return g.degree(static_cast<VertexId>(v)); });
  s.avg_degree = 2.0 * static_cast<double>(g.num_edges()) /
                 static_cast<double>(g.num_vertices());
  s.isolated_vertices = static_cast<uint64_t>(count_if(
      0, n, [&](int64_t v) { return g.degree(static_cast<VertexId>(v)) == 0; }));
  return s;
}

std::vector<uint64_t> degree_histogram(const CsrGraph& g) {
  std::vector<uint64_t> hist(g.max_degree() + 1, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) ++hist[g.degree(v)];
  return hist;
}

CsrGraph induced_subgraph(const CsrGraph& g,
                          std::span<const VertexId> vertices) {
  std::vector<VertexId> remap(g.num_vertices(), kInvalidVertex);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    PG_CHECK_MSG(vertices[i] < g.num_vertices(), "vertex out of range");
    PG_CHECK_MSG(remap[vertices[i]] == kInvalidVertex,
                 "duplicate vertex in induced_subgraph");
    remap[vertices[i]] = static_cast<VertexId>(i);
  }
  EdgeList edges(vertices.size());
  for (VertexId v : vertices) {
    for (VertexId w : g.neighbors(v)) {
      if (v < w && remap[w] != kInvalidVertex)
        edges.add(remap[v], remap[w]);
    }
  }
  return CsrGraph::from_edges(std::move(edges));
}

CsrGraph line_graph(const CsrGraph& g) {
  const uint64_t m = g.num_edges();
  EdgeList edges(m);
  // Two edges of g are adjacent in L(G) iff they share an endpoint: for each
  // vertex, connect every pair of incident edges.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::span<const EdgeId> inc = g.incident_edges(v);
    for (std::size_t i = 0; i < inc.size(); ++i)
      for (std::size_t j = i + 1; j < inc.size(); ++j)
        edges.add(static_cast<VertexId>(inc[i]), static_cast<VertexId>(inc[j]));
  }
  return CsrGraph::from_edges(std::move(edges));
}

CsrGraph complement_graph(const CsrGraph& g) {
  const uint64_t n = g.num_vertices();
  EdgeList edges(n);
  std::vector<uint8_t> adjacent(n, 0);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId w : g.neighbors(u)) adjacent[w] = 1;
    for (VertexId v = u + 1; v < n; ++v)
      if (!adjacent[v]) edges.add(u, v);
    for (VertexId w : g.neighbors(u)) adjacent[w] = 0;
  }
  return CsrGraph::from_edges(std::move(edges));
}

namespace {

/// True iff adjacency lists are ascending (the builder emits them so; the
/// triangle counter depends on it, so verify in debug builds).
[[maybe_unused]] bool adjacency_sorted(const CsrGraph& g) {
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    if (!std::is_sorted(nbrs.begin(), nbrs.end())) return false;
  }
  return true;
}

}  // namespace

uint64_t count_triangles(const CsrGraph& g) {
  PG_DCHECK(adjacency_sorted(g));
  const int64_t n = static_cast<int64_t>(g.num_vertices());
  // For every edge (u, v) with u < v, count common neighbors w > v: each
  // triangle {u, v, w} is counted exactly once, at its lexicographically
  // smallest edge.
  return static_cast<uint64_t>(reduce_add<int64_t>(0, n, [&](int64_t ui) {
    const VertexId u = static_cast<VertexId>(ui);
    const auto nu = g.neighbors(u);
    int64_t found = 0;
    for (VertexId v : nu) {
      if (v <= u) continue;
      const auto nv = g.neighbors(v);
      // Merge-intersect the tails of nu and nv above v.
      auto iu = std::upper_bound(nu.begin(), nu.end(), v);
      auto iv = std::upper_bound(nv.begin(), nv.end(), v);
      while (iu != nu.end() && iv != nv.end()) {
        if (*iu < *iv) ++iu;
        else if (*iv < *iu) ++iv;
        else {
          ++found;
          ++iu;
          ++iv;
        }
      }
    }
    return found;
  }));
}

double global_clustering_coefficient(const CsrGraph& g) {
  const int64_t n = static_cast<int64_t>(g.num_vertices());
  const uint64_t wedges = static_cast<uint64_t>(
      reduce_add<int64_t>(0, n, [&](int64_t v) {
        const int64_t d =
            static_cast<int64_t>(g.degree(static_cast<VertexId>(v)));
        return d * (d - 1) / 2;
      }));
  if (wedges == 0) return 0.0;
  return 3.0 * static_cast<double>(count_triangles(g)) /
         static_cast<double>(wedges);
}

CsrGraph relabel_by_rank(const CsrGraph& g, const VertexOrder& order) {
  PG_CHECK_MSG(order.size() == g.num_vertices(),
               "ordering size != vertex count");
  EdgeList renamed(g.num_vertices());
  UninitVector<Edge>& out = renamed.mutable_edges();
  out.resize(g.num_edges());
  parallel_for(0, static_cast<int64_t>(g.num_edges()), [&](int64_t e) {
    const Edge ed = g.edge(static_cast<EdgeId>(e));
    out[static_cast<std::size_t>(e)] =
        Edge{order.rank(ed.u), order.rank(ed.v)}.canonical();
  });
  return CsrGraph::from_edges(std::move(renamed));
}

std::vector<VertexId> connected_components(const CsrGraph& g) {
  const uint64_t n = g.num_vertices();
  std::vector<VertexId> component(n, kInvalidVertex);
  std::vector<VertexId> frontier;
  for (VertexId start = 0; start < n; ++start) {
    if (component[start] != kInvalidVertex) continue;
    component[start] = start;
    frontier.assign(1, start);
    while (!frontier.empty()) {
      const VertexId v = frontier.back();
      frontier.pop_back();
      for (VertexId w : g.neighbors(v)) {
        if (component[w] == kInvalidVertex) {
          component[w] = start;
          frontier.push_back(w);
        }
      }
    }
  }
  return component;
}

uint64_t count_components(const CsrGraph& g) {
  const std::vector<VertexId> component = connected_components(g);
  uint64_t count = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (component[v] == v) ++count;
  return count;
}

}  // namespace pargreedy
