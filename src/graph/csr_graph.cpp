#include "graph/csr_graph.hpp"

#include <cmath>
#include <utility>

#include "parallel/reduce.hpp"
#include "support/check.hpp"

namespace pargreedy {

namespace {

bool all_finite(const std::vector<Weight>& weights) {
  for (const Weight w : weights)
    if (!std::isfinite(w)) return false;
  return true;
}

}  // namespace

CsrGraph CsrGraph::from_edges(EdgeList edges) {
  if (first_noncanonical_edge(edges.edges(), edges.num_vertices()) ==
      edges.num_edges())
    return build_csr_from_normalized(std::move(edges));
  return build_csr_from_normalized(normalize_edges(edges));
}

uint64_t CsrGraph::max_degree() const {
  if (num_vertices_ == 0) return 0;
  return reduce_max<uint64_t>(
      0, static_cast<int64_t>(num_vertices_), 0,
      [&](int64_t v) { return degree(static_cast<VertexId>(v)); });
}

uint64_t CsrGraph::memory_bytes() const {
  return offsets_.capacity() * sizeof(Offset) +
         adjacency_.capacity() * sizeof(VertexId) +
         incident_.capacity() * sizeof(EdgeId) +
         edges_.capacity() * sizeof(Edge) +
         vertex_weights_.capacity() * sizeof(Weight) +
         edge_weights_.capacity() * sizeof(Weight);
}

void CsrGraph::set_vertex_weights(std::vector<Weight> weights) {
  PG_CHECK_MSG(weights.empty() || weights.size() == num_vertices_,
               "vertex weight array size != vertex count");
  PG_CHECK_MSG(all_finite(weights), "vertex weights must be finite");
  vertex_weights_ = std::move(weights);
}

void CsrGraph::set_edge_weights(std::vector<Weight> weights) {
  PG_CHECK_MSG(weights.empty() || weights.size() == edges_.size(),
               "edge weight array size != edge count");
  PG_CHECK_MSG(all_finite(weights), "edge weights must be finite");
  edge_weights_ = std::move(weights);
}

}  // namespace pargreedy
