// CsrGraph: the immutable compressed-sparse-row graph every algorithm runs
// on.
//
// Besides the usual offsets/adjacency arrays, each adjacency slot carries
// the id of its undirected edge (incident_edges), which is what lets the
// maximal-matching algorithms treat "the edges incident on v, by priority"
// as a first-class sequence (Lemma 5.3 requires exactly this view).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_list.hpp"
#include "graph/types.hpp"
#include "parallel/uninit_vector.hpp"

namespace pargreedy {

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds a CSR graph from an arbitrary edge list. One parallel pass
  /// checks whether the input is already canonical (u < v < n, strictly
  /// increasing, as every generator emits it); such input is built as is,
  /// its edge table moved into the graph when the caller passes an rvalue.
  /// Anything else is normalized first (self loops and duplicates dropped,
  /// endpoints put in canonical order), and an endpoint >= n throws
  /// CheckFailure. Deterministic in the input.
  static CsrGraph from_edges(EdgeList edges);

  /// Number of vertices n.
  [[nodiscard]] uint64_t num_vertices() const noexcept { return num_vertices_; }

  /// Number of undirected edges m.
  [[nodiscard]] uint64_t num_edges() const noexcept { return edges_.size(); }

  /// Degree of vertex v.
  [[nodiscard]] uint64_t degree(VertexId v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

  /// The neighbors of v, ordered by the id of the connecting edge.
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const noexcept {
    return {adjacency_.data() + offsets_[v], degree(v)};
  }

  /// Ids of the undirected edges incident on v, parallel to neighbors(v).
  [[nodiscard]] std::span<const EdgeId> incident_edges(VertexId v) const
      noexcept {
    return {incident_.data() + offsets_[v], degree(v)};
  }

  /// The canonical (u < v) endpoint pair of edge e.
  [[nodiscard]] const Edge& edge(EdgeId e) const noexcept { return edges_[e]; }

  /// All edges in canonical order; edge(e) == edges()[e].
  [[nodiscard]] std::span<const Edge> edges() const noexcept {
    return edges_;
  }

  /// Adjacency-offset array (size n+1); offsets()[n] == 2m.
  [[nodiscard]] std::span<const Offset> offsets() const noexcept { return offsets_; }

  /// Raw adjacency array (size 2m).
  [[nodiscard]] std::span<const VertexId> adjacency() const noexcept {
    return adjacency_;
  }

  /// Maximum degree Delta (0 for the empty graph). Computed on demand.
  [[nodiscard]] uint64_t max_degree() const;

  /// Approximate heap footprint in bytes (for bench reporting).
  [[nodiscard]] uint64_t memory_bytes() const;

  /// True iff a vertex-weight array is attached.
  [[nodiscard]] bool has_vertex_weights() const {
    return !vertex_weights_.empty();
  }

  /// True iff an edge-weight array is attached.
  [[nodiscard]] bool has_edge_weights() const {
    return !edge_weights_.empty();
  }

  /// Weight of vertex v; kDefaultWeight when the graph is unweighted.
  [[nodiscard]] Weight vertex_weight(VertexId v) const {
    return vertex_weights_.empty() ? kDefaultWeight : vertex_weights_[v];
  }

  /// Weight of edge e; kDefaultWeight when the graph is unweighted.
  [[nodiscard]] Weight edge_weight(EdgeId e) const {
    return edge_weights_.empty() ? kDefaultWeight : edge_weights_[e];
  }

  /// The vertex-weight array (empty when unweighted).
  [[nodiscard]] std::span<const Weight> vertex_weights() const {
    return vertex_weights_;
  }

  /// The edge-weight array, indexed by edge id (empty when unweighted).
  [[nodiscard]] std::span<const Weight> edge_weights() const {
    return edge_weights_;
  }

  /// Attaches per-vertex weights (size n, all finite). An empty vector
  /// detaches, returning the graph to unweighted.
  void set_vertex_weights(std::vector<Weight> weights);

  /// Attaches per-edge weights indexed by edge id (size m, all finite).
  /// An empty vector detaches.
  void set_edge_weights(std::vector<Weight> weights);

 private:
  friend CsrGraph build_csr_from_normalized(EdgeList normalized);

  uint64_t num_vertices_ = 0;
  UninitVector<Offset> offsets_{0};    // n+1 entries
  UninitVector<VertexId> adjacency_;   // 2m entries
  UninitVector<EdgeId> incident_;      // 2m entries, parallel to adjacency_
  UninitVector<Edge> edges_;           // m canonical edges
  std::vector<Weight> vertex_weights_; // n entries, or empty (unweighted)
  std::vector<Weight> edge_weights_;   // m entries, or empty (unweighted)
};

/// Internal: builds the CSR arrays from a canonical edge list (what
/// normalize_edges returns; first_noncanonical_edge(edges, n) == m, checked
/// in debug builds), taking ownership of its edge table. Exposed for the
/// builder translation unit and for readers that have checked
/// first_noncanonical_edge themselves; use CsrGraph::from_edges.
CsrGraph build_csr_from_normalized(EdgeList normalized);

}  // namespace pargreedy
