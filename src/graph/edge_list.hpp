// EdgeList: the mutable edge-set representation produced by the generators
// and consumed by the CSR builder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "parallel/uninit_vector.hpp"

namespace pargreedy {

/// A multigraph as a list of (possibly unnormalized) undirected edges.
class EdgeList {
 public:
  EdgeList() = default;
  explicit EdgeList(uint64_t num_vertices) : num_vertices_(num_vertices) {}
  EdgeList(uint64_t num_vertices, UninitVector<Edge> edges)
      : num_vertices_(num_vertices), edges_(std::move(edges)) {}

  // Copies write the edge table in parallel.
  EdgeList(const EdgeList& other)
      : num_vertices_(other.num_vertices_),
        edges_(parallel_copy(other.edges())) {}
  EdgeList& operator=(const EdgeList& other) {
    if (this != &other) *this = EdgeList(other);
    return *this;
  }
  EdgeList(EdgeList&&) noexcept = default;
  EdgeList& operator=(EdgeList&&) noexcept = default;

  [[nodiscard]] uint64_t num_vertices() const { return num_vertices_; }
  [[nodiscard]] uint64_t num_edges() const { return edges_.size(); }
  [[nodiscard]] std::span<const Edge> edges() const { return edges_; }
  [[nodiscard]] UninitVector<Edge>& mutable_edges() { return edges_; }

  /// Appends an edge; endpoints must be < num_vertices().
  void add(VertexId u, VertexId v);

  /// Reserves capacity for `m` edges.
  void reserve(uint64_t m) { edges_.reserve(m); }

  /// True if every endpoint is in range (loops/duplicates allowed).
  [[nodiscard]] bool endpoints_in_range() const;

 private:
  uint64_t num_vertices_ = 0;
  UninitVector<Edge> edges_;
};

/// Returns a simple-graph edge list: self loops removed, endpoints put in
/// u < v canonical order, duplicates removed, edges sorted by (u, v).
/// Parallel (bucketed sort); deterministic in the input.
EdgeList normalize_edges(const EdgeList& in);

/// Index of the first edge that breaks canonical order: u < v <
/// num_vertices, and strictly greater than the edge before it. Returns
/// edges.size() when the whole list is canonical, i.e. exactly what
/// normalize_edges would return. One parallel pass.
std::size_t first_noncanonical_edge(std::span<const Edge> edges,
                                    uint64_t num_vertices);

/// Sorts edges by (u, v) in place, in parallel; deterministic.
void sort_edges(UninitVector<Edge>& edges, uint64_t num_vertices);

}  // namespace pargreedy
