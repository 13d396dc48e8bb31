// CSR construction from a canonical edge list, by direct transpose.
//
// Row x lists x's incident edges in increasing edge id. Canonical input
// (u < v, strictly increasing in (u, v)) fixes that order without a sort:
// an edge (u, x) with u < x precedes every edge (x, v), so row x is
//   - its lower half: x's lower neighbours u, from the edges (u, x), in
//     increasing edge id, then
//   - its upper half: the contiguous run of edges (x, v), copied as is.
// Only the lower halves need moving: one stable counting sort of the edge
// ids by v, in two levels. The first groups them into vertex-range buckets
// in parallel; the second, one bucket per task, scatters each edge straight
// to its slot in adjacency_/incident_ with a per-vertex cursor, and then
// copies the bucket's upper halves behind. The layout is a function of the
// input alone, never of the worker count, so every downstream
// instrumentation number stays reproducible.
#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"
#include "parallel/counting_sort.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/scan.hpp"
#include "parallel/uninit_vector.hpp"
#include "support/check.hpp"

namespace pargreedy {

CsrGraph build_csr_from_normalized(EdgeList normalized) {
  const uint64_t n = normalized.num_vertices();
  const uint64_t m = normalized.num_edges();
  PG_CHECK_MSG(m <= static_cast<uint64_t>(kInvalidEdge),
               "edge count exceeds EdgeId range");
  PG_DCHECK(first_noncanonical_edge(normalized.edges(), n) == m);

  CsrGraph g;
  g.num_vertices_ = n;
  g.edges_ = std::move(normalized.mutable_edges());
  g.offsets_.resize(n + 1);
  if (n == 0 || m == 0) {
    parallel_for(0, static_cast<int64_t>(n + 1), [&](int64_t x) {
      g.offsets_[static_cast<std::size_t>(x)] = 0;
    });
    return g;
  }
  const std::span<const Edge> edges = g.edges_;

  // Level one: edge ids bucketed stably by the vertex range holding v.
  const int64_t buckets = std::min<int64_t>(1024, static_cast<int64_t>(n));
  auto vertex_lo = [&](int64_t b) {
    return static_cast<VertexId>((static_cast<uint64_t>(b) * n +
                                  static_cast<uint64_t>(buckets) - 1) /
                                 static_cast<uint64_t>(buckets));
  };
  UninitVector<EdgeId> by_v(m);
  const std::vector<int64_t> bucket_offsets = counting_sort_index(
      static_cast<int64_t>(m), buckets,
      [&](int64_t i) {
        return static_cast<int64_t>(
            static_cast<__uint128_t>(edges[static_cast<std::size_t>(i)].v) *
            static_cast<uint64_t>(buckets) / n);
      },
      [&](int64_t pos, int64_t i) {
        by_v[static_cast<std::size_t>(pos)] = static_cast<EdgeId>(i);
      });

  // One task per bucket: its vertex range [lo, hi), the ids of the edges
  // (u, x) with x in the range (lower halves, in increasing id), and the
  // run [upper_begin, upper_end) of edges (x, v) with x in the range.
  struct Bucket {
    VertexId lo;
    VertexId hi;
    std::span<const EdgeId> lower;
    std::size_t upper_begin;
    std::size_t upper_end;
  };
  const auto first_edge_from = [&](VertexId x) {
    return static_cast<std::size_t>(
        std::lower_bound(
            edges.begin(), edges.end(), x,
            [](const Edge& e, VertexId y) { return e.u < y; }) -
        edges.begin());
  };
  auto for_each_bucket = [&](auto&& fn) {
    parallel_for(
        0, buckets,
        [&](int64_t b) {
          const auto at = static_cast<std::size_t>(b);
          const VertexId lo = vertex_lo(b);
          const VertexId hi =
              b + 1 < buckets ? vertex_lo(b + 1) : static_cast<VertexId>(n);
          fn(Bucket{lo, hi,
                    std::span<const EdgeId>(by_v).subspan(
                        static_cast<std::size_t>(bucket_offsets[at]),
                        static_cast<std::size_t>(bucket_offsets[at + 1] -
                                                 bucket_offsets[at])),
                    first_edge_from(lo), first_edge_from(hi)});
        },
        /*grain=*/1);
  };

  // Degrees (lower plus upper), bucket by bucket, then offsets by a scan.
  for_each_bucket([&](const Bucket& k) {
    for (VertexId x = k.lo; x < k.hi; ++x) g.offsets_[x] = 0;
    for (const EdgeId id : k.lower) ++g.offsets_[edges[id].v];
    for (std::size_t i = k.upper_begin; i < k.upper_end; ++i)
      ++g.offsets_[edges[i].u];
  });
  const Offset total =
      exclusive_scan_inplace(std::span<Offset>(g.offsets_.data(), n));
  g.offsets_[n] = total;
  PG_CHECK(total == 2 * m);

  // Level two: each row's lower half, then its upper half, at the final
  // offsets. Every slot of adjacency_/incident_ is written exactly once.
  g.adjacency_.resize(2 * m);
  g.incident_.resize(2 * m);
  for_each_bucket([&](const Bucket& k) {
    std::vector<Offset> cursor(g.offsets_.begin() + k.lo,
                               g.offsets_.begin() + k.hi);
    const auto place = [&](VertexId row, VertexId nbr, EdgeId id) {
      const Offset slot = cursor[row - k.lo]++;
      g.adjacency_[slot] = nbr;
      g.incident_[slot] = id;
    };
    for (const EdgeId id : k.lower) place(edges[id].v, edges[id].u, id);
    for (std::size_t i = k.upper_begin; i < k.upper_end; ++i)
      place(edges[i].u, edges[i].v, static_cast<EdgeId>(i));
  });
  return g;
}

}  // namespace pargreedy
