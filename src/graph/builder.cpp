// CSR construction from a normalized edge list.
//
// The build is parallel yet fully deterministic: directed arcs are sorted by
// source with a stable two-pass bucket sort, so each adjacency list ends up
// ordered by edge id regardless of worker count. (A scatter with atomic
// per-vertex cursors would be faster by a constant but produces a
// scheduling-dependent slot order; determinism of the *layout*, not just
// the results, keeps every downstream instrumentation number reproducible.)
#include <algorithm>
#include <atomic>
#include <utility>

#include "graph/csr_graph.hpp"
#include "parallel/counting_sort.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/scan.hpp"
#include "support/check.hpp"

namespace pargreedy {

namespace {

struct Arc {
  VertexId src;
  VertexId dst;
  EdgeId id;
};

}  // namespace

CsrGraph build_csr_from_normalized(EdgeList normalized) {
  const uint64_t n = normalized.num_vertices();
  const uint64_t m = normalized.num_edges();
  PG_CHECK_MSG(m <= static_cast<uint64_t>(kInvalidEdge),
               "edge count exceeds EdgeId range");

  CsrGraph g;
  g.num_vertices_ = n;
  g.edges_ = std::move(normalized.mutable_edges());
  g.offsets_.assign(n + 1, 0);
  if (n == 0 || m == 0) return g;

  // Emit both directed arcs of every undirected edge, in edge-id order.
  std::vector<Arc> arcs(2 * m);
  parallel_for(0, static_cast<int64_t>(m), [&](int64_t i) {
    const Edge e = g.edges_[static_cast<std::size_t>(i)];
    const EdgeId id = static_cast<EdgeId>(i);
    arcs[static_cast<std::size_t>(2 * i)] = Arc{e.u, e.v, id};
    arcs[static_cast<std::size_t>(2 * i + 1)] = Arc{e.v, e.u, id};
  });

  // Stable sort by source vertex: coarse bucket pass, then an exact
  // per-bucket counting sort (the nested call runs serially inside the
  // parallel loop, which is what we want).
  const int64_t buckets = std::min<int64_t>(1024, static_cast<int64_t>(n));
  auto vertex_lo = [&](int64_t b) {
    return static_cast<VertexId>((static_cast<uint64_t>(b) * n +
                                  static_cast<uint64_t>(buckets) - 1) /
                                 static_cast<uint64_t>(buckets));
  };
  auto bucket_of = [&](VertexId v) {
    return static_cast<int64_t>(static_cast<__uint128_t>(v) *
                                static_cast<uint64_t>(buckets) / n);
  };
  std::vector<Arc> sorted(arcs.size());
  const std::vector<int64_t> bucket_offsets =
      counting_sort<Arc>(std::span<const Arc>(arcs), std::span<Arc>(sorted),
                         buckets, [&](const Arc& a) { return bucket_of(a.src); });
  parallel_for(
      0, buckets,
      [&](int64_t b) {
        const int64_t lo = bucket_offsets[static_cast<std::size_t>(b)];
        const int64_t hi = bucket_offsets[static_cast<std::size_t>(b) + 1];
        if (lo == hi) return;
        const VertexId vlo = vertex_lo(b);
        const VertexId vhi = b + 1 < buckets
                                 ? vertex_lo(b + 1)
                                 : static_cast<VertexId>(n);
        std::vector<Arc> local(sorted.begin() + lo, sorted.begin() + hi);
        counting_sort<Arc>(
            std::span<const Arc>(local),
            std::span<Arc>(sorted.data() + lo, static_cast<std::size_t>(hi - lo)),
            static_cast<int64_t>(vhi - vlo),
            [&](const Arc& a) { return static_cast<int64_t>(a.src - vlo); });
      },
      /*grain=*/1);

  // Offsets from degrees; counts are exact, so the scan gives the layout.
  std::vector<Offset> degree(n, 0);
  {
    std::vector<std::atomic<uint32_t>> deg(n);
    parallel_for(0, static_cast<int64_t>(m), [&](int64_t i) {
      const Edge e = g.edges_[static_cast<std::size_t>(i)];
      deg[e.u].fetch_add(1, std::memory_order_relaxed);
      deg[e.v].fetch_add(1, std::memory_order_relaxed);
    });
    parallel_for(0, static_cast<int64_t>(n), [&](int64_t v) {
      degree[static_cast<std::size_t>(v)] =
          deg[static_cast<std::size_t>(v)].load(std::memory_order_relaxed);
    });
  }
  const Offset total = exclusive_scan(std::span<const Offset>(degree),
                                      std::span<Offset>(g.offsets_.data(), n));
  g.offsets_[n] = total;
  PG_CHECK(total == 2 * m);

  g.adjacency_.resize(2 * m);
  g.incident_.resize(2 * m);
  parallel_for(0, static_cast<int64_t>(2 * m), [&](int64_t i) {
    g.adjacency_[static_cast<std::size_t>(i)] =
        sorted[static_cast<std::size_t>(i)].dst;
    g.incident_[static_cast<std::size_t>(i)] =
        sorted[static_cast<std::size_t>(i)].id;
  });
  return g;
}

}  // namespace pargreedy
