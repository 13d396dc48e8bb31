#include "graph/edge_list.hpp"

#include <algorithm>

#include "parallel/counting_sort.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/reduce.hpp"
#include "support/check.hpp"

namespace pargreedy {

void EdgeList::add(VertexId u, VertexId v) {
  PG_DCHECK(u < num_vertices_ && v < num_vertices_);
  edges_.push_back(Edge{u, v});
}

bool EdgeList::endpoints_in_range() const {
  return count_if(0, static_cast<int64_t>(edges_.size()), [&](int64_t i) {
           const Edge e = edges_[static_cast<std::size_t>(i)];
           return e.u >= num_vertices_ || e.v >= num_vertices_;
         }) == 0;
}

std::size_t first_noncanonical_edge(std::span<const Edge> edges,
                                    uint64_t num_vertices) {
  const int64_t m = static_cast<int64_t>(edges.size());
  return static_cast<std::size_t>(reduce_min<int64_t>(0, m, m, [&](int64_t i) {
    const Edge e = edges[static_cast<std::size_t>(i)];
    const bool ok = e.u < e.v && e.v < num_vertices &&
                    (i == 0 || edges[static_cast<std::size_t>(i - 1)] < e);
    return ok ? m : i;
  }));
}

void sort_edges(UninitVector<Edge>& edges, uint64_t num_vertices) {
  const int64_t m = static_cast<int64_t>(edges.size());
  if (m < 1 << 16 || num_vertices == 0) {
    std::sort(edges.begin(), edges.end());
    return;
  }
  // Three passes: a stable counting sort into contiguous u-ranges, a
  // counting sort by u inside each range, then each run of one u (a few
  // edges on sparse graphs) sorted by v. Linear work but for the short
  // runs; the nested counting sort runs serially inside the parallel loop.
  const int64_t buckets = std::min<int64_t>(1024, (int64_t)num_vertices);
  UninitVector<Edge> scratch(edges.size());
  const std::vector<int64_t> offsets = counting_sort<Edge>(
      std::span<const Edge>(edges), std::span<Edge>(scratch), buckets,
      [&](const Edge& e) {
        return static_cast<int64_t>(
            static_cast<__uint128_t>(e.u) * static_cast<uint64_t>(buckets) /
            num_vertices);
      });
  parallel_for(
      0, buckets,
      [&](int64_t b) {
        const int64_t lo = offsets[static_cast<std::size_t>(b)];
        const int64_t hi = offsets[static_cast<std::size_t>(b) + 1];
        if (lo == hi) return;
        const std::span<const Edge> in(scratch.data() + lo,
                                       static_cast<std::size_t>(hi - lo));
        const std::span<Edge> out(edges.data() + lo, in.size());
        VertexId ulo = in[0].u;
        VertexId uhi = in[0].u;
        for (const Edge& e : in) {
          ulo = std::min(ulo, e.u);
          uhi = std::max(uhi, e.u);
        }
        // One run per u, or per a few u's when the bucket's edges are
        // sparser than its u-range, so the pass stays linear in them.
        const uint64_t range = static_cast<uint64_t>(uhi - ulo) + 1;
        const int64_t runs_wanted =
            std::min<int64_t>(static_cast<int64_t>(range), hi - lo);
        const std::vector<int64_t> runs = counting_sort<Edge>(
            in, out, runs_wanted, [&](const Edge& e) {
              return static_cast<int64_t>(static_cast<uint64_t>(e.u - ulo) *
                                          static_cast<uint64_t>(runs_wanted) /
                                          range);
            });
        for (std::size_t r = 0; r + 1 < runs.size(); ++r)
          std::sort(out.begin() + runs[r], out.begin() + runs[r + 1]);
      },
      /*grain=*/1);
}

EdgeList normalize_edges(const EdgeList& in) {
  PG_CHECK_MSG(in.endpoints_in_range(),
               "edge list has endpoints >= num_vertices");
  const std::span<const Edge> raw = in.edges();
  // Drop self loops, then canonicalize what is left in place.
  UninitVector<Edge> no_loops = pack(raw, [&](int64_t i) {
    return !raw[static_cast<std::size_t>(i)].is_loop();
  });
  parallel_for(0, static_cast<int64_t>(no_loops.size()), [&](int64_t i) {
    Edge& e = no_loops[static_cast<std::size_t>(i)];
    e = e.canonical();
  });
  sort_edges(no_loops, in.num_vertices());
  // Deduplicate (sorted, so adjacent equal edges collapse).
  UninitVector<Edge> unique =
      pack(std::span<const Edge>(no_loops), [&](int64_t i) {
        return i == 0 || !(no_loops[static_cast<std::size_t>(i)] ==
                           no_loops[static_cast<std::size_t>(i - 1)]);
      });
  return EdgeList(in.num_vertices(), std::move(unique));
}

}  // namespace pargreedy
