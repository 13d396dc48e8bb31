#include <algorithm>
#include <cmath>
#include <vector>

#include "generators/generators.hpp"
#include "parallel/pack.hpp"
#include "parallel/parallel_for.hpp"
#include "random/hash.hpp"
#include "random/xoshiro.hpp"
#include "support/check.hpp"

namespace pargreedy {

EdgeList random_graph_nm(uint64_t n, uint64_t m, uint64_t seed) {
  PG_CHECK_MSG(n >= 2 || m == 0, "need at least two vertices for edges");
  const uint64_t max_edges = n < 2 ? 0 : n * (n - 1) / 2;
  PG_CHECK_MSG(m <= max_edges, "requested more edges than K_n has");

  // Sample in rounds: draw ~15% more endpoint pairs than still needed (the
  // slack absorbs loops and duplicates, which are rare in sparse settings),
  // normalize, repeat until m distinct edges are in hand. Counter-based
  // hashing keys each draw by a global draw index so the result is
  // independent of the worker count. A dense request that is still short
  // after 64 rounds has most draws landing on present edges, so from then
  // on each round draws about need * (pairs / missing pairs) to expect
  // `need` new edges.
  EdgeList accumulated(n);
  uint64_t draw_index = 0;
  for (uint64_t round = 0;; ++round) {
    const uint64_t have = accumulated.num_edges();
    if (have >= m) break;
    const uint64_t need = m - have;
    const uint64_t draws =
        round < 64 ? need + need / 6 + 16
                   : static_cast<uint64_t>(static_cast<__uint128_t>(need) *
                                           (max_edges + n) /
                                           (max_edges - have)) +
                         16;
    UninitVector<Edge>& out = accumulated.mutable_edges();
    const std::size_t base = out.size();
    out.resize(base + draws);
    const HashRng rng = HashRng(seed).child(0x45520000 + round);
    parallel_for(0, static_cast<int64_t>(draws), [&](int64_t i) {
      const uint64_t d = draw_index + static_cast<uint64_t>(i);
      const VertexId u = static_cast<VertexId>(rng.range(2 * d, n));
      const VertexId v = static_cast<VertexId>(rng.range(2 * d + 1, n));
      out[base + static_cast<std::size_t>(i)] = Edge{u, v};
    });
    draw_index += draws;
    accumulated = normalize_edges(accumulated);
  }
  // Trim any overshoot by keeping a *random* m-subset (plain truncation of
  // the sorted list would starve high-id vertices of edges): the m edges
  // whose cut keys, distinct as hash64 is a bijection, are the smallest.
  // A parallel select finds the m-th smallest key, t: per-block histograms
  // of the keys' top 16 bits locate the bucket holding it, and only that
  // bucket's keys (about M / 2^16 of the M edges) go through a serial
  // nth_element. One order-preserving pack then keeps the keys <= t.
  if (accumulated.num_edges() > m) {
    UninitVector<Edge>& edges = accumulated.mutable_edges();
    const HashRng cut = HashRng(seed).child(0x43555400);
    const auto key = [&](int64_t i) {
      return cut.bits(static_cast<uint64_t>(i));
    };
    constexpr int kTopBits = 16;
    constexpr int64_t kBuckets = int64_t{1} << kTopBits;
    const auto top = [&](int64_t i) {
      return static_cast<std::size_t>(key(i) >> (64 - kTopBits));
    };
    const int64_t total = static_cast<int64_t>(edges.size());
    const int64_t blocks = parallel_block_count(total);
    std::vector<uint64_t> hist(static_cast<std::size_t>(blocks * kBuckets));
    parallel_blocks(total, [&](int64_t b, int64_t lo, int64_t hi) {
      uint64_t* h = hist.data() + b * kBuckets;
      for (int64_t i = lo; i < hi; ++i) ++h[top(i)];
    });
    // Walk the buckets to the one holding the m-th smallest key; `below`
    // counts the keys in the buckets before it.
    uint64_t below = 0;
    std::size_t target = 0;
    for (;; ++target) {
      uint64_t in_bucket = 0;
      for (int64_t b = 0; b < blocks; ++b)
        in_bucket += hist[static_cast<std::size_t>(b * kBuckets) + target];
      if (below + in_bucket >= m) break;
      below += in_bucket;
    }
    std::vector<uint64_t> candidates;
    for (const uint64_t i : pack_index<uint64_t>(
             total, [&](int64_t i) { return top(i) == target; }))
      candidates.push_back(key(static_cast<int64_t>(i)));
    std::nth_element(candidates.begin(),
                     candidates.begin() + (m - 1 - below), candidates.end());
    const uint64_t threshold = candidates[m - 1 - below];
    edges = pack(std::span<const Edge>(edges),
                 [&](int64_t i) { return key(i) <= threshold; });
  }
  return accumulated;
}

EdgeList erdos_renyi_gnp(uint64_t n, double p, uint64_t seed) {
  PG_CHECK_MSG(p >= 0.0 && p <= 1.0, "p must be a probability");
  EdgeList edges(n);
  if (n < 2 || p == 0.0) return edges;
  if (p >= 1.0) return complete_graph(n);
  Xoshiro256 rng(mix64(seed) ^ 0x474e5000ULL);

  // Geometric skip sampling over the n*(n-1)/2 pair indices, walking the
  // (u, v) cursor incrementally: exact G(n,p) in O(n + n^2 p) work.
  const double log1mp = std::log1p(-p);
  uint64_t u = 0;
  uint64_t v = 0;  // cursor: next candidate pair is (u, v + 1)
  bool exhausted = false;
  auto advance = [&](uint64_t k) {
    // Move the cursor forward by k pairs in row-major (u, v) order.
    while (k > 0) {
      const uint64_t row_remaining = (n - 1) - v;  // pairs left in row u
      if (k <= row_remaining) {
        v += k;
        return;
      }
      k -= row_remaining;
      ++u;
      if (u >= n - 1) {
        exhausted = true;
        return;
      }
      v = u;
    }
  };
  while (true) {
    const double r = rng.unit();
    const uint64_t skip =
        static_cast<uint64_t>(std::floor(std::log1p(-r) / log1mp));
    advance(skip + 1);
    if (exhausted) break;
    edges.mutable_edges().push_back(
        Edge{static_cast<VertexId>(u), static_cast<VertexId>(v)});
  }
  return edges;
}

}  // namespace pargreedy
