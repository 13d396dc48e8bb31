// Watts–Strogatz small-world generator.
//
// Start from a ring lattice (each vertex joined to its k/2 successors in
// both directions), then rewire each lattice edge's far endpoint to a
// uniform random vertex with probability beta. Rewiring uses counter-based
// hashing keyed by the edge's lattice position, so the output is a pure
// function of (n, k, beta, seed) and independent of the worker count.
#include "generators/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "random/hash.hpp"
#include "support/check.hpp"

namespace pargreedy {

EdgeList watts_strogatz(uint64_t n, uint64_t k, double beta, uint64_t seed) {
  PG_CHECK_MSG(k >= 2 && k % 2 == 0, "k must be even and >= 2");
  PG_CHECK_MSG(n > k, "need more vertices than lattice neighbors");
  PG_CHECK_MSG(beta >= 0.0 && beta <= 1.0, "beta must be a probability");

  const HashRng rng = HashRng(seed).child(0x57530000);
  const uint64_t half_k = k / 2;
  EdgeList edges(n);
  UninitVector<Edge>& out = edges.mutable_edges();
  out.resize(n * half_k);
  parallel_for(0, static_cast<int64_t>(n * half_k), [&](int64_t idx) {
    const uint64_t v = static_cast<uint64_t>(idx) / half_k;
    const uint64_t j = static_cast<uint64_t>(idx) % half_k + 1;
    const VertexId u = static_cast<VertexId>(v);
    VertexId w = static_cast<VertexId>((v + j) % n);
    if (rng.unit(2 * static_cast<uint64_t>(idx)) < beta) {
      // Rewire the far endpoint to a uniform non-self target. A collision
      // with an existing edge is deduplicated by normalize_edges later
      // (the standard Watts-Strogatz simplification).
      const uint64_t draw =
          rng.range(2 * static_cast<uint64_t>(idx) + 1, n - 1);
      w = static_cast<VertexId>(draw >= v ? draw + 1 : draw);
    }
    out[static_cast<std::size_t>(idx)] = Edge{u, w};
  });
  return normalize_edges(edges);
}

}  // namespace pargreedy
