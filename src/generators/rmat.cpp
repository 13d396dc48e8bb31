// rMat generator (Chakrabarti, Zhan, Faloutsos; SIAM SDM 2004) — the
// power-law workload of the paper's evaluation.
//
// Each edge is sampled by recursively descending `scale` levels of the
// adjacency matrix, choosing a quadrant per level with probabilities
// (a, b, c, d). As in the PBBS generator, the probabilities are perturbed
// per level by a deterministic hash-derived noise term so the matrix is not
// exactly self-similar.
#include "generators/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "random/hash.hpp"
#include "support/check.hpp"

namespace pargreedy {

namespace {

Edge sample_rmat_edge(unsigned scale, uint64_t n, double a, double b,
                      double c, const HashRng& rng, uint64_t draw) {
  uint64_t u = 0;
  uint64_t v = 0;
  for (unsigned level = 0; level < scale; ++level) {
    // Deterministic per-(draw, level) noise of +-10% keeps the quadrant
    // probabilities from being exactly self-similar across levels.
    const double noise =
        0.9 + 0.2 * rng.unit(draw * (2 * scale) + 2 * level);
    const double al = a * noise;
    const double bl = b * noise;
    const double cl = c * noise;
    const double r = rng.unit(draw * (2 * scale) + 2 * level + 1);
    uint64_t ubit = 0;
    uint64_t vbit = 0;
    if (r < al) {
      // top-left quadrant: both bits 0
    } else if (r < al + bl) {
      vbit = 1;  // top-right
    } else if (r < al + bl + cl) {
      ubit = 1;  // bottom-left
    } else {
      ubit = 1;
      vbit = 1;  // bottom-right
    }
    u = (u << 1) | ubit;
    v = (v << 1) | vbit;
  }
  PG_DCHECK(u < n && v < n);
  (void)n;
  return Edge{static_cast<VertexId>(u), static_cast<VertexId>(v)};
}

}  // namespace

EdgeList rmat_graph(unsigned scale, uint64_t m, uint64_t seed, double a,
                    double b, double c, double d) {
  PG_CHECK_MSG(scale >= 1 && scale < 32, "scale must be in [1, 31]");
  PG_CHECK_MSG(a >= 0 && b >= 0 && c >= 0 && d >= 0, "negative probability");
  const double sum = a + b + c + d;
  PG_CHECK_MSG(sum > 0.999 && sum < 1.001, "probabilities must sum to 1");
  const uint64_t n = uint64_t{1} << scale;

  // Like random_graph_nm: oversample in rounds, normalize, repeat. Power-law
  // graphs produce many duplicate edges (hub pairs), so use a larger slack.
  EdgeList accumulated(n);
  uint64_t draw_index = 0;
  for (int round = 0; round < 64; ++round) {
    const uint64_t have = accumulated.num_edges();
    if (have >= m) break;
    const uint64_t need = m - have;
    const uint64_t draws = need + need / 3 + 16;
    UninitVector<Edge>& out = accumulated.mutable_edges();
    const std::size_t base = out.size();
    out.resize(base + draws);
    const HashRng rng = HashRng(seed).child(0x524d4154 + (uint64_t)round);
    parallel_for(0, static_cast<int64_t>(draws), [&](int64_t i) {
      out[base + static_cast<std::size_t>(i)] = sample_rmat_edge(
          scale, n, a, b, c, rng, draw_index + static_cast<uint64_t>(i));
    });
    draw_index += draws;
    accumulated = normalize_edges(accumulated);
  }
  (void)d;  // d is implied by 1 - a - b - c in the quadrant choice
  UninitVector<Edge>& edges = accumulated.mutable_edges();
  if (edges.size() > m) edges.resize(m);  // power-law: tail trim is benign
  return accumulated;
}

}  // namespace pargreedy
