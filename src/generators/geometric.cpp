// Random geometric graph generator.
//
// n points uniform in the unit square; edge iff Euclidean distance <=
// radius. Points are bucketed into a radius-sized grid so each point only
// tests the 3x3 surrounding cells — O(n + expected m) in sparse settings.
// Point coordinates are counter-based hashes of the point index, so the
// output is a pure function of (n, radius, seed).
#include <algorithm>
#include <cmath>

#include "generators/generators.hpp"
#include "random/hash.hpp"
#include "support/check.hpp"

namespace pargreedy {

EdgeList random_geometric(uint64_t n, double radius, uint64_t seed) {
  PG_CHECK_MSG(radius > 0.0 && radius <= 1.0, "radius must be in (0, 1]");
  const HashRng rng = HashRng(seed).child(0x52474700);

  std::vector<double> x(n);
  std::vector<double> y(n);
  for (uint64_t i = 0; i < n; ++i) {
    x[i] = rng.unit(2 * i);
    y[i] = rng.unit(2 * i + 1);
  }

  // Grid of side ceil(1/radius): all pairs within `radius` live in the
  // same or an adjacent cell.
  const uint64_t side = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::floor(1.0 / radius)));
  auto cell_of = [&](uint64_t i) {
    const uint64_t cx = std::min<uint64_t>(
        side - 1, static_cast<uint64_t>(x[i] * static_cast<double>(side)));
    const uint64_t cy = std::min<uint64_t>(
        side - 1, static_cast<uint64_t>(y[i] * static_cast<double>(side)));
    return cx * side + cy;
  };
  // Bucket points by cell (counting sort over cell ids).
  std::vector<uint64_t> cell_start(side * side + 1, 0);
  for (uint64_t i = 0; i < n; ++i) ++cell_start[cell_of(i) + 1];
  for (uint64_t c = 0; c < side * side; ++c)
    cell_start[c + 1] += cell_start[c];
  std::vector<uint32_t> by_cell(n);
  {
    std::vector<uint64_t> cursor(cell_start.begin(), cell_start.end() - 1);
    for (uint64_t i = 0; i < n; ++i)
      by_cell[cursor[cell_of(i)]++] = static_cast<uint32_t>(i);
  }

  const double r2 = radius * radius;
  EdgeList edges(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t cx = std::min<uint64_t>(
        side - 1, static_cast<uint64_t>(x[i] * static_cast<double>(side)));
    const uint64_t cy = std::min<uint64_t>(
        side - 1, static_cast<uint64_t>(y[i] * static_cast<double>(side)));
    for (uint64_t dx = cx == 0 ? 0 : cx - 1;
         dx <= std::min(side - 1, cx + 1); ++dx) {
      for (uint64_t dy = cy == 0 ? 0 : cy - 1;
           dy <= std::min(side - 1, cy + 1); ++dy) {
        const uint64_t c = dx * side + dy;
        for (uint64_t at = cell_start[c]; at < cell_start[c + 1]; ++at) {
          const uint32_t j = by_cell[at];
          if (j <= i) continue;  // each pair once, i < j
          const double ddx = x[i] - x[j];
          const double ddy = y[i] - y[j];
          if (ddx * ddx + ddy * ddy <= r2)
            edges.add(static_cast<VertexId>(i), static_cast<VertexId>(j));
        }
      }
    }
  }
  return normalize_edges(edges);
}

EdgeList random_bipartite(uint64_t a, uint64_t b, uint64_t m, uint64_t seed) {
  PG_CHECK_MSG(a >= 1 && b >= 1, "both parts must be non-empty");
  PG_CHECK_MSG(m <= a * b, "requested more edges than K_{a,b} has");
  // Oversample-and-normalize rounds, like random_graph_nm.
  EdgeList accumulated(a + b);
  uint64_t draw_index = 0;
  for (int round = 0; round < 64; ++round) {
    const uint64_t have = accumulated.num_edges();
    if (have >= m) break;
    const uint64_t need = m - have;
    const uint64_t draws = need + need / 6 + 16;
    const HashRng rng =
        HashRng(seed).child(0x42495000 + static_cast<uint64_t>(round));
    for (uint64_t i = 0; i < draws; ++i) {
      const uint64_t d = draw_index + i;
      accumulated.add(static_cast<VertexId>(rng.range(2 * d, a)),
                      static_cast<VertexId>(a + rng.range(2 * d + 1, b)));
    }
    draw_index += draws;
    accumulated = normalize_edges(accumulated);
  }
  UninitVector<Edge>& edges = accumulated.mutable_edges();
  if (edges.size() > m) edges.resize(m);
  return accumulated;
}

}  // namespace pargreedy
