// Unit tests for the workload generators (src/generators/): the paper's two
// evaluation inputs (sparse uniform random, rMat power-law) plus the
// structured families used by tests and adversarial-ordering experiments.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph_ops.hpp"
#include "graph/validate.hpp"
#include "parallel/arch.hpp"
#include "random/hash.hpp"
#include "support/check.hpp"

namespace pargreedy {
namespace {

// ---------------------------------------------------- structured families ---

TEST(Structured, PathGraphShape) {
  const EdgeList el = path_graph(6);
  EXPECT_EQ(el.num_vertices(), 6u);
  ASSERT_EQ(el.num_edges(), 5u);
  for (uint32_t i = 0; i < 5; ++i)
    EXPECT_EQ(el.edges()[i], (Edge{i, i + 1}));
  EXPECT_EQ(path_graph(1).num_edges(), 0u);
  EXPECT_EQ(path_graph(0).num_edges(), 0u);
}

TEST(Structured, CycleGraphShape) {
  const CsrGraph g = CsrGraph::from_edges(cycle_graph(8));
  EXPECT_EQ(g.num_edges(), 8u);
  for (VertexId v = 0; v < 8; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_THROW(cycle_graph(2), CheckFailure);
  EXPECT_EQ(cycle_graph(0).num_edges(), 0u);
}

TEST(Structured, GridGraphShape) {
  const CsrGraph g = CsrGraph::from_edges(grid_graph(3, 4));
  EXPECT_EQ(g.num_vertices(), 12u);
  // Edges: 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8 = 17.
  EXPECT_EQ(g.num_edges(), 17u);
  // Corner degrees 2, edge 3, interior 4.
  EXPECT_EQ(g.degree(0), 2u);   // corner
  EXPECT_EQ(g.degree(1), 3u);   // top edge
  EXPECT_EQ(g.degree(5), 4u);   // interior (row 1, col 1)
}

TEST(Structured, StarGraphShape) {
  const CsrGraph g = CsrGraph::from_edges(star_graph(9));
  EXPECT_EQ(g.num_edges(), 8u);
  EXPECT_EQ(g.degree(0), 8u);
  for (VertexId v = 1; v < 9; ++v) EXPECT_EQ(g.degree(v), 1u);
}

TEST(Structured, CompleteGraphShape) {
  const CsrGraph g = CsrGraph::from_edges(complete_graph(7));
  EXPECT_EQ(g.num_edges(), 21u);
  for (VertexId v = 0; v < 7; ++v) EXPECT_EQ(g.degree(v), 6u);
}

TEST(Structured, CompleteBipartiteShape) {
  const CsrGraph g = CsrGraph::from_edges(complete_bipartite(3, 5));
  EXPECT_EQ(g.num_vertices(), 8u);
  EXPECT_EQ(g.num_edges(), 15u);
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 5u);
  for (VertexId v = 3; v < 8; ++v) EXPECT_EQ(g.degree(v), 3u);
  // Bipartite: no edge inside either part.
  for (const Edge& e : g.edges()) {
    EXPECT_LT(e.u, 3u);
    EXPECT_GE(e.v, 3u);
  }
}

TEST(Structured, BinaryTreeShape) {
  const CsrGraph g = CsrGraph::from_edges(binary_tree(15));  // perfect depth-3
  EXPECT_EQ(g.num_edges(), 14u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 3u);   // internal: parent + 2 children
  EXPECT_EQ(g.degree(14), 1u);  // leaf
  EXPECT_EQ(count_components(g), 1u);
}

// ------------------------------------------------------------ random n,m ---

TEST(RandomGraph, HitsRequestedEdgeCount) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    const EdgeList el = random_graph_nm(10'000, 50'000, seed);
    EXPECT_EQ(el.num_edges(), 50'000u) << "seed " << seed;
    EXPECT_EQ(el.num_vertices(), 10'000u);
  }
}

TEST(RandomGraph, OutputIsSimple) {
  const EdgeList el = random_graph_nm(1'000, 5'000, 4);
  std::set<std::pair<VertexId, VertexId>> seen;
  for (const Edge& e : el.edges()) {
    EXPECT_FALSE(e.is_loop());
    EXPECT_LT(e.u, e.v);
    EXPECT_TRUE(seen.insert({e.u, e.v}).second) << "duplicate edge";
  }
}

TEST(RandomGraph, DeterministicInSeedAcrossWorkerCounts) {
  EdgeList base;
  {
    ScopedNumWorkers guard(1);
    base = random_graph_nm(3'000, 12'000, 77);
  }
  for (int workers : {2, 4}) {
    ScopedNumWorkers guard(workers);
    const EdgeList again = random_graph_nm(3'000, 12'000, 77);
    ASSERT_EQ(again.num_edges(), base.num_edges());
    for (std::size_t i = 0; i < base.num_edges(); ++i)
      ASSERT_EQ(again.edges()[i], base.edges()[i]) << "workers=" << workers;
  }
}

TEST(RandomGraph, SeedsProduceDifferentGraphs) {
  const EdgeList a = random_graph_nm(1'000, 4'000, 1);
  const EdgeList b = random_graph_nm(1'000, 4'000, 2);
  bool any_diff = a.num_edges() != b.num_edges();
  for (std::size_t i = 0; !any_diff && i < a.num_edges(); ++i)
    any_diff = !(a.edges()[i] == b.edges()[i]);
  EXPECT_TRUE(any_diff);
}

TEST(RandomGraph, DegreesAreConcentrated) {
  // Sparse uniform random graph: max degree stays near the average (no
  // power-law tail) — this is what distinguishes it from rMat below.
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(20'000, 100'000, 5));
  const DegreeStats s = degree_stats(g);
  EXPECT_NEAR(s.avg_degree, 10.0, 0.2);
  EXPECT_LT(s.max_degree, 40u);  // Poisson(10) tail; 40 is ~8 sigma
}

TEST(RandomGraph, RejectsImpossibleRequests) {
  EXPECT_THROW(random_graph_nm(3, 100, 1), CheckFailure);  // > C(3,2)
  EXPECT_THROW(random_graph_nm(1, 1, 1), CheckFailure);
}

TEST(RandomGraph, DenseRequestStillExact) {
  // 80% of all possible edges: exercises the multi-round top-up path.
  const uint64_t n = 64;
  const uint64_t max_m = n * (n - 1) / 2;
  const EdgeList el = random_graph_nm(n, max_m * 8 / 10, 6);
  EXPECT_EQ(el.num_edges(), max_m * 8 / 10);
  // 98% and 100%: more than 64 rounds of the sparse-setting slack.
  EXPECT_EQ(random_graph_nm(300, 44'000, 6).num_edges(), 44'000u);
  EXPECT_EQ(random_graph_nm(n, max_m, 6).num_edges(), max_m);
}

// -------------------------------------------------------------- G(n, p) ---

// random_graph_nm with its trim done the plain way: sample in rounds as the
// generator does, then keep the m edges with the smallest cut keys, found
// by one std::nth_element over all of them.
EdgeList nm_with_nth_element_trim(uint64_t n, uint64_t m, uint64_t seed) {
  EdgeList accumulated(n);
  uint64_t draw_index = 0;
  const uint64_t pairs = n * (n - 1) / 2;
  for (uint64_t round = 0; accumulated.num_edges() < m; ++round) {
    const uint64_t have = accumulated.num_edges();
    const uint64_t need = m - have;
    const uint64_t draws =
        round < 64 ? need + need / 6 + 16
                   : static_cast<uint64_t>(static_cast<__uint128_t>(need) *
                                           (pairs + n) / (pairs - have)) +
                         16;
    const HashRng rng = HashRng(seed).child(0x45520000 + round);
    for (uint64_t i = 0; i < draws; ++i) {
      const uint64_t d = draw_index + i;
      accumulated.add(static_cast<VertexId>(rng.range(2 * d, n)),
                      static_cast<VertexId>(rng.range(2 * d + 1, n)));
    }
    draw_index += draws;
    accumulated = normalize_edges(accumulated);
  }
  const std::span<const Edge> all = accumulated.edges();
  if (all.size() <= m) return accumulated;
  const HashRng cut = HashRng(seed).child(0x43555400);
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < all.size(); ++i) keys.push_back(cut.bits(i));
  std::nth_element(keys.begin(), keys.begin() + (m - 1), keys.end());
  EdgeList kept(n);
  for (uint64_t i = 0; i < all.size(); ++i)
    if (cut.bits(i) <= keys[m - 1]) kept.add(all[i].u, all[i].v);
  return kept;
}

TEST(RandomGraph, TrimMatchesNthElementReference) {
  struct Case {
    uint64_t n;
    uint64_t m;
  };
  // Near-complete (over 64 rounds), an overshoot several times m (the 16
  // extra draws of a tiny request), and a sparse graph well above the
  // parallel grain.
  for (const Case c : {Case{300, 44'000}, Case{1'000, 5},
                       Case{100'000, 300'000}}) {
    const EdgeList expect = nm_with_nth_element_trim(c.n, c.m, 17);
    ASSERT_EQ(expect.num_edges(), c.m);
    for (const int workers : {1, 4}) {
      ScopedNumWorkers guard(workers);
      const EdgeList got = random_graph_nm(c.n, c.m, 17);
      EXPECT_TRUE(std::ranges::equal(got.edges(), expect.edges()))
          << "n " << c.n << " m " << c.m << " workers " << workers;
    }
  }
}

TEST(ErdosRenyi, EdgeCountMatchesExpectation) {
  const uint64_t n = 2'000;
  const double p = 0.01;
  const double expect = p * static_cast<double>(n) * (n - 1) / 2;  // ~19990
  double total = 0;
  for (uint64_t seed = 0; seed < 5; ++seed)
    total += static_cast<double>(erdos_renyi_gnp(n, p, seed).num_edges());
  const double mean = total / 5;
  EXPECT_NEAR(mean, expect, 5 * std::sqrt(expect));  // generous CLT band
}

TEST(ErdosRenyi, ExtremeProbabilities) {
  EXPECT_EQ(erdos_renyi_gnp(100, 0.0, 1).num_edges(), 0u);
  EXPECT_EQ(erdos_renyi_gnp(20, 1.0, 1).num_edges(), 190u);  // K_20
}

TEST(ErdosRenyi, OutputIsSimpleAndCanonical) {
  const EdgeList el = erdos_renyi_gnp(500, 0.02, 9);
  std::set<std::pair<VertexId, VertexId>> seen;
  for (const Edge& e : el.edges()) {
    EXPECT_FALSE(e.is_loop());
    EXPECT_LT(e.u, e.v);
    EXPECT_TRUE(seen.insert({e.u, e.v}).second);
  }
}

TEST(ErdosRenyi, DeterministicInSeed) {
  const EdgeList a = erdos_renyi_gnp(300, 0.05, 42);
  const EdgeList b = erdos_renyi_gnp(300, 0.05, 42);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t i = 0; i < a.num_edges(); ++i)
    EXPECT_EQ(a.edges()[i], b.edges()[i]);
}

TEST(ErdosRenyi, RejectsBadProbability) {
  EXPECT_THROW(erdos_renyi_gnp(10, -0.1, 1), CheckFailure);
  EXPECT_THROW(erdos_renyi_gnp(10, 1.5, 1), CheckFailure);
}

// ------------------------------------------------------------------ rMat ---

TEST(Rmat, ProducesRequestedEdges) {
  const EdgeList el = rmat_graph(12, 20'000, 3);
  EXPECT_EQ(el.num_vertices(), uint64_t{1} << 12);
  EXPECT_EQ(el.num_edges(), 20'000u);
}

TEST(Rmat, OutputIsSimple) {
  const EdgeList el = rmat_graph(10, 5'000, 4);
  std::set<std::pair<VertexId, VertexId>> seen;
  for (const Edge& e : el.edges()) {
    EXPECT_FALSE(e.is_loop());
    EXPECT_TRUE(seen.insert({e.u, e.v}).second);
  }
}

TEST(Rmat, HasPowerLawTail) {
  // The paper picked rMat for its skewed degrees: the max degree should be
  // far above the average (unlike the uniform random graph).
  const CsrGraph g = CsrGraph::from_edges(rmat_graph(14, 80'000, 5));
  const DegreeStats s = degree_stats(g);
  EXPECT_GT(static_cast<double>(s.max_degree), 8.0 * s.avg_degree);
}

TEST(Rmat, DeterministicInSeedAcrossWorkerCounts) {
  EdgeList base;
  {
    ScopedNumWorkers guard(1);
    base = rmat_graph(10, 4'000, 11);
  }
  {
    ScopedNumWorkers guard(4);
    const EdgeList again = rmat_graph(10, 4'000, 11);
    ASSERT_EQ(again.num_edges(), base.num_edges());
    for (std::size_t i = 0; i < base.num_edges(); ++i)
      ASSERT_EQ(again.edges()[i], base.edges()[i]);
  }
}

TEST(Rmat, RejectsBadParameters) {
  EXPECT_THROW(rmat_graph(0, 10, 1), CheckFailure);
  EXPECT_THROW(rmat_graph(40, 10, 1), CheckFailure);
  EXPECT_THROW(rmat_graph(8, 10, 1, 0.9, 0.2, 0.2, 0.2), CheckFailure);
  EXPECT_THROW(rmat_graph(8, 10, 1, -0.1, 0.4, 0.4, 0.3), CheckFailure);
}

// ------------------------------------------------------- Barabasi-Albert ---

TEST(BarabasiAlbert, ShapeAndSimplicity) {
  const EdgeList el = barabasi_albert(1'000, 3, 7);
  EXPECT_EQ(el.num_vertices(), 1'000u);
  const CsrGraph g = CsrGraph::from_edges(el);
  EXPECT_TRUE(validate_csr(g).empty());
  // Seed clique C(4,2)=6 edges + ~3 per subsequent vertex.
  EXPECT_GE(g.num_edges(), 6u + 3 * (1'000 - 4) - 50);
  EXPECT_EQ(count_components(g), 1u);
}

TEST(BarabasiAlbert, PreferentialAttachmentSkew) {
  const CsrGraph g = CsrGraph::from_edges(barabasi_albert(3'000, 2, 9));
  const DegreeStats s = degree_stats(g);
  EXPECT_GT(static_cast<double>(s.max_degree), 5.0 * s.avg_degree);
}

TEST(BarabasiAlbert, DeterministicInSeed) {
  const EdgeList a = barabasi_albert(500, 2, 3);
  const EdgeList b = barabasi_albert(500, 2, 3);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t i = 0; i < a.num_edges(); ++i)
    EXPECT_EQ(a.edges()[i], b.edges()[i]);
}

TEST(BarabasiAlbert, RejectsBadParameters) {
  EXPECT_THROW(barabasi_albert(5, 0, 1), CheckFailure);
  EXPECT_THROW(barabasi_albert(3, 3, 1), CheckFailure);
}

}  // namespace
}  // namespace pargreedy
