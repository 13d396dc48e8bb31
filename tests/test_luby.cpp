// Unit tests for Luby's Algorithm A — the parallel baseline of Figure 3.
// Unlike the greedy variants it re-randomizes priorities each round, so it
// returns *an* MIS (deterministic in the seed), not the lexicographically
// first one.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/mis/mis.hpp"
#include "core/mis/verify.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "parallel/arch.hpp"

namespace pargreedy {
namespace {

class LubyFamilies : public ::testing::TestWithParam<int> {};

CsrGraph luby_family(int which) {
  switch (which) {
    case 0: return CsrGraph::from_edges(random_graph_nm(1'000, 4'000, 1));
    case 1: return CsrGraph::from_edges(rmat_graph(10, 3'000, 2));
    case 2: return CsrGraph::from_edges(path_graph(777));
    case 3: return CsrGraph::from_edges(star_graph(300));
    case 4: return CsrGraph::from_edges(complete_graph(50));
    case 5: return CsrGraph::from_edges(grid_graph(25, 25));
    case 6: return CsrGraph::from_edges(binary_tree(511));
    case 7: return CsrGraph::from_edges(random_geometric(600, 0.05, 5));
    default: return CsrGraph::from_edges(watts_strogatz(500, 6, 0.3, 5));
  }
}

TEST_P(LubyFamilies, ReturnsAValidMis) {
  const CsrGraph g = luby_family(GetParam());
  for (uint64_t seed = 0; seed < 3; ++seed) {
    const MisResult r = luby_mis(g, seed);
    EXPECT_TRUE(is_maximal_independent_set(g, r.in_set)) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, LubyFamilies, ::testing::Range(0, 9));

TEST(Luby, DeterministicInSeedAcrossWorkerCounts) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(2'000, 8'000, 3));
  MisResult base;
  {
    ScopedNumWorkers guard(1);
    base = luby_mis(g, 42);
  }
  for (int workers : {2, 4}) {
    ScopedNumWorkers guard(workers);
    EXPECT_EQ(luby_mis(g, 42).in_set, base.in_set) << "workers=" << workers;
  }
}

TEST(Luby, SeedsGenerallyProduceDifferentSets) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(1'000, 4'000, 4));
  EXPECT_NE(luby_mis(g, 1).in_set, luby_mis(g, 2).in_set);
}

TEST(Luby, UsuallyDiffersFromLexFirstMis) {
  // The paper's point: Luby gives a *different* answer than the greedy
  // ordering-based algorithms (no fixed pi to agree with).
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(1'000, 4'000, 5));
  const MisResult greedy =
      mis_sequential(g, VertexOrder::random(1'000, 6));
  EXPECT_NE(luby_mis(g, 6).in_set, greedy.in_set);
}

TEST(Luby, RoundCountIsLogarithmic) {
  // O(log n) rounds w.h.p. — the classic Luby bound.
  for (uint64_t n : {1'000ull, 4'000ull, 16'000ull}) {
    const CsrGraph g = CsrGraph::from_edges(
        random_graph_nm(n, 5 * n, static_cast<uint64_t>(n)));
    const MisResult r = luby_mis(g, 9, ProfileLevel::kCounters);
    EXPECT_LE(r.profile.rounds,
              static_cast<uint64_t>(
                  6.0 * std::log2(static_cast<double>(n))))
        << "n=" << n;
    EXPECT_GE(r.profile.rounds, 1u);
  }
}

TEST(Luby, CompleteGraphResolvesInOneRound) {
  // One local minimum exists; everything else dies immediately.
  const CsrGraph g = CsrGraph::from_edges(complete_graph(64));
  const MisResult r = luby_mis(g, 11, ProfileLevel::kCounters);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.profile.rounds, 1u);
}

TEST(Luby, EdgeCases) {
  EXPECT_EQ(luby_mis(CsrGraph::from_edges(EdgeList(0)), 1).size(), 0u);
  EXPECT_EQ(luby_mis(CsrGraph::from_edges(EdgeList(25)), 1).size(), 25u);
  EdgeList pair(2);
  pair.add(0, 1);
  EXPECT_EQ(luby_mis(CsrGraph::from_edges(pair), 1).size(), 1u);
}

TEST(Luby, WorkExceedsGreedyPrefixOnSameInput) {
  // Section 6's observation: "our prefix-based algorithm performs less work
  // in practice" than Luby. Compare profiled edge touches.
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(4'000, 20'000, 7));
  const VertexOrder order = VertexOrder::random(4'000, 8);
  const MisResult luby = luby_mis(g, 9, ProfileLevel::kCounters);
  const MisResult prefix =
      mis_prefix(g, order, 4'000 / 50, ProfileLevel::kCounters);
  EXPECT_GT(luby.profile.work_edges, prefix.profile.work_edges);
}

}  // namespace
}  // namespace pargreedy
