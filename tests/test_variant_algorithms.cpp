// Tests for the alternative algorithm formulations:
//   * mis_speculative / mm_speculative — the core algorithms expressed
//     through the generic deterministic-reservations engine;
//   * luby_mis against the textbook array formulation of Luby's rounds
//     (a serial oracle below: same priorities, stored instead of hashed
//     in-register, so the same MIS);
//   * relabel_by_rank — the pre-permutation trick (PBBS setup) that turns
//     any ordering into the identity ordering on a renamed graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/matching/matching.hpp"
#include "core/mis/mis.hpp"
#include "generators/generators.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph_ops.hpp"
#include "graph/validate.hpp"
#include "parallel/arch.hpp"
#include "random/hash.hpp"
#include "support/check.hpp"

namespace pargreedy {
namespace {

EdgeList family(const std::string& name, uint64_t seed) {
  if (name == "random") return random_graph_nm(600, 2'400, seed);
  if (name == "rmat") return rmat_graph(10, 2'000, seed);
  if (name == "path") return path_graph(500);
  if (name == "star") return star_graph(400);
  if (name == "complete") return complete_graph(40);
  if (name == "geometric") return random_geometric(600, 0.05, seed);
  return watts_strogatz(500, 6, 0.3, seed);
}

// Luby's Algorithm A as the textbook states it, serially: each round
// stores a fresh priority for every live vertex, live strict local minima
// (ties by id) join, and their live neighbours leave.
std::vector<uint8_t> luby_arrays_reference(const CsrGraph& g, uint64_t seed) {
  enum : uint8_t { kLive, kIn, kOut };
  const uint64_t n = g.num_vertices();
  std::vector<uint8_t> status(n, kLive);
  std::vector<uint64_t> priority(n);
  for (uint64_t round = 1;
       std::find(status.begin(), status.end(), kLive) != status.end();
       ++round) {
    const uint64_t round_seed = hash64(seed, round);
    for (VertexId v = 0; v < n; ++v)
      if (status[v] == kLive) priority[v] = hash64(round_seed, v);
    std::vector<VertexId> joined;
    for (VertexId v = 0; v < n; ++v) {
      if (status[v] != kLive) continue;
      bool is_min = true;
      for (VertexId w : g.neighbors(v)) {
        if (status[w] == kLive &&
            (priority[w] < priority[v] ||
             (priority[w] == priority[v] && w < v)))
          is_min = false;
      }
      if (is_min) joined.push_back(v);
    }
    for (VertexId v : joined) status[v] = kIn;
    for (VertexId v : joined)
      for (VertexId w : g.neighbors(v))
        if (status[w] == kLive) status[w] = kOut;
  }
  std::vector<uint8_t> in_set(n);
  for (VertexId v = 0; v < n; ++v) in_set[v] = status[v] == kIn ? 1 : 0;
  return in_set;
}

class VariantFamilies : public ::testing::TestWithParam<std::string> {};

TEST_P(VariantFamilies, MisSpeculativeEqualsSequential) {
  for (uint64_t seed = 0; seed < 2; ++seed) {
    const CsrGraph g = CsrGraph::from_edges(family(GetParam(), seed));
    const uint64_t n = g.num_vertices();
    const VertexOrder order = VertexOrder::random(n, seed + 41);
    const MisResult expect = mis_sequential(g, order);
    for (uint64_t window : {uint64_t{1}, uint64_t{37}, n / 3 + 1, n}) {
      EXPECT_EQ(mis_speculative(g, order, window).in_set, expect.in_set)
          << "window=" << window;
    }
  }
}

TEST_P(VariantFamilies, MmSpeculativeEqualsSequential) {
  for (uint64_t seed = 0; seed < 2; ++seed) {
    const CsrGraph g = CsrGraph::from_edges(family(GetParam(), seed));
    const uint64_t m = g.num_edges();
    const EdgeOrder order = EdgeOrder::random(m, seed + 43);
    const MatchResult expect = mm_sequential(g, order);
    for (uint64_t window : {uint64_t{1}, uint64_t{37}, m / 3 + 1, m}) {
      EXPECT_EQ(mm_speculative(g, order, window).in_matching,
                expect.in_matching)
          << "window=" << window;
    }
  }
}

TEST_P(VariantFamilies, LubyArraysEqualsLubyInRegister) {
  // Same seed -> same priority values -> the same MIS, computed two ways.
  const CsrGraph g = CsrGraph::from_edges(family(GetParam(), 5));
  for (uint64_t seed = 0; seed < 3; ++seed)
    EXPECT_EQ(luby_mis(g, seed).in_set, luby_arrays_reference(g, seed))
        << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Families, VariantFamilies,
                         ::testing::Values("random", "rmat", "path", "star",
                                           "complete", "geometric",
                                           "smallworld"));

TEST(VariantDeterminism, SpeculativeVariantsStableAcrossWorkerCounts) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(1'500, 6'000, 3));
  const VertexOrder vo = VertexOrder::random(g.num_vertices(), 4);
  const EdgeOrder eo = EdgeOrder::random(g.num_edges(), 5);
  const MisResult mis_ref = mis_sequential(g, vo);
  const MatchResult mm_ref = mm_sequential(g, eo);
  for (int workers : {1, 2, 4}) {
    ScopedNumWorkers guard(workers);
    EXPECT_EQ(mis_speculative(g, vo, 128).in_set, mis_ref.in_set);
    EXPECT_EQ(mm_speculative(g, eo, 128).in_matching, mm_ref.in_matching);
  }
}

TEST(VariantProfiles, SpeculativeAttemptsCoverEveryItem) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(800, 3'200, 6));
  const VertexOrder vo = VertexOrder::random(800, 7);
  const MisResult r = mis_speculative(g, vo, 100);
  EXPECT_GE(r.profile.work_items, g.num_vertices());  // >= one attempt each
  EXPECT_GE(r.profile.rounds, 800u / 100u);
}

// ------------------------------------------------------- relabel_by_rank ---

TEST(RelabelByRank, ProducesAValidIsomorphicGraph) {
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(300, 1'200, 8));
  const VertexOrder order = VertexOrder::random(300, 9);
  const CsrGraph r = relabel_by_rank(g, order);
  EXPECT_TRUE(validate_csr(r).empty());
  EXPECT_EQ(r.num_vertices(), g.num_vertices());
  EXPECT_EQ(r.num_edges(), g.num_edges());
  // Degrees transfer through the renaming.
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(r.degree(order.rank(v)), g.degree(v));
}

TEST(RelabelByRank, IdentityOrderIsANoOp) {
  const CsrGraph g = CsrGraph::from_edges(rmat_graph(8, 600, 10));
  const CsrGraph r =
      relabel_by_rank(g, VertexOrder::identity(g.num_vertices()));
  ASSERT_EQ(r.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) EXPECT_EQ(r.edge(e), g.edge(e));
}

TEST(RelabelByRank, MisOnRelabeledGraphMapsBack) {
  // The contract the fig1/fig3 benches rely on: running with identity
  // order on the relabeled graph computes the same MIS, renamed.
  const CsrGraph g = CsrGraph::from_edges(random_graph_nm(500, 2'500, 11));
  const VertexOrder order = VertexOrder::random(500, 12);
  const CsrGraph r = relabel_by_rank(g, order);
  const VertexOrder ident = VertexOrder::identity(500);
  const MisResult direct = mis_sequential(g, order);
  for (const MisResult& renamed :
       {mis_sequential(r, ident), mis_prefix(r, ident, 64),
        mis_rootset(r, ident)}) {
    for (VertexId v = 0; v < 500; ++v)
      ASSERT_EQ(direct.in_set[v], renamed.in_set[order.rank(v)]) << v;
  }
}

TEST(RelabelByRank, IsIdentityFlagDetection) {
  EXPECT_TRUE(VertexOrder::identity(10).is_identity());
  EXPECT_TRUE(VertexOrder::from_permutation({0, 1, 2}).is_identity());
  EXPECT_FALSE(VertexOrder::from_permutation({1, 0, 2}).is_identity());
  EXPECT_FALSE(VertexOrder::random(1'000, 1).is_identity());
  EXPECT_TRUE(VertexOrder::identity(0).is_identity());
}

TEST(RelabelByRank, RejectsSizeMismatch) {
  const CsrGraph g = CsrGraph::from_edges(path_graph(5));
  EXPECT_THROW(relabel_by_rank(g, VertexOrder::identity(4)), CheckFailure);
}

}  // namespace
}  // namespace pargreedy
